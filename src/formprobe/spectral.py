"""Fourier transform on forms and the spectrally exact d, delta, Laplacian.

The transform is the componentwise unitary FFT.  Derivatives never touch
finite differences here: d and delta are pulled back from the frequency
side through the coordinate-multiplication operators, so the complex
identities (d d = 0, delta delta = 0, d delta + delta d = Laplacian and
the Gaffney identity) hold to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (FormField, apply_R, apply_T, apply_table, l2_inner, norm,
                     sign_table)


def fourier(e: FormField) -> FormField:
    """Componentwise unitary FFT; the result lives on the frequency grid."""
    if e.spectral:
        raise ValueError("field is already in frequency space")
    axes = tuple(range(1, e.grid.dim + 1))
    return e.with_data(np.fft.fftn(e.data, axes=axes, norm="ortho"), spectral=True)


def fourier_inverse(e: FormField) -> FormField:
    if not e.spectral:
        raise ValueError("field is not in frequency space")
    axes = tuple(range(1, e.grid.dim + 1))
    return e.with_data(np.fft.ifftn(e.data, axes=axes, norm="ortho"), spectral=False)


def partial_derivative(e: FormField, axis: int, order: int = 1) -> FormField:
    """Spectral partial derivative along a 1-based axis."""
    xi = e.grid.freq_field(axis)
    symbol = (1j * xi) ** order
    if e.spectral:
        return e.with_data(symbol * e.data)
    hat = fourier(e)
    return fourier_inverse(hat.with_data(symbol * hat.data))


def exterior_d(e: FormField) -> FormField:
    """Exterior derivative via the frequency-side insertion operator."""
    if e.rank >= e.grid.dim:
        raise ValueError("rank overflow: d on a top-rank form")
    if e.spectral:
        return 1j * apply_R(e)
    hat = fourier(e)
    return fourier_inverse(1j * apply_R(hat))


def coderivative_delta(e: FormField) -> FormField:
    """Co-derivative via the frequency-side contraction operator."""
    if e.rank < 1:
        raise ValueError("rank underflow: delta on a rank-0 form")
    if e.spectral:
        return 1j * apply_T(e)
    hat = fourier(e)
    return fourier_inverse(1j * apply_T(hat))


def laplacian(e: FormField) -> FormField:
    """Componentwise Laplacian, symbol -|xi|^2 (= d delta + delta d)."""
    symbol = -e.grid.freq_radius_sq()
    if e.spectral:
        return e.with_data(symbol * e.data)
    hat = fourier(e)
    return fourier_inverse(hat.with_data(symbol * hat.data))


def d_delta_plus_delta_d(e: FormField) -> FormField:
    """Assemble d delta + delta d with the edge conventions at rank 0 and N."""
    out = FormField.zeros(e.grid, e.rank, e.spectral)
    if e.rank > 0:
        out = out + exterior_d(coderivative_delta(e))
    if e.rank < e.grid.dim:
        out = out + coderivative_delta(exterior_d(e))
    return out


def spectral_sobolev_norm(e: FormField, order: float) -> float:
    """Bessel-potential norm ||(1+|xi|^2)^(s/2) F(E)||, any real s."""
    hat = e if e.spectral else fourier(e)
    weight = (1.0 + e.grid.freq_radius_sq()) ** order
    value = np.sum(weight * np.abs(hat.data) ** 2) * e.grid.cell_volume
    return math.sqrt(max(value.real if np.iscomplexobj(value) else value, 0.0))


@dataclass(frozen=True)
class GaffneyReport:
    gradient_sq: float      # sum_n ||d_n Phi||^2
    d_delta_sq: float       # ||d Phi||^2 + ||delta Phi||^2
    relative_gap: float


def gaffney_identity_check(phi: FormField) -> GaffneyReport:
    """Compare the full gradient energy with the d/delta graph energy."""
    hat = phi if phi.spectral else fourier(phi)
    lhs = 0.0
    for axis in range(1, phi.grid.dim + 1):
        xi = phi.grid.freq_field(axis)
        lhs += np.sum(np.abs(xi * hat.data) ** 2) * phi.grid.cell_volume
    rhs = 0.0
    if phi.rank < phi.grid.dim:
        rhs += norm(1j * apply_R(hat)) ** 2
    if phi.rank > 0:
        rhs += norm(1j * apply_T(hat)) ** 2
    scale = max(lhs, rhs)
    gap = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return GaffneyReport(lhs, rhs, gap)


# ---------------------------------------------------------------------------
# componentwise assembly of d and delta from given partial derivatives;
# used where spectral differentiation is unavailable (half-grid data,
# manufactured forms with closed-form partials)
# ---------------------------------------------------------------------------

def assemble_d(e: FormField, partials: dict) -> FormField:
    """(dE)_K = sum_{j in K} sign(j, K\\j) d_j E_{K\\j}: the R table with the
    partials in place of the coordinates.

    ``partials`` maps the 1-based axis j to the form field holding d_j E.
    """
    if e.rank >= e.grid.dim:
        raise ValueError("rank overflow")
    return _assemble("R", e, partials, e.rank + 1)


def assemble_delta(e: FormField, partials: dict) -> FormField:
    """(delta E)_J = sum_{j not in J} sign(j, J) d_j E_{J + j}: the T table."""
    if e.rank < 1:
        raise ValueError("rank underflow")
    return _assemble("T", e, partials, e.rank - 1)


def _assemble(kind: str, e: FormField, partials: dict, rank: int) -> FormField:
    stacks = [partials[j].data for j in range(1, e.grid.dim + 1)]
    out = apply_table(sign_table(kind, e.grid.dim, e.rank), stacks)
    return e.with_data(out, rank=rank)


def gradient(e: FormField) -> dict:
    """All spectral first partials keyed by 1-based axis."""
    hat = e if e.spectral else fourier(e)
    out = {}
    for axis in range(1, e.grid.dim + 1):
        xi = e.grid.freq_field(axis)
        d_hat = hat.with_data(1j * xi * hat.data)
        out[axis] = d_hat if e.spectral else fourier_inverse(d_hat)
    return out


def stokes_duality_residual(e: FormField, h: FormField) -> float:
    """|<dE, H> + <E, delta H>| / scale on the boundary-free box."""
    de = exterior_d(e)
    dh = coderivative_delta(h)
    lhs = l2_inner(de, h)
    rhs = l2_inner(e, dh)
    scale = max(norm(de) * norm(h), norm(e) * norm(dh), 1e-300)
    return abs(lhs + rhs) / scale
