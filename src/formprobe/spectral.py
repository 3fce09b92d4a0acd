"""Fourier transform on forms and the spectrally exact d, delta, Laplacian.

The transform is the componentwise unitary FFT, and ``fft_nodes`` /
``ifft_nodes`` are the package's one entry point to it (the N = 3 bridge
keeps its own as the independent reference route).  A real form is
transformed to its half spectrum (rfftn over the node axes, the last one
halved), on the half layout of its grid, and comes back real; a complex
form keeps the full spectrum.  An inverse is numpy's 1-D passes, every
complex pass in one buffer, and a spectrum given as its index cube
|k|_inf <= kmax is inverted over the lines that cross the cube only.
Derivatives never touch finite differences here: each operator is a
symbol applied on the frequency side (``derivative_symbol`` builds
(i xi)^alpha; d and delta are the coordinate-multiplication operators R
and T on the frequencies), so the complex identities (d d = 0,
delta delta = 0, d delta + delta d = Laplacian and the Gaffney identity)
hold to round-off.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .fields import (FormField, apply_R, apply_T, apply_table, l2_inner, norm,
                     sign_table)


def fft_nodes(data: np.ndarray, grid) -> np.ndarray:
    """Unitary FFT over the trailing node axes of any stack, onto the
    frequency grid ``grid``: rfftn of real data onto the half layout, fftn
    onto the periodic box.

    Every axis pass writes into one preallocated output (numpy's ``out=``)
    instead of allocating an array of its own.  With
    ``ifft_nodes`` the one call into numpy's transforms; both look
    ``numpy.fft`` up at call time, so a wrapper bound there sees every
    transform the package makes.
    """
    axes = tuple(range(-grid.dim, 0))
    out = np.empty(data.shape[:data.ndim - grid.dim] + grid.shape, np.complex128)
    if grid.half:
        return np.fft.rfftn(data, axes=axes, norm="ortho", out=out)
    return np.fft.fftn(data, axes=axes, norm="ortho", out=out)


def _cube_positions(grid, kmax: int) -> tuple:
    """Node positions of the index cube |k|_inf <= kmax on the frequency
    grid ``grid``, one index array per axis: k = -kmax .. kmax in wrapped
    order, and k_N = 0 .. kmax on the half layout's last axis."""
    wrapped = np.arange(-kmax, kmax + 1) % grid.points
    last = np.arange(kmax + 1) if grid.half else wrapped
    return (wrapped,) * (grid.dim - 1) + (last,)


def cube_freq_fields(grid, kmax: int) -> tuple:
    """The frequencies xi_1 .. xi_N of ``grid.freq_fields()`` at the index
    cube |k|_inf <= kmax only, each broadcastable over the cube."""
    xi = grid.axis_freqs()
    fields = []
    for axis, positions in enumerate(_cube_positions(grid, kmax)):
        shape = [1] * grid.dim
        shape[axis] = positions.size
        fields.append(xi[positions].reshape(shape))
    return tuple(fields)


def embed_cube(cube: np.ndarray, grid, kmax: int) -> np.ndarray:
    """The spectrum on the frequency grid ``grid`` that holds ``cube`` (a
    stack over the index cube |k|_inf <= kmax, see ``_cube_positions``) and
    vanishes off it."""
    data = np.zeros(cube.shape[:cube.ndim - grid.dim] + grid.shape, np.complex128)
    data[(...,) + np.ix_(*_cube_positions(grid, kmax))] = cube
    return data


def ifft_nodes(data: np.ndarray, grid, kmax: int | None = None) -> np.ndarray:
    """Inverse of ``fft_nodes`` from the frequency grid ``grid``: irfftn
    from the half layout (real output on the full box), else ifftn.

    The inverse is made as numpy's own 1-D passes in the n-d transform's
    order: ifft over the axes -N .. -2 and then irfft over the last one on
    the half layout, ifft over the axes -1 .. -N on the full one.  Every
    complex pass writes into one complex128 buffer (``out=``), so the
    output is bitwise numpy's irfftn or ifftn without an array per pass.
    That buffer is ``data`` itself when it is a writeable complex128 array,
    which the call then overwrites: callers pass a fresh operator output
    nothing else reads.  Any other input, a read-only field spectrum for
    one, is copied once and left unchanged.

    With ``kmax`` the data is the index cube of a spectrum that vanishes
    off it (see ``embed_cube``).  A half spectrum is then inverted pass by
    pass in the same order, each complex pass over the lines that cross
    the cube only and the last, real pass over every line.  Each line is
    the one irfftn transforms and the skipped lines are zero, so the
    output is bitwise the irfftn of the embedded spectrum, for a fraction
    of its work and memory.
    """
    axes = tuple(range(-grid.dim, 0))
    n = grid.points
    if kmax is not None and grid.half:
        wrapped = _cube_positions(grid, kmax)[0]
        for axis in axes[:-1]:
            shape = list(data.shape)
            shape[axis] = n
            lines = np.zeros(shape, np.complex128)
            lines[(...,) + (wrapped,) + (slice(None),) * (-axis - 1)] = data
            data = np.fft.ifft(lines, axis=axis, norm="ortho", out=lines)
        return np.fft.irfft(data, n=n, axis=-1, norm="ortho")
    if kmax is not None:
        data = embed_cube(data, grid, kmax)
    elif data.dtype != np.complex128 or not data.flags.writeable:
        data = data.astype(np.complex128)
    for axis in axes[:-1] if grid.half else axes[::-1]:
        np.fft.ifft(data, axis=axis, norm="ortho", out=data)
    return np.fft.irfft(data, n=n, axis=-1, norm="ortho") if grid.half else data


def fourier(e: FormField) -> FormField:
    """Componentwise unitary FFT; the result lives on the frequency grid,
    the half layout for a real field.

    E keeps a weak reference to its spectrum, so while that spectrum is
    alive a second call returns it instead of transforming again; the
    reference extends no lifetime.  A spectrum made here may be shared, so
    no caller reuses its buffer (``take_data``).
    """
    if e.spectral:
        raise ValueError("field is already in frequency space")
    if e.grid.half:
        raise ValueError("a half-box field has no spectrum")
    hat = vars(e).get("_spectrum", lambda: None)()
    if hat is None:
        freq = e.grid if np.iscomplexobj(e.data) else e.grid.half_box()
        hat = FormField(freq, e.rank, fft_nodes(e.data, freq), spectral=True)
        object.__setattr__(e, "_spectrum", weakref.ref(hat))
    return hat


def fourier_inverse(e: FormField) -> FormField:
    if not e.spectral:
        raise ValueError("field is not in frequency space")
    return FormField(e.grid.periodic_box(), e.rank, ifft_nodes(e.data, e.grid))


def _inverse_in_place(hat: FormField) -> FormField:
    """``fourier_inverse`` of a spectrum nothing else holds, with its
    complex passes made in the spectrum's own buffer."""
    return FormField(hat.grid.periodic_box(), hat.rank,
                     ifft_nodes(hat.take_data(), hat.grid))


def _scaled(fresh: FormField, factor) -> FormField:
    """factor * the data of a fresh field (an R or T result, a symmetrized
    member) that nothing else holds, in the field's own buffer; the operand
    order is that of ``factor * data``."""
    data = fresh.take_data()
    return fresh.with_data(np.multiply(factor, data, out=data))


def derivative_symbol(grid, alpha: tuple):
    """The multiplier (i xi)^alpha of d^alpha, broadcastable over the
    frequency grid (alpha holds one order per axis)."""
    symbol = None
    for axis, order in enumerate(alpha, start=1):
        if order:
            factor = (1j * grid.freq_field(axis)) ** order
            symbol = factor if symbol is None else symbol * factor
    return 1.0 if symbol is None else symbol


def harmonic_mask(grid) -> np.ndarray:
    """Modes where every derivative symbol vanishes (the harmonic modes)."""
    return grid.freq_radius_sq() == 0.0


def _spectrum(e: FormField) -> FormField:
    """F(E); a frequency-space field is its own spectrum."""
    return e if e.spectral else fourier(e)


def _apply_symbol(e: FormField, op) -> np.ndarray:
    """Apply a symbol operator in the space of E.

    ``op`` maps the spectrum F(E) to frequency-side data (any stack over
    its nodes, so symbols come from the spectrum's grid).  That data is
    returned as is for a spectral E and inverted for a position-space one.
    """
    hat = _spectrum(e)
    out = op(hat)
    return out if e.spectral else ifft_nodes(out, hat.grid)


def _unit(dim: int, axis: int, order: int = 1) -> tuple:
    """The multi-index of d_axis^order."""
    return tuple(order if j == axis else 0 for j in range(1, dim + 1))


def partial_derivative(e: FormField, axis: int, order: int = 1) -> FormField:
    """Spectral partial derivative along a 1-based axis."""
    alpha = _unit(e.grid.dim, axis, order)
    return e.with_data(_apply_symbol(
        e, lambda hat: derivative_symbol(hat.grid, alpha) * hat.data))


def exterior_d(e: FormField) -> FormField:
    """Exterior derivative via the frequency-side insertion operator."""
    if e.rank >= e.grid.dim:
        raise ValueError("rank overflow: d on a top-rank form")
    return e.with_data(_apply_symbol(
        e, lambda hat: _scaled(apply_R(hat), 1j).take_data()),
                       rank=e.rank + 1)


def coderivative_delta(e: FormField) -> FormField:
    """Co-derivative via the frequency-side contraction operator."""
    if e.rank < 1:
        raise ValueError("rank underflow: delta on a rank-0 form")
    return e.with_data(_apply_symbol(
        e, lambda hat: _scaled(apply_T(hat), 1j).take_data()),
                       rank=e.rank - 1)


def laplacian(e: FormField) -> FormField:
    """Componentwise Laplacian, symbol -|xi|^2 (= d delta + delta d)."""
    return e.with_data(_apply_symbol(
        e, lambda hat: -hat.grid.freq_radius_sq() * hat.data))


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
    hat = _spectrum(e)
    return norm(hat.scale_pointwise((1.0 + hat.grid.freq_radius_sq()) ** (order / 2.0)))


@dataclass(frozen=True)
class GaffneyReport:
    gradient_sq: float      # sum_n ||d_n Phi||^2
    d_delta_sq: float       # ||d Phi||^2 + ||delta Phi||^2
    relative_gap: float


def gaffney_identity_check(phi: FormField) -> GaffneyReport:
    """Compare the full gradient energy with the d/delta graph energy."""
    hat = _spectrum(phi)
    lhs = sum(norm(hat.scale_pointwise(hat.grid.freq_field(axis))) ** 2
              for axis in range(1, phi.grid.dim + 1))
    rhs = 0.0
    if phi.rank < phi.grid.dim:
        rhs += norm(1j * apply_R(hat)) ** 2
    if phi.rank > 0:
        rhs += norm(1j * apply_T(hat)) ** 2
    scale = max(lhs, rhs)
    gap = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return GaffneyReport(lhs, rhs, gap)


# ---------------------------------------------------------------------------
# d and delta assembled from given partial derivatives, where spectral
# differentiation is unavailable: the closed-form partials of manufactured
# forms (probes._check_stokes)
# ---------------------------------------------------------------------------

def assemble_d(partials: dict) -> FormField:
    """(dE)_K = sum_{j in K} sign(j, K\\j) d_j E_{K\\j}: the R table with the
    partials in place of the coordinates.

    ``partials`` maps the 1-based axis j to the form field holding d_j E
    (E's grid and rank).
    """
    rank = partials[1].rank
    if rank >= partials[1].grid.dim:
        raise ValueError("rank overflow")
    return _assemble("R", partials, rank + 1)


def assemble_delta(partials: dict) -> FormField:
    """(delta E)_J = sum_{j not in J} sign(j, J) d_j E_{J + j}: the T table."""
    rank = partials[1].rank
    if rank < 1:
        raise ValueError("rank underflow")
    return _assemble("T", partials, rank - 1)


def _assemble(kind: str, partials: dict, rank: int) -> FormField:
    """Apply the R or T table to the partials; each target adds its terms
    in ascending axis order."""
    first = partials[1]
    dim = first.grid.dim
    table = sign_table(kind, dim, first.rank)
    by_axis = replace(table, entries=tuple(
        sorted(table.entries, key=lambda entry: (entry[0], entry[3]))))
    stacks = [partials[j].data for j in range(1, dim + 1)]
    return first.with_data(apply_table(by_axis, stacks), rank=rank)


def gradient(e: FormField) -> dict:
    """All spectral first partials keyed by 1-based axis, from one
    transform and one stacked inverse."""
    dim = e.grid.dim

    def op(hat):
        return np.stack([derivative_symbol(hat.grid, _unit(dim, axis)) * hat.data
                         for axis in range(1, dim + 1)])

    stack = _apply_symbol(e, op)
    return {axis: e.with_data(stack[axis - 1]) for axis in range(1, dim + 1)}


def stokes_duality_residual(e: FormField, h: FormField) -> float:
    """|<dE, H> + <E, delta H>| / scale on the boundary-free box."""
    de = exterior_d(e)
    dh = coderivative_delta(h)
    lhs = l2_inner(de, h)
    rhs = l2_inner(e, dh)
    scale = max(norm(de) * norm(h), norm(e) * norm(dh), 1e-300)
    return abs(lhs + rhs) / scale
