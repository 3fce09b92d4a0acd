"""Manufactured form fields with closed-form derivatives.

Components come from one closed-form radial family, closed under
differentiation: ``media.PolyRhoGauss``, sums of
c x^alpha (1 + r^2)^p exp(-b r^2) (analytic, any derivative order by its
term recurrence), which also gives the catalog media their partials; a
Gaussian member uses it with p = 0.  The family has only ``eval`` and
``partial``; d and delta of a manufactured form are assembled from its
closed-form partials by ``spectral.assemble_d`` and ``assemble_delta``.
The half-space members are ``gaussian_form(..., trace_free=True)``, closed
forms too, with a tangential trace of exactly 0.  Band-limited fields and
dense media are synthesised from their seeded index cubes
|k|_inf <= kmax instead (``random_band_limited``, ``random_dense_media``):
one function on every grid, with spectrally exact derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .decompose import coexact_data
from .fields import (FormField, GridSpec, derivative_orders, multi_indices,
                     n_components, normal_mask, reflect_nodes,
                     reflection_signs, sign_table)
from .media import PolyRhoGauss, make_transformation
from .spectral import cube_freq_fields, ifft_nodes

BAND_LIMIT_FRACTION = 4  # random band-limited fields use |k| <= n/4


# ---------------------------------------------------------------------------
# manufactured forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedForm:
    """Form whose components carry their own closed-form calculus: each is
    a ``PolyRhoGauss``, or an object with its ``eval``, ``partial`` and a
    ``decay`` of 0 (no Gaussian envelope)."""

    grid: GridSpec
    rank: int
    comps: dict = field(repr=False)   # multi-index -> component object

    def field(self) -> FormField:
        """The form on its grid; real when every component is.

        When every component present has one nonzero decay, the envelope
        is made once for all of them.  Each component stays its own array,
        joined by ``np.stack``.  These choices set the estimate probes'
        peak RSS, not their live memory: holding r^2 through the
        components, writing them into one preallocated stack, or caching
        the envelope past the call each raised it by 11 % or more
        (CHANGES.md).
        """
        comps = [self.comps.get(mi) for mi in multi_indices(self.grid.dim, self.rank)]
        shared = {}
        decays = {c.decay for c in comps if c is not None}
        if len(decays) == 1 and (decay := decays.pop()) != 0.0:
            shared["envelope"] = np.exp(-decay * self.grid.radius_sq())
        return FormField(self.grid, self.rank, np.stack(
            [np.zeros(self.grid.shape) if c is None else c.eval(self.grid, **shared)
             for c in comps]))

    def partial(self, axis: int) -> "ManufacturedForm":
        return ManufacturedForm(self.grid, self.rank,
                                {mi: c.partial(axis)
                                 for mi, c in self.comps.items()})

    def partials(self, kind: str | None = None) -> dict:
        """Every first partial as a field keyed by its 1-based axis: the
        input of ``spectral.assemble_d`` and ``assemble_delta``.

        With ``kind`` ("R" for d, "T" for delta) only the components that
        table reads are evaluated and the rest stay zero (delta of a
        rank-1 form reads the diagonal d_j E_j alone).
        """
        mis = multi_indices(self.grid.dim, self.rank)
        read = None if kind is None else {
            (axis + 1, mis[s])
            for _, s, _, axis in sign_table(kind, self.grid.dim, self.rank).entries}
        return {j: ManufacturedForm(self.grid, self.rank, {
                    mi: c for mi, c in self.comps.items()
                    if read is None or (j, mi) in read}).partial(j).field()
                for j in range(1, self.grid.dim + 1)}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gaussian_form(grid: GridSpec, rank: int, seed: int, decay: float = 3.0,
                  poly_degree: int = 1,
                  trace_free: bool = False) -> ManufacturedForm:
    """Random polynomial-times-Gaussian form centred at the origin, analytic
    to every order.  ``trace_free`` draws only the monomials of odd x_N
    degree off N and of even degree on N: x_N = 0 is a node and the
    envelope is even, so the tangential trace is exactly 0."""
    rng = np.random.default_rng(seed)
    comps = {}
    for mi, normal in zip(multi_indices(grid.dim, rank),
                          normal_mask(grid.dim, rank)):
        poly = {alpha: complex(round(rng.uniform(-1, 1), 6))
                for alpha in derivative_orders(grid.dim, poly_degree)
                if not trace_free or alpha[-1] % 2 != normal}
        comps[mi] = PolyRhoGauss({0.0: poly}, decay)
    return ManufacturedForm(grid, rank, comps)


def random_dense_media(grid: GridSpec, rank: int, seed: int,
                       amplitude: float = 0.4, kmax: int = 2):
    """Random admissible dense media with band-limited smooth entries, one
    function on every grid.

    Each entry of the upper triangle draws three seeded modes k,
    |k|_inf <= kmax, with complex coefficients c into its index cube, and
    -k with conj(c): a real trigonometric polynomial, made by the pruned
    inverse of ``ifft_nodes``, so spectral entry derivatives are exact.  It
    is divided by the sum of its coefficient moduli, a bound on its sup
    that does not depend on the grid, so the perturbation has norm at most
    the amplitude; symmetry is built in.
    """
    factor = _cube_factor(grid, kmax)
    rng = np.random.default_rng(seed)
    nc = n_components(grid.dim, rank)
    pairs = [(i, j) for i in range(nc) for j in range(i, nc)]
    cubes = np.zeros((len(pairs),) + (2 * kmax + 1,) * grid.dim, np.complex128)
    for cube in cubes:
        for _ in range(3):
            k = np.array([rng.integers(-kmax, kmax + 1) for _ in range(grid.dim)])
            c = complex(rng.standard_normal(), rng.standard_normal())
            cube[tuple(kmax + k)] += c
            cube[tuple(kmax - k)] += c.conjugate()
    bounds = np.abs(cubes).sum(axis=tuple(range(1, grid.dim + 1)))
    entries = ifft_nodes((factor * cubes)[..., kmax:], grid.half_box(), kmax)
    hat = np.zeros((nc, nc) + grid.shape)
    for (i, j), values, bound in zip(pairs, entries, bounds):
        hat[i, j] = hat[j, i] = amplitude / nc * values / bound
    return make_transformation(grid, rank, "dense", hat=hat)


# ---------------------------------------------------------------------------
# fast array-space random fields
# ---------------------------------------------------------------------------

def _cube_factor(grid: GridSpec, kmax: int) -> np.ndarray:
    """The factor over the index cube |k|_inf <= kmax that takes the
    coefficients D(k) of sum_k D(k) exp(i pi k.x / L) to its unitary
    spectrum on ``grid``: the nodes x = -L + j h give the phase (-1)^k per
    axis, and the unitary transform n^(N/2)."""
    if kmax >= grid.points // 2:
        raise ValueError("band limit exceeds the grid Nyquist index")
    phase_1d = (-1.0) ** np.abs(np.arange(-kmax, kmax + 1))
    phases = reduce(np.multiply.outer, [phase_1d] * grid.dim)
    return grid.points ** (grid.dim / 2.0) * phases


def _band_limited_spectrum(grid: GridSpec, rank: int, seed: int,
                           kmax: int | None, real: bool) -> tuple:
    """Frequency grid, band limit and unitary spectrum of the seeded
    band-limited field, as its index cube |k|_inf <= kmax (see
    ``spectral.embed_cube``): coefficients drawn from the seed alone.
    A real field takes the Hermitian part of the cube,
    (D(k) + conj(D(-k))) / 2, and keeps its half k_N >= 0 on the half
    layout."""
    if kmax is None:
        kmax = max(grid.points // BAND_LIMIT_FRACTION, 1)
    factor = _cube_factor(grid, kmax)
    rng = np.random.default_rng(seed)
    nc = n_components(grid.dim, rank)
    side = 2 * kmax + 1
    cube = rng.standard_normal((nc,) + (side,) * grid.dim) \
        + 1j * rng.standard_normal((nc,) + (side,) * grid.dim)
    values = factor * cube
    if not real:
        return grid, kmax, values
    flipped = np.flip(values, tuple(range(1, grid.dim + 1)))  # D(-k)
    return grid.half_box(), kmax, (0.5 * (values + np.conj(flipped)))[..., kmax:]


def random_band_limited(grid: GridSpec, rank: int, seed: int,
                        kmax: int | None = None, real: bool = True) -> FormField:
    """Seeded band-limited random field, grid-independent as a function.

    The Fourier coefficients live on the fixed index cube |k|_inf <= kmax
    drawn from the seed alone, so refining the grid reproduces the same
    continuum field.  The real field (the real part of the complex one) is
    the irfftn of that cube's Hermitian half, made over the lines that
    cross the cube only (bitwise the full irfftn, in a fraction of its
    work and memory); the complex one is an ifftn.
    """
    layout, kmax, cube = _band_limited_spectrum(grid, rank, seed, kmax, real)
    return FormField(grid, rank, ifft_nodes(cube, layout, kmax))


def random_dyadic(grid: GridSpec, rank: int, seed: int,
                  bits: int = 16) -> FormField:
    """Random integer-valued field: floating-point arithmetic on it is exact.

    Used by the exactness tests of the operator algebra; the identities
    under test are algebraic, and integer data keeps every product and sum
    inside the 53-bit mantissa.
    """
    rng = np.random.default_rng(seed)
    nc = n_components(grid.dim, rank)
    lo, hi = -(2 ** bits), 2 ** bits
    re = rng.integers(lo, hi, size=(nc,) + grid.shape).astype(float)
    im = rng.integers(lo, hi, size=(nc,) + grid.shape).astype(float)
    return FormField(grid, rank, re + 1j * im)


def random_coclosed(grid: GridSpec, rank: int, seed: int,
                    kmax: int | None = None) -> FormField:
    """Random co-closed zero-mean field: the co-exact part of
    ``random_band_limited(grid, rank, seed, kmax)``.

    The Hermitian half of that field's index cube is projected by
    T R / |xi|^2 at the cube's own frequencies, the only modes that are
    not zero, and inverted by the pruned passes of ``ifft_nodes``: bitwise
    the inverse of the whole projected half spectrum.  A top-rank form has
    no co-exact part, and its field is zero without a transform.
    """
    layout, kmax, cube = _band_limited_spectrum(grid, rank, seed, kmax, real=True)
    if rank == grid.dim:
        return FormField.zeros(grid, rank)
    projected = coexact_data(cube, rank, cube_freq_fields(layout, kmax))
    return FormField(grid, rank, ifft_nodes(projected, layout, kmax))


def parity_symmetrized(e: FormField, parity: str) -> FormField:
    """Symmetrize components in x_N: (E + D E(x', -x_N)) / 2.

    "mirror": D is the reflection's sign vector, even where N is absent,
    odd where present (extension of the d-mirror); "trace-free": -D, the
    opposite parity, which forces a vanishing tangential trace.
    """
    if parity not in ("mirror", "trace-free"):
        raise ValueError("parity must be 'mirror' or 'trace-free'")
    signs = reflection_signs(e.grid.dim, e.rank)
    out = reflect_nodes(e.data, signs if parity == "mirror" else -signs)
    out += e.data
    out *= 0.5
    return e.with_data(out)

