"""Half-space model domain: mirrors, traces, shifts and reconstructions.

The lower half-box {x_N <= 0} keeps the boundary plane as its last grid
slice.  Quadrature closes the x_N interval with trapezoid half-weights,
which makes the sqrt(2)-isometry of the mirror extension exact.  Nothing
here differentiates one-sidedly: derivatives arrive either analytically
(manufactured data) or after mirror extension to the periodic box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

import numpy as np

from .fields import (FormField, GridSpec, apply_table, hodge_star,
                     index_position, l2_inner, n_components, sign_table)
from .media import Transformation

GREGORY4 = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfGridField:
    """Form field on the lower half-box including the x_N = 0 plane.

    A plain container: the pointwise operators of ``fields`` act on it
    through its component array, whose nodes are the first n/2 + 1 slices
    of the periodic grid along x_N.
    """

    grid: GridSpec          # the full periodic reference grid
    rank: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.points
        expected = (n_components(self.grid.dim, self.rank),) \
            + (n,) * (self.grid.dim - 1) + (n // 2 + 1,)
        if self.data.shape != expected:
            raise ValueError(f"half-grid data has shape {self.data.shape}, "
                             f"expected {expected}")
        if self.data.dtype != np.complex128:
            object.__setattr__(self, "data",
                               np.ascontiguousarray(self.data, np.complex128))
        self.data.flags.writeable = False

    def component(self, mi) -> np.ndarray:
        return self.data[index_position(self.grid.dim, tuple(mi))]

    def with_data(self, data: np.ndarray, rank=None) -> "HalfGridField":
        return HalfGridField(self.grid, self.rank if rank is None else rank, data)

    def __add__(self, other):
        return self.with_data(self.data + other.data)

    def __sub__(self, other):
        return self.with_data(self.data - other.data)

    def __mul__(self, factor):
        return self.with_data(self.data * factor)

    __rmul__ = __mul__


def restrict_to_half(e: FormField) -> HalfGridField:
    """Keep the nodes with x_N <= 0 (boundary plane included)."""
    n = e.grid.points
    return HalfGridField(e.grid, e.rank, e.data[..., : n // 2 + 1].copy())


def half_quadrature_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoid closure along x_N: half weight at both interval ends."""
    w = np.ones(grid.points // 2 + 1)
    w[0] = 0.5
    w[-1] = 0.5
    return w


def _weighted_inner(a: HalfGridField, b: HalfGridField, w: np.ndarray) -> complex:
    """Half-box quadrature of sum_I A_I conj(B_I) with weights w along x_N."""
    total = np.sum(w * np.sum(a.data * np.conj(b.data), axis=0))
    return complex(total * a.grid.cell_volume)


def half_inner(e: HalfGridField, h: HalfGridField) -> complex:
    return _weighted_inner(e, h, half_quadrature_weights(e.grid))


def half_norm(e: HalfGridField) -> float:
    return math.sqrt(max(half_inner(e, e).real, 0.0))


# ---------------------------------------------------------------------------
# mirror operators
# ---------------------------------------------------------------------------

def mirror_Sd(e: HalfGridField) -> FormField:
    """Extend across the plane: even where N is absent, odd where present.

    The upper half is the pullback under the reflection x_N -> -x_N.
    Commutes with d on reflection-compatible fields and doubles the
    squared norm exactly in the grid quadrature.
    """
    dim = e.grid.dim
    n = e.grid.points
    reflection = sign_table(("pullback", tuple(range(1, dim + 1)),
                             (1,) * (dim - 1) + (-1,)), dim, e.rank)
    out = np.empty((e.data.shape[0],) + e.grid.shape, np.complex128)
    out[..., : n // 2 + 1] = e.data
    # x_N = -(L-h) .. -h reversed
    out[..., n // 2 + 1:] = apply_table(reflection, e.data[..., 1: n // 2][..., ::-1])
    return FormField(e.grid, e.rank, out)


def mirror_Sdelta(e: HalfGridField) -> FormField:
    """Dual mirror (-1)^(q(N-q)) star Sd star; commutes with delta."""
    dim = e.grid.dim
    sign = -1.0 if (e.rank * (dim - e.rank)) % 2 else 1.0
    return sign * hodge_star(mirror_Sd(hodge_star(e)))


# ---------------------------------------------------------------------------
# shifts and difference quotients
# ---------------------------------------------------------------------------

def _step_count(grid: GridSpec, step: float) -> int:
    k = step / grid.spacing
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"step {step} is not a multiple of the grid spacing "
                         f"{grid.spacing}")
    return int(round(k))


def shift(e, axis: int, step: float):
    """Pullback by the translation x -> x + step e_axis (grid-aligned step)."""
    k = _step_count(e.grid, step)
    if isinstance(e, HalfGridField) and axis >= e.grid.dim:
        raise ValueError("normal-axis shift is not defined on half-grid "
                         "fields (tangential axes only)")
    return e.with_data(np.roll(e.data, -k, axis=axis))


def diff_quotient(e, axis: int, step: float):
    """Forward difference quotient (tau_step^* - id)/step."""
    if step == 0:
        raise ValueError("difference quotient needs a nonzero step")
    shifted = shift(e, axis, step)
    return shifted.with_data((shifted.data - e.data) / step)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def boundary_grid(grid: GridSpec) -> GridSpec:
    if grid.dim < 2:
        raise ValueError("boundary plane needs ambient dimension >= 2")
    return GridSpec(grid.dim - 1, grid.half_length, grid.points)


def trace_tangential(e: HalfGridField) -> FormField:
    """Tangential trace: components without N, restricted to x_N = 0."""
    out = apply_table(sign_table("trace", e.grid.dim, e.rank), e.data[..., -1])
    return FormField(boundary_grid(e.grid), e.rank, out)


def trace_normal(e: HalfGridField) -> FormField:
    """Normal trace (-1)^((q-1) N) star_boundary  gamma_t  star.

    The boundary star is taken in the induced orientation of the plane
    (outward normal first), which differs from the standard orientation
    of (x_1, .., x_(N-1)) by (-1)^(N-1); this is the sign that closes the
    Stokes pairing on the lower half-box.
    """
    if e.rank < 1:
        raise ValueError("normal trace needs rank >= 1")
    dim = e.grid.dim
    sign = -1.0 if ((e.rank - 1) * dim) % 2 else 1.0
    orientation = -1.0 if (dim - 1) % 2 else 1.0
    return (sign * orientation) * hodge_star(trace_tangential(hodge_star(e)))


def extend_boundary_form(b: FormField, grid: GridSpec,
                         width: float | None = None) -> HalfGridField:
    """Right inverse of the tangential trace: constant in x_N times a bump."""
    if b.grid != boundary_grid(grid):
        raise ValueError("boundary form does not match the target grid")
    width = width if width is not None else 0.5 * grid.half_length
    xn = grid.axis_coords()[: grid.points // 2 + 1]
    with np.errstate(divide="ignore", over="ignore"):
        t = np.clip(np.abs(xn) / width, 0.0, 1.0)
        cutoff = np.where(t < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    lifted = apply_table(sign_table("extend", grid.dim, b.rank), b.data)
    return HalfGridField(grid, b.rank, lifted[..., None] * cutoff)


# ---------------------------------------------------------------------------
# Stokes pairing on the half-box
# ---------------------------------------------------------------------------

def _gregory_weights(grid: GridSpec) -> np.ndarray:
    m = grid.points // 2 + 1
    if m < 7:
        return half_quadrature_weights(grid)
    w = np.ones(m)
    for i, c in enumerate(GREGORY4):
        w[i] = c
        w[-1 - i] = c
    return w


def stokes_pairing_residual(e: HalfGridField, h: HalfGridField,
                            de: HalfGridField, delta_h: HalfGridField,
                            quadrature: str = "gregory4") -> float:
    """|<dE, H> + <E, delta H> - <gamma_t E, gamma_n H>| on the half-box.

    Derivatives must be supplied (analytic for manufactured data).  The
    default volume quadrature is the order-4 end-corrected trapezoid along
    x_N; "trapezoid" selects the plain half-weight closure, which is the
    better choice for reflection-symmetric integrands (its end corrections
    vanish there).
    """
    if e.rank + 1 != h.rank:
        raise ValueError("pairing needs rank(H) = rank(E) + 1")
    grid = e.grid
    amp = max(float(np.abs(e.data).max()), float(np.abs(h.data).max()), 1e-300)
    edge = max(float(np.abs(e.data[..., 0]).max()),
               float(np.abs(h.data[..., 0]).max()))
    if edge > 1e-8 * amp:
        warnings.warn("fields do not vanish at the deep end of the half-box; "
                      "wrap-around may pollute the pairing", stacklevel=2)
    if quadrature == "gregory4":
        w = _gregory_weights(grid)
    elif quadrature == "trapezoid":
        w = half_quadrature_weights(grid)
    else:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    volume = _weighted_inner(de, h, w) + _weighted_inner(e, delta_h, w)
    boundary = l2_inner(trace_tangential(e), trace_normal(h))
    return abs(volume - boundary)


# ---------------------------------------------------------------------------
# normal-derivative reconstruction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _sign_selfcheck() -> bool:
    """Lock the insertion signs against the spectral d and delta (N=2)."""
    from .spectral import (assemble_d, assemble_delta, coderivative_delta,
                           exterior_d, gradient)
    grid = GridSpec(2, 1.0, 16)
    x2 = grid.coord_field(2)
    comp = np.broadcast_to(np.sin(np.pi * x2), grid.shape)
    e = FormField.from_components(grid, 1, {(1,): comp})
    partials = gradient(e)
    d_gap = np.abs(assemble_d(e, partials).data - exterior_d(e).data).max()
    delta_gap = np.abs(assemble_delta(e, partials).data
                       - coderivative_delta(e).data).max()
    if max(d_gap, delta_gap) > 1e-10:
        raise AssertionError("sign bookkeeping inconsistency in the "
                             "normal-derivative formulas")
    return True


def normal_derivative_reconstruct(e: HalfGridField, de: HalfGridField | None,
                                  delta_eps_e: HalfGridField | None,
                                  eps: Transformation,
                                  tangential_partials: dict) -> dict:
    """Recover every first partial of E from dE, delta(eps E) and the
    tangential partials.

    Tangential components get their normal derivative from the d-formula,
    normal components from the delta-formula after removing the material
    terms and inverting the normal block.  Returns {axis: HalfGridField}.
    """
    _sign_selfcheck()
    dim = e.grid.dim
    if de is not None and de.rank != e.rank + 1:
        raise ValueError("dE has inconsistent rank")
    if delta_eps_e is not None and delta_eps_e.rank != e.rank - 1:
        raise ValueError("delta(eps E) has inconsistent rank")
    if de is None and e.rank < dim:
        raise ValueError("dE is required below the top rank")
    if delta_eps_e is None and e.rank > 0:
        raise ValueError("delta(eps E) is required above rank 0")
    tangential = [tangential_partials[j].data for j in range(1, dim)]

    # d_N of the tangential components, from (dE)_{I+N}
    dnorm_tau = np.zeros_like(e.data) if de is None else \
        _solve_normal_terms(sign_table("R", dim, e.rank), de.data, tangential)

    # tangential partials of eps E via the product rule
    eps_partials = [eps.apply_data(p) + eps.partial_data(j, e.data)
                    for j, p in enumerate(tangential, start=1)]

    # d_N of the normal components of eps E, from (delta eps E)_{I-N}
    dnorm_eps_rho = np.zeros_like(e.data) if delta_eps_e is None else \
        _solve_normal_terms(sign_table("T", dim, e.rank), delta_eps_e.data,
                            eps_partials)

    # eps^(rho,rho) d_N E^rho = [d_N(eps E)]^rho - [(d_N eps) E]^rho
    #                            - [eps d_N E^tau]^rho
    rhs = dnorm_eps_rho \
        - eps.partial_data(dim, e.data) \
        - eps.apply_data(dnorm_tau)
    dnorm_rho = eps.solve_normal_data(rhs, e.rank)

    result = {j: tangential_partials[j] for j in range(1, dim)}
    result[dim] = e.with_data(dnorm_tau + dnorm_rho)
    return result


def _solve_normal_terms(table, assembled: np.ndarray,
                        tangential: list) -> np.ndarray:
    """Recover d_N X from an assembled d (R table) or delta (T table).

    A target row whose leading term is on axis N (terms descend in axis)
    reads sign * d_N X_source = assembled_target - its tangential terms,
    which take their partials from ``tangential`` (axes 1 .. N-1).  Sources
    reached by no such row get 0.
    """
    normal_axis = len(tangential)
    out = np.zeros((table.sources,) + assembled.shape[1:], np.complex128)
    for target, row in groupby(table.entries, key=lambda entry: entry[0]):
        (_, source, sign, axis), *rest = row
        if axis != normal_axis:
            continue
        total = assembled[target].copy()
        for _, s, term_sign, f in rest:
            total -= term_sign * tangential[f][s]
        out[source] = sign * total
    return out
