"""Half-space model domain: mirrors, traces, shifts and reconstructions.

The lower half-box {x_N <= 0} keeps the boundary plane as its last grid
slice.  Quadrature closes the x_N interval with trapezoid half-weights,
which makes the sqrt(2)-isometry of the mirror extension exact.  Nothing
here differentiates one-sidedly: derivatives arrive either analytically
(manufactured data) or after mirror extension to the periodic box.
"""

from __future__ import annotations

import warnings
from itertools import groupby

import numpy as np

from .fields import (FormField, GridSpec, apply_table, hodge_star, l2_inner,
                     normal_mask, reflection_signs, sign_table, weighted_inner)
from .media import Transformation

GREGORY4 = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)


# ---------------------------------------------------------------------------
# restriction and mirror operators
# ---------------------------------------------------------------------------

def restrict_to_half(e: FormField) -> FormField:
    """Keep the nodes with x_N <= 0 (boundary plane included): a read-only
    view of E's data on the half-box grid."""
    half = e.grid.half_box()
    return FormField(half, e.rank, half.restrict(e.data))


def _check_half(e: FormField):
    if not e.grid.half:
        raise ValueError("this operator needs a field on the half box")


def _mirror(e: FormField, signs: np.ndarray) -> FormField:
    """E on the lower half box, signs * E(x', -x_N) above it."""
    _check_half(e)
    m = e.grid.shape[-1]
    box = e.grid.periodic_box()
    out = np.empty((e.data.shape[0],) + box.shape, e.data.dtype)
    out[..., :m] = e.data
    # x_N = h .. L - h from x_N = -h .. -(L - h): nodes (n - k) mod n
    np.multiply(e.data[..., m - 2:0:-1], signs, out=out[..., m:])
    return FormField(box, e.rank, out)


def mirror_Sd(e: FormField) -> FormField:
    """Extend across the plane: even where N is absent, odd where present.

    The upper half is the reflection x_N -> -x_N acting on forms.
    Commutes with d on reflection-compatible fields and doubles the
    squared norm exactly in the grid quadrature.
    """
    return _mirror(e, reflection_signs(e.grid.dim, e.rank))


def mirror_Sdelta(e: FormField) -> FormField:
    """Dual mirror (-1)^(q(N-q)) star Sd star, which commutes with delta:
    the opposite parity, odd where N is absent and even where present."""
    return _mirror(e, -reflection_signs(e.grid.dim, e.rank))


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
    """Pullback by the translation x -> x + step e_axis (grid-aligned step);
    on the half box along the tangential axes only."""
    k = _step_count(e.grid, step)
    if e.grid.half and axis >= e.grid.dim:
        raise ValueError("normal-axis shift is not defined on the half box "
                         "(tangential axes only)")
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


def trace_tangential(e: FormField) -> FormField:
    """Tangential trace: components without N, restricted to x_N = 0."""
    _check_half(e)
    out = e.data[~normal_mask(e.grid.dim, e.rank), ..., -1]
    return FormField(boundary_grid(e.grid), e.rank, out)


def trace_normal(e: FormField) -> FormField:
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
                         width: float | None = None) -> FormField:
    """Right inverse of the tangential trace: constant in x_N times a bump."""
    if b.grid != boundary_grid(grid):
        raise ValueError("boundary form does not match the target grid")
    half = grid.half_box()
    width = width if width is not None else 0.5 * grid.half_length
    xn = half.coord_field(half.dim)
    with np.errstate(divide="ignore", over="ignore"):
        t = np.clip(np.abs(xn) / width, 0.0, 1.0)
        cutoff = np.where(t < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    tangential = ~normal_mask(grid.dim, b.rank)
    lifted = np.zeros(tangential.shape + b.data.shape[1:], b.data.dtype)
    lifted[tangential] = b.data
    return FormField(half, b.rank, lifted[..., None] * cutoff)


# ---------------------------------------------------------------------------
# Stokes pairing on the half-box
# ---------------------------------------------------------------------------

def _gregory_weights(half: GridSpec) -> np.ndarray:
    m = half.shape[-1]
    if m < 7:
        return half.quadrature_weights
    w = np.ones(m)
    for i, c in enumerate(GREGORY4):
        w[i] = c
        w[-1 - i] = c
    return w


def stokes_pairing_residual(e: FormField, h: FormField,
                            de: FormField, delta_h: FormField,
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
    _check_half(e)
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
        w = grid.quadrature_weights
    else:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    volume = weighted_inner(de, h, w) + weighted_inner(e, delta_h, w)
    boundary = l2_inner(trace_tangential(e), trace_normal(h))
    return abs(volume - boundary)


# ---------------------------------------------------------------------------
# normal-derivative reconstruction
# ---------------------------------------------------------------------------

def normal_derivative_reconstruct(e: FormField, de: FormField | None,
                                  delta_eps_e: FormField | None,
                                  eps: Transformation,
                                  tangential_partials: dict) -> dict:
    """Recover every first partial of E from dE, delta(eps E) and the
    tangential partials.

    Tangential components get their normal derivative from the d-formula,
    normal components from the delta-formula after removing the material
    terms and inverting the normal block.  Returns {axis: FormField}.
    """
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
    dnorm_tau = e.with_data(np.zeros_like(e.data) if de is None else
                            _solve_normal_terms(sign_table("R", dim, e.rank),
                                                de.data, tangential))

    # tangential partials of eps E via the product rule
    eps_partials = [(eps.apply(tangential_partials[j]) + eps.apply_partial(j, e)).data
                    for j in range(1, dim)]

    # d_N of the normal components of eps E, from (delta eps E)_{I-N}
    dnorm_eps_rho = e.with_data(np.zeros_like(e.data) if delta_eps_e is None else
                                _solve_normal_terms(sign_table("T", dim, e.rank),
                                                    delta_eps_e.data, eps_partials))

    # eps^(rho,rho) d_N E^rho = [d_N(eps E)]^rho - [(d_N eps) E]^rho
    #                            - [eps d_N E^tau]^rho
    rhs = dnorm_eps_rho - eps.apply_partial(dim, e) - eps.apply(dnorm_tau)
    dnorm_rho = eps.solve_rho_block(rhs)

    result = {j: tangential_partials[j] for j in range(1, dim)}
    result[dim] = dnorm_tau + dnorm_rho
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
    out = np.zeros((table.sources,) + assembled.shape[1:],
                   np.result_type(assembled, *tangential))
    for target, row in groupby(table.entries, key=lambda entry: entry[0]):
        (_, source, sign, axis), *rest = row
        if axis != normal_axis:
            continue
        total = assembled[target].copy()
        for _, s, term_sign, f in rest:
            total -= term_sign * tangential[f][s]
        out[source] = sign * total
    return out
