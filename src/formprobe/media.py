"""Admissible material transformations on form fibers.

A transformation acts nodewise on the component vector of a rank-q form
through a real symmetric uniformly positive-definite matrix.  It is kept
as identity-plus-perturbation; a scalar perturbation may carry its closed
form, the one record of its decay order.  Construction verifies symmetry
and positivity and rejects violations with the worst node.  A material
transports under the boundary reflection (x', x_N) -> (x', -x_N) only
(``reflected_transform``), through the node flip and sign vector of
``fields``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (FormField, GridSpec, n_components, normal_mask,
                     reflect_nodes, reflection_signs)
from .spectral import derivative_symbol, fft_nodes, ifft_nodes

IDENTITY = "identity"
SCALAR = "scalar"
DENSE = "dense"


class AdmissibilityError(ValueError):
    """Raised when a candidate transformation fails symmetry or positivity."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class AdmissibilityReport:
    symmetric: bool
    min_rayleigh: float
    max_rayleigh: float
    worst_node: tuple


class PolyRhoGauss:
    """Sum of terms c x^alpha (1 + r^2)^p, times exp(-decay r^2): the one
    closed-form family of the package, closed under differentiation.

    ``terms`` maps an exponent p to {multi-exponent alpha: coefficient}.
    The factor (1 + r^2)^p is not formed at p = 0, nor the envelope at
    decay = 0, so neither multiplies the values by an exact 1.
    """

    def __init__(self, terms: dict, decay: float = 0.0):
        self.decay = float(decay)
        self.terms = {float(p): {tuple(a): complex(c) for a, c in poly.items()
                                 if c != 0}
                      for p, poly in terms.items()}

    def eval(self, grid: GridSpec,
             envelope: np.ndarray | None = None) -> np.ndarray:
        """Values on the grid, in float64 when every coefficient is real.

        A monomial is c times the broadcast coordinate powers, so only its
        last factor is full-size.  A caller evaluating several components
        of one decay on one grid may pass the envelope exp(-decay r^2) it
        made once (``ManufacturedForm.field``).  The values are the same
        bits.
        """
        coords = grid.coord_fields()
        real = all(c.imag == 0.0 for poly in self.terms.values()
                   for c in poly.values())
        dtype = np.float64 if real else np.complex128
        r2 = (grid.radius_sq() if self.terms.keys() - {0.0}
              or self.decay != 0.0 and envelope is None else None)
        out = np.zeros(grid.shape, dtype)
        for p, poly in sorted(self.terms.items()):
            acc = out if p == 0.0 else np.zeros(grid.shape, dtype)
            for alpha, c in sorted(poly.items()):
                term = c.real if real else c
                for ax, a in enumerate(alpha):
                    if a:
                        term = term * coords[ax] ** a
                acc += term
            if p != 0.0:
                out += acc * (1.0 + r2) ** p
        if self.decay == 0.0:
            return out
        # an envelope made here is an unnamed temporary that numpy writes
        # the product into; a named one costs a full-size array more
        return out * (np.exp(-self.decay * r2) if envelope is None else envelope)

    def partial(self, axis: int) -> "PolyRhoGauss":
        """d_axis, term by term: x^(alpha - e) rho^p from the monomial,
        x^(alpha + e) rho^(p - 1) from the rho power and x^(alpha + e) rho^p
        from the envelope."""
        ax = axis - 1
        new: dict = {}

        def add(p, alpha, step, c):
            key = tuple(a + step * (j == ax) for j, a in enumerate(alpha))
            level = new.setdefault(p, {})
            level[key] = level.get(key, 0.0) + c

        for p, poly in self.terms.items():
            for alpha, c in poly.items():
                if alpha[ax] > 0:
                    add(p, alpha, -1, c * alpha[ax])
                if p != 0.0:
                    add(p - 1.0, alpha, 1, 2.0 * p * c)
                if self.decay != 0.0:
                    add(p, alpha, 1, -2.0 * self.decay * c)
        return PolyRhoGauss(new, self.decay)

    def decay_order(self) -> float:
        """The order tau of |d^alpha f| <= C (1+r^2)^(-(tau+|alpha|)/2), for
        every alpha (``partial`` adds one order a term): infinite under a
        decaying envelope (minus infinity under a growing one), else the
        least -2p - |alpha| over the terms (exact when no terms cancel, as
        for every catalog entry)."""
        if self.decay != 0.0:
            return math.copysign(math.inf, self.decay)
        return min((-2.0 * p - sum(alpha) for p, poly in self.terms.items()
                    for alpha in poly), default=math.inf)


@dataclass(frozen=True)
class Transformation:
    """Nodewise symmetric positive-definite map on rank-q fibers.

    ``hat`` stores only the perturbation: full matrices are id + hat.
    Scalar transformations hold a single field and act on any rank.
    ``hat_calculus`` optionally carries the closed-form entry of a scalar
    kind (a ``PolyRhoGauss`` or its reflection, an object with eval,
    partial and decay_order); the entry partials and the decay order are
    then read from it.
    """

    grid: GridSpec
    rank: int | None
    kind: str
    hat: np.ndarray | None = field(default=None, repr=False)
    report: AdmissibilityReport | None = None
    hat_calculus: object | None = field(default=None, repr=False)

    # -- basic queries -------------------------------------------------------

    def is_identity(self) -> bool:
        return self.kind == IDENTITY

    def _check_field(self, e: FormField):
        if e.grid not in (self.grid, self.grid.half_box()):
            raise ValueError("grid mismatch between transformation and field")
        if e.spectral:
            raise ValueError("transformations act on position-space fields")
        if self.rank is not None and e.rank != self.rank:
            raise ValueError(f"transformation is bound to rank {self.rank}, "
                             f"got rank {e.rank}")

    def scalar_field(self) -> np.ndarray:
        """Full scalar coefficient 1 + hat (scalar kind only)."""
        if self.kind != SCALAR:
            raise ValueError("not a scalar transformation")
        return 1.0 + self.hat

    def dense_matrices(self) -> np.ndarray:
        """Full matrices id + hat with shape (nc, nc) + grid.shape."""
        if self.kind != DENSE:
            raise ValueError("not a dense transformation")
        nc = self.hat.shape[0]
        full = self.hat.copy()
        idx = np.arange(nc)
        full[idx, idx] += 1.0
        return full

    # -- action on fields ----------------------------------------------------
    #
    # A field lives on the material's grid or on its half box; the
    # coefficients are cut to the field's nodes (``GridSpec.restrict``).

    def apply(self, e: FormField) -> FormField:
        self._check_field(e)
        if self.kind == IDENTITY:
            return e
        if self.kind == SCALAR:
            return e.with_data(e.data * e.grid.restrict(self.scalar_field()))
        return e.with_data(e.data + np.einsum("ij...,j...->i...",
                                              e.grid.restrict(self.hat), e.data))

    def apply_inverse(self, e: FormField) -> FormField:
        self._check_field(e)
        if self.kind == IDENTITY:
            return e
        if self.kind == SCALAR:
            return e.scale_pointwise(1.0 / e.grid.restrict(self.scalar_field()))
        mats = np.moveaxis(e.grid.restrict(self.dense_matrices()), (0, 1), (-2, -1))
        vec = np.moveaxis(e.data, 0, -1)[..., None]
        sol = np.linalg.solve(mats, vec)[..., 0]
        return e.with_data(np.moveaxis(sol, -1, 0))

    def apply_partial(self, axis: int, e: FormField) -> FormField:
        """(d_axis eps) E."""
        self._check_field(e)
        if self.kind == IDENTITY:
            return e.with_data(np.zeros_like(e.data))
        part = e.grid.restrict(self.partial_array(axis))
        if self.kind == SCALAR:
            return e.with_data(e.data * part)
        return e.with_data(np.einsum("ij...,j...->i...", part, e.data))

    def partial_array(self, axis: int) -> np.ndarray | None:
        """d_axis of the perturbation entries."""
        if self.kind == IDENTITY:
            return None
        return self._partials[axis - 1]

    @cached_property
    def _partials(self) -> np.ndarray:
        """Every axis's partial of the entries, stacked: from the closed
        form if there is one, else one forward transform and one stacked
        inverse (exact for band-limited entries)."""
        dim = self.grid.dim
        if self.hat_calculus is not None:
            return np.stack([np.real(self.hat_calculus.partial(axis).eval(self.grid))
                             for axis in range(1, dim + 1)])
        half = self.grid.half_box()  # the half spectrum of the real entries
        hat = fft_nodes(self.hat, half)
        symbols = [derivative_symbol(half, tuple(int(ax == axis) for ax in range(dim)))
                   for axis in range(dim)]
        return ifft_nodes(np.stack([s * hat for s in symbols]), half)

    def solve_rho_block(self, rhs: FormField) -> FormField:
        """Solve eps^(rho,rho) X^rho = rhs^rho nodewise; X^tau = 0."""
        self._check_field(rhs)
        rho = normal_mask(rhs.grid.dim, rhs.rank)
        out = np.zeros_like(rhs.data)
        if not rho.any():
            return rhs.with_data(out)
        if self.kind == IDENTITY:
            out[rho] = rhs.data[rho]
        elif self.kind == SCALAR:
            out[rho] = rhs.data[rho] / rhs.grid.restrict(self.scalar_field())
        else:
            block = rhs.grid.restrict(self.dense_matrices())[rho][:, rho]
            mats = np.moveaxis(block, (0, 1), (-2, -1))
            eig = np.linalg.eigvalsh(mats)
            worst = float(eig.min())
            if worst < 1e-12:
                node = np.unravel_index(int(np.argmin(eig.min(axis=-1))),
                                        mats.shape[:-2])
                raise AdmissibilityError(
                    f"normal block numerically singular (min eigenvalue "
                    f"{worst:.3e} at node {node}); transformation violates "
                    f"admissibility")
            vec = np.moveaxis(rhs.data[rho], 0, -1)[..., None]
            sol = np.linalg.solve(mats, vec)[..., 0]
            out[rho] = np.moveaxis(sol, -1, 0)
        return rhs.with_data(out)


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------

def _verify_scalar(grid, hat) -> AdmissibilityReport:
    values = 1.0 + hat
    worst = float(values.min())
    node = np.unravel_index(int(np.argmin(values)), grid.shape)
    return AdmissibilityReport(True, worst, float(values.max()), node)


def _verify_dense(grid, hat) -> AdmissibilityReport:
    nc = hat.shape[0]
    sym_gap = float(np.abs(hat - np.swapaxes(hat, 0, 1)).max())
    scale = max(float(np.abs(hat).max()), 1.0)
    symmetric = sym_gap <= 1e-12 * scale
    full = hat.copy()
    idx = np.arange(nc)
    full[idx, idx] += 1.0
    mats = np.moveaxis(full, (0, 1), (-2, -1))
    eig = np.linalg.eigvalsh(mats)
    # eigvalsh of a matrix holding NaN is unspecified: such a node reads NaN
    node_min = np.where(np.isnan(mats).any(axis=(-2, -1)), np.nan, eig.min(axis=-1))
    worst = float(node_min.min())
    node = np.unravel_index(int(np.argmin(node_min)), grid.shape)
    return AdmissibilityReport(symmetric, worst, float(eig.max()), node)


def make_transformation(grid: GridSpec, rank: int | None = None,
                        kind: str = IDENTITY, *, hat=None, hat_calculus=None,
                        positivity_floor: float = 1e-10) -> Transformation:
    """Build and verify a transformation.

    kind "identity" needs nothing; "scalar" takes the perturbation field
    hat (full coefficient is 1 + hat), or evaluates it on the grid from
    its closed-form entry hat_calculus; "dense" takes the perturbation
    matrices hat of shape (nc, nc) + grid.shape for the given rank.
    Non-symmetric or non-positive inputs are rejected with the worst node
    and Rayleigh quotient in the error; a NaN coefficient is not positive.
    """
    if kind == IDENTITY:
        return Transformation(grid, rank, IDENTITY, None,
                              AdmissibilityReport(True, 1.0, 1.0, ()))

    if kind == SCALAR:
        if hat is None:
            hat = np.real(hat_calculus.eval(grid))
        hat = np.broadcast_to(np.asarray(hat, float), grid.shape).copy()
        report = _verify_scalar(grid, hat)
        if not report.min_rayleigh >= positivity_floor:
            raise AdmissibilityError(
                f"positivity violation: coefficient {report.min_rayleigh:.6g} "
                f"at node {report.worst_node}", report)
        return Transformation(grid, rank, SCALAR, hat, report, hat_calculus)
    if kind == DENSE:
        if rank is None:
            raise ValueError("dense transformations need a rank")
        hat = np.asarray(hat, float)
        nc = n_components(grid.dim, rank)
        if hat.shape != (nc, nc) + grid.shape:
            raise ValueError(f"perturbation matrices must have shape "
                             f"{(nc, nc) + grid.shape}, got {hat.shape}")
        report = _verify_dense(grid, hat)
        if not report.min_rayleigh >= positivity_floor:
            raise AdmissibilityError(
                f"positivity violation: Rayleigh quotient "
                f"{report.min_rayleigh:.6g} at node {report.worst_node}", report)
        if not report.symmetric:
            raise AdmissibilityError("symmetry violation in perturbation "
                                     "matrices", report)
        return Transformation(grid, rank, DENSE, hat, report)
    raise ValueError(f"unknown transformation kind {kind!r}")


# ---------------------------------------------------------------------------
# scalar catalog (closed-form coefficients with analytic partials)
# ---------------------------------------------------------------------------

# each catalog entry's parameters and their defaults
CATALOG = {"gauss_well": {"amplitude": 1.0, "width": 1.0},
           "radial_power": {"amplitude": 1.0, "tau": 1.0}}


def scalar_catalog(grid: GridSpec, tag: str, **params) -> Transformation:
    """Fixed catalog of smooth scalar media, each taking the params that
    ``CATALOG`` lists for its tag.

    "gauss_well": 1 + amplitude exp(-width r^2), decays faster than any power.
    "radial_power": 1 + amplitude (1+r^2)^(-tau/2), decay of order tau.
    """
    if tag not in CATALOG or not params.keys() <= CATALOG[tag].keys():
        raise ValueError(f"the scalar catalog takes {CATALOG}, not {tag!r} "
                         f"with {sorted(params)}")
    params = {**CATALOG[tag], **params}
    zero_alpha = (0,) * grid.dim
    if tag == "gauss_well":
        entry = PolyRhoGauss({0.0: {zero_alpha: params["amplitude"]}},
                             params["width"])
    else:
        entry = PolyRhoGauss({-params["tau"] / 2.0: {zero_alpha: params["amplitude"]}})
    return make_transformation(grid, None, SCALAR, hat_calculus=entry)


# ---------------------------------------------------------------------------
# split reconstruction (normal block inversion)
# ---------------------------------------------------------------------------

def reconstruct_from_split(e_tau: FormField, g_rho: FormField,
                           eps: Transformation) -> FormField:
    """Recover E from its tangential part and the normal part of eps E.

    Solves eps^(rho,rho) E^rho = G^rho - (eps E^tau)^rho nodewise and
    returns E = E^tau + E^rho.
    """
    if e_tau.grid != g_rho.grid or e_tau.rank != g_rho.rank:
        raise ValueError("tangential part and normal data must match")
    rho = normal_mask(e_tau.grid.dim, e_tau.rank)
    eps_etau = eps.apply(e_tau)
    rhs = np.zeros_like(g_rho.data)
    rhs[rho] = g_rho.data[rho] - eps_etau.data[rho]
    e_rho = eps.solve_rho_block(g_rho.with_data(rhs))
    return e_tau + e_rho


# ---------------------------------------------------------------------------
# transport under the boundary reflection
# ---------------------------------------------------------------------------

class _Reflected:
    """Closed-form entry mu(x', -x_N) on the periodic box, with the chain
    rule d_N (mu o R) = -(d_N mu) o R and the other partials unchanged."""

    def __init__(self, entry, dim: int, sign: float = 1.0):
        self.entry, self.dim, self.sign = entry, dim, sign

    def eval(self, grid: GridSpec) -> np.ndarray:
        return reflect_nodes(self.entry.eval(grid), self.sign)

    def partial(self, axis: int) -> "_Reflected":
        return _Reflected(self.entry.partial(axis), self.dim,
                          -self.sign if axis == self.dim else self.sign)

    def decay_order(self) -> float:
        return self.entry.decay_order()


def reflected_transform(eps: Transformation) -> Transformation:
    """Transport under the boundary reflection R: (x', x_N) -> (x', -x_N).

    A scalar coefficient moves to 1 + hat(Rx); a dense one to
    D (id + hat(Rx)) D with D the reflection's sign vector, so its
    perturbation is D hat(Rx) D.  The identity transports to itself;
    admissibility is re-verified on the result.
    """
    if eps.kind == IDENTITY:
        return eps
    dim = eps.grid.dim
    if eps.kind == SCALAR:
        calculus = None if eps.hat_calculus is None \
            else _Reflected(eps.hat_calculus, dim)
        return make_transformation(eps.grid, eps.rank, SCALAR,
                                   hat=reflect_nodes(eps.hat), hat_calculus=calculus)
    signs = reflection_signs(dim, eps.rank)
    return make_transformation(eps.grid, eps.rank, DENSE,
                               hat=reflect_nodes(eps.hat, signs[:, None] * signs))
