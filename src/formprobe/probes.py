"""Probe harness: manufactured ensembles, estimate ratios, identity suite.

The regularity statements under test carry non-constructive constants, so
the probes never assert an absolute bound unless an identity pins one;
they report the empirical sup of the left/right norm ratios and check it
is finite and stable under grid doubling.  Reports are deterministic
given (parameters, seed): members are generated from per-index seeds and
aggregated in index order.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bridge as bridge_mod
from .decompose import (hodge_decompose, potential_for_exact,
                        solve_coderivative, split_orthogonality)
from .fields import (FormField, GridSpec, Region, apply_R, apply_T,
                     apply_table, hodge_star, l2_inner, norm, sign_table,
                     split_tangential_normal, wedge)
from .halfspace import (diff_quotient, mirror_Sd, mirror_Sdelta,
                        normal_derivative_reconstruct, restrict_to_half,
                        shift, stokes_pairing_residual, trace_normal,
                        trace_tangential)
from .io import load_transformation
from .manufactured import (gaussian_form, halfspace_member,
                           parity_symmetrized, random_band_limited,
                           random_coclosed, random_dense_media, random_dyadic,
                           trig_catalog_entry)
from .media import (Transformation, make_transformation,
                    reconstruct_from_split, reflected_transform,
                    scalar_catalog)
from .spectral import (coderivative_delta, d_delta_plus_delta_d, exterior_d,
                       fourier, fourier_inverse, gaffney_identity_check,
                       gradient, laplacian, partial_derivative,
                       stokes_duality_residual)
from .weights import (BOLD, ROMAN, NormSpec, annulus_split_bound,
                      rho_power, weighted_sobolev_norm)

PROBE_BOX_HALF_LENGTH = 3.0


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    probe: str
    params: dict
    samples: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    refinement: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.flags.values())

    def to_dict(self) -> dict:
        return {"probe": self.probe, "params": self.params,
                "samples": self.samples, "aggregates": self.aggregates,
                "refinement": self.refinement, "flags": self.flags,
                "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def write_csv(self, path):
        if not self.samples:
            return
        keys = sorted(self.samples[0])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in self.samples:
                writer.writerow({k: row.get(k, "") for k in keys})


def media_from_option(option: str, grid: GridSpec, rank: int,
                      variant: str = "interior", tau: float = 1.0) -> Transformation:
    """Resolve the CLI media selector: id | scalar | file:PATH."""
    if option == "id":
        return make_transformation(grid, rank, "identity")
    if option == "scalar":
        if variant == "weighted":
            return scalar_catalog(grid, "radial_power", amplitude=0.5, tau=tau)
        return scalar_catalog(grid, "gauss_well", amplitude=1.0, width=1.0)
    if option.startswith("file:"):
        eps = load_transformation(option[5:])
        if eps.grid != grid:
            raise ValueError(f"media file grid {eps.grid} does not match the "
                             f"probe grid {grid}")
        return eps
    raise ValueError(f"unknown media option {option!r}")


# ---------------------------------------------------------------------------
# estimate probes
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    # zero fields are assigned ratio 0 by convention
    return 0.0 if denominator == 0.0 else numerator / denominator


def _member_spectra(e: FormField, eps: Transformation) -> tuple:
    """F(E), F(dE) and F(delta(eps E)) from one transform of E.

    A non-identity material costs one more transform, of eps E.  The
    derivative slots are None at the rank where the operator is undefined.
    """
    hat = fourier(e)
    de = exterior_d(hat) if e.rank < e.grid.dim else None
    delta_eps = None
    if e.rank > 0:
        delta_eps = coderivative_delta(hat if eps.is_identity()
                                       else fourier(eps.apply(e)))
    return hat, de, delta_eps


def _interior_sample(e: FormField, eps: Transformation, order: int,
                     weight: float, scale: str) -> tuple:
    """The member's ratio row and its spectra (see ``_member_spectra``)."""
    spectra = _member_spectra(e, eps)
    hat, de, delta_eps = spectra
    data_weight = weight + 1 if scale == BOLD else weight
    numerator = weighted_sobolev_norm(hat, NormSpec(order + 1, weight, scale))
    denominator = norm(e, weight)
    if de is not None:
        denominator += weighted_sobolev_norm(de, NormSpec(order, data_weight, scale))
    if delta_eps is not None:
        denominator += weighted_sobolev_norm(delta_eps,
                                             NormSpec(order, data_weight, scale))
    row = {"numerator": numerator, "denominator": denominator,
           "ratio": _ratio(numerator, denominator)}
    return row, spectra


def _run_ratio_probe(probe: str, variant_scale: str, dim: int, rank: int,
                     order: int, weight: float, eps_option: str, tau: float,
                     ensemble: int, grid_points: int, seed: int,
                     gaffney_pinned_bound: float | None) -> ProbeReport:
    grid = GridSpec(dim, PROBE_BOX_HALF_LENGTH, grid_points)
    fine = GridSpec(dim, PROBE_BOX_HALF_LENGTH, 2 * grid_points)
    eps = media_from_option(eps_option, grid, rank,
                            "weighted" if variant_scale == BOLD else "interior",
                            tau)
    eps_fine = media_from_option(eps_option, fine, rank,
                                 "weighted" if variant_scale == BOLD else "interior",
                                 tau)
    report = ProbeReport(
        probe=probe,
        params={"dim": dim, "rank": rank, "order": order, "weight": weight,
                "tau": tau, "media": eps_option, "ensemble": ensemble,
                "grid": grid_points, "seed": seed,
                "box_half_length": PROBE_BOX_HALF_LENGTH})
    sup = 0.0
    total = 0.0
    sup_fine = 0.0
    for i in range(ensemble):
        member = gaussian_form(grid, rank, seed + 1000 * i, decay=3.0)
        row = _interior_sample(member.field(), eps, order, weight,
                               variant_scale)[0]
        row["index"] = i
        report.samples.append(row)
        sup = max(sup, row["ratio"])
        total += row["ratio"]
        member_fine = gaussian_form(fine, rank, seed + 1000 * i, decay=3.0)
        fine_row = _interior_sample(member_fine.field(), eps_fine, order,
                                    weight, variant_scale)[0]
        sup_fine = max(sup_fine, fine_row["ratio"])
    drift = abs(sup - sup_fine) / max(sup_fine, 1e-300)
    report.aggregates = {"sup_ratio": sup, "mean_ratio": total / max(ensemble, 1),
                         "sup_ratio_refined": sup_fine}
    report.refinement = {"grid": grid_points, "grid_refined": 2 * grid_points,
                         "sup_drift": drift}
    report.flags["ratios_finite"] = all(math.isfinite(s["ratio"])
                                        for s in report.samples)
    report.flags["stable_under_doubling"] = drift <= 0.10
    if gaffney_pinned_bound is not None:
        report.flags["gaffney_pinned_bound"] = sup <= gaffney_pinned_bound
    if variant_scale == BOLD:
        diags = []
        probe_field = gaussian_form(grid, rank, seed, decay=3.0).field()
        for theta in (1.0, 2.0):
            diags.append(annulus_split_bound(probe_field, weight,
                                             tau if tau > 0 else 1.0, theta))
        report.aggregates["annulus_diagnostics"] = diags
        report.flags["annulus_split_holds"] = all(d["holds"] for d in diags)
    return report


def estimate_probe_interior(dim: int, rank: int, order: int, weight: float,
                            media: str = "id", ensemble: int = 50,
                            grid_points: int = 32, seed: int = 0) -> ProbeReport:
    """Ratio probe for the unweighted-derivative estimate.

    For identity media at order 0 and weight 0 the ratio is pinned by the
    Gaffney identity, so a hard bound of 1.5 is asserted there; everywhere
    else only finiteness and doubling stability are flagged.
    """
    pinned = 1.5 if (media == "id" and order == 0 and weight == 0.0) else None
    return _run_ratio_probe("estimate-interior", ROMAN, dim, rank, order,
                            weight, media, 1.0, ensemble, grid_points, seed,
                            pinned)


def estimate_probe_weighted(dim: int, rank: int, order: int, weight: float,
                            tau: float, media: str = "scalar",
                            ensemble: int = 50, grid_points: int = 32,
                            seed: int = 0) -> ProbeReport:
    """Ratio probe with weight gain on the data side (strong scale)."""
    if tau <= 0:
        raise ValueError("the weighted estimate requires decay order tau > 0")
    return _run_ratio_probe("estimate-weighted", BOLD, dim, rank, order,
                            weight, media, tau, ensemble, grid_points, seed,
                            None)


def validate_halfspace_member(e: FormField, tol: float = 1e-10) -> float:
    """Reject ensemble members whose tangential trace is not numerically zero."""
    rel = norm_of_trace(e) / max(norm(e), 1e-300)
    if rel > tol:
        raise ValueError(f"ensemble member violates the vanishing tangential "
                         f"trace: relative trace norm {rel:.3e} > {tol:.1e}")
    return rel


def norm_of_trace(e: FormField) -> float:
    if e.rank >= e.grid.dim:
        return 0.0  # top-rank forms have no tangential boundary components
    return norm(trace_tangential(restrict_to_half(e)))


def halfspace_probe(dim: int, rank: int, order: int, media: str = "id",
                    ensemble: int = 20, grid_points: int = 48,
                    seed: int = 0) -> ProbeReport:
    """Ratio probe on the half-space model with homogeneous tangential trace.

    Members have trace-free parity, so every norm on the half-grid is half
    the periodic-box norm and the ratio can be evaluated on the full grid.
    Each member also runs the normal-derivative reconstruction and the
    Stokes pairing as self-consistency checks.  With non-identity media the
    reconstruction inputs involve spectral derivatives of the material
    product, which the default grid (48 points at the default member band
    limit) keeps resolved; coarser grids may honestly fail that flag.
    """
    grid = GridSpec(dim, PROBE_BOX_HALF_LENGTH, grid_points)
    fine = GridSpec(dim, PROBE_BOX_HALF_LENGTH, 2 * grid_points)
    eps = media_from_option(media, grid, rank, "interior")
    eps_fine = media_from_option(media, fine, rank, "interior")
    kmax = max(grid_points // 8, 2)  # fixed band limit across the doubling
    report = ProbeReport(
        probe="estimate-halfspace",
        params={"dim": dim, "rank": rank, "order": order, "media": media,
                "ensemble": ensemble, "grid": grid_points, "seed": seed,
                "box_half_length": PROBE_BOX_HALF_LENGTH})
    sup = 0.0
    total = 0.0
    sup_fine = 0.0
    worst_reconstruct = 0.0
    worst_stokes = 0.0

    def member_ratio(g, material, i):
        e = halfspace_member(g, rank, seed + 1000 * i, envelope_decay=2.5,
                             kmax=kmax)
        trace_rel = validate_halfspace_member(e)
        row, spectra = _interior_sample(e, material, order, 0.0, ROMAN)
        row.update(index=i, trace_norm_rel=trace_rel)
        return e, spectra, row

    def checked_sample(i):
        # the member's spectra are dropped before the refined member is built
        e, (hat, de_hat, delta_eps_hat), row = member_ratio(grid, eps, i)
        de = fourier_inverse(de_hat) if de_hat is not None else None
        row["reconstruct_residual"] = _reconstruction_residual(
            e, eps, hat, de, delta_eps_hat)
        row["stokes_residual"] = _member_stokes_residual(e, de)
        return row

    for i in range(ensemble):
        row = checked_sample(i)
        report.samples.append(row)
        sup = max(sup, row["ratio"])
        total += row["ratio"]
        worst_reconstruct = max(worst_reconstruct, row["reconstruct_residual"])
        worst_stokes = max(worst_stokes, row["stokes_residual"])
        sup_fine = max(sup_fine, member_ratio(fine, eps_fine, i)[2]["ratio"])
    drift = abs(sup - sup_fine) / max(sup_fine, 1e-300)
    report.aggregates = {"sup_ratio": sup,
                         "mean_ratio": total / max(ensemble, 1),
                         "sup_ratio_refined": sup_fine,
                         "worst_reconstruct_residual": worst_reconstruct,
                         "worst_stokes_residual": worst_stokes}
    report.refinement = {"grid": grid_points, "grid_refined": 2 * grid_points,
                         "sup_drift": drift}
    report.flags["ratios_finite"] = all(math.isfinite(s["ratio"])
                                        for s in report.samples)
    report.flags["stable_under_doubling"] = drift <= 0.10
    report.flags["traces_vanish"] = all(s["trace_norm_rel"] <= 1e-10
                                        for s in report.samples)
    report.flags["reconstruction_consistent"] = worst_reconstruct <= 1e-8
    report.flags["stokes_residual_small"] = worst_stokes <= 1e-6
    return report


def _reconstruction_residual(e: FormField, eps: Transformation,
                             hat: FormField, de: FormField | None,
                             delta_eps_hat: FormField | None) -> float:
    """Assembled normal derivative against the spectral one, on the half-grid.

    Takes the member's spectra: F(E), dE in position space and F(delta(eps E)).
    """
    parts = {j: fourier_inverse(p) for j, p in gradient(hat).items()}
    half_de = restrict_to_half(de) if de is not None else None
    delta_eps_e = restrict_to_half(fourier_inverse(delta_eps_hat)) \
        if delta_eps_hat is not None else None
    half_parts = {j: restrict_to_half(parts[j]) for j in range(1, e.grid.dim)}
    rec = normal_derivative_reconstruct(restrict_to_half(e), half_de,
                                        delta_eps_e, eps, half_parts)
    direct = restrict_to_half(parts[e.grid.dim])
    scale = max(norm(direct), 1e-300)
    return norm(rec[e.grid.dim] - direct) / scale


def _member_stokes_residual(e: FormField, de: FormField | None) -> float:
    """Pairing residual with H = dE; the exact value is 0 (gamma_t E = 0)."""
    if e.rank >= e.grid.dim:
        return 0.0
    with warnings.catch_warnings():
        # parity makes the trapezoid closure exact; deep-end tails are moot
        warnings.simplefilter("ignore")
        residual = stokes_pairing_residual(restrict_to_half(e),
                                           restrict_to_half(de),
                                           restrict_to_half(de),
                                           restrict_to_half(coderivative_delta(de)),
                                           quadrature="trapezoid")
    scale = max(norm(de) ** 2, 1e-300)
    return residual / scale


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _record(checks: list, name: str, residual: float, tolerance: float,
            mode: str = "le"):
    ok = residual >= tolerance if mode == "ge" else residual <= tolerance
    checks.append({"name": name, "residual": float(residual),
                   "tolerance": float(tolerance), "mode": mode,
                   "pass": bool(ok)})


def _rel_norm(a: FormField, b: FormField) -> float:
    scale = max(norm(a), norm(b), 1e-300)
    return norm(a - b) / scale


def _suite_fields(grid: GridSpec, seed: int) -> dict:
    return {q: random_band_limited(grid, q, seed + 17 * q)
            for q in range(grid.dim + 1)}


def _check_pointwise_algebra(checks, grid, exact_grid, seed):
    dim = grid.dim
    # wedge anticommutativity: exact on integer data (complex FMA breaks
    # bitwise commutativity of generic products); double star: exact always
    worst_wedge = 0.0
    worst_star = 0.0
    fields = _suite_fields(grid, seed)
    for p in range(dim + 1):
        for q in range(dim + 1 - p):
            ef = random_dyadic(exact_grid, p, seed + 11 * p + q, bits=12)
            ff = random_dyadic(exact_grid, q, seed + 5 + p + 13 * q, bits=12)
            sign = -1.0 if (p * q) % 2 else 1.0
            gap = np.abs(wedge(ef, ff).data - sign * wedge(ff, ef).data).max()
            worst_wedge = max(worst_wedge, float(gap))
    for q in range(dim + 1):
        e = fields[q]
        sign = -1.0 if (q * (dim - q)) % 2 else 1.0
        gap = np.abs(hodge_star(hodge_star(e)).data - sign * e.data).max()
        worst_star = max(worst_star, float(gap))
    _record(checks, "wedge-graded-anticommutativity", worst_wedge, 0.0)
    _record(checks, "hodge-star-double-identity", worst_star, 0.0)

    # R/T algebra: exact on integer-valued fields, 1e-12 on generic ones
    worst_rr = worst_tt = 0.0
    worst_rt = worst_adj = 0.0
    for q in range(dim + 1):
        dyadic = random_dyadic(exact_grid, q, seed + q)
        if q + 2 <= dim:
            worst_rr = max(worst_rr,
                           float(np.abs(apply_R(apply_R(dyadic)).data).max()))
        if q >= 2:
            worst_tt = max(worst_tt,
                           float(np.abs(apply_T(apply_T(dyadic)).data).max()))
        e = fields[q]
        r2e = e.scale_pointwise(grid.radius_sq())
        parts = []
        if q < dim:
            parts.append(apply_T(apply_R(e)))
        if q > 0:
            parts.append(apply_R(apply_T(e)))
        total = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        worst_rt = max(worst_rt, _rel_norm(total, r2e))
        if q < dim:
            h = fields[q + 1]
            lhs = l2_inner(apply_R(e), h)
            rhs = l2_inner(e, apply_T(h))
            scale = max(norm(apply_R(e)) * norm(h), 1e-300)
            worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
    _record(checks, "operator-algebra-RR-zero", worst_rr, 0.0)
    _record(checks, "operator-algebra-TT-zero", worst_tt, 0.0)
    _record(checks, "operator-algebra-RT-plus-TR", worst_rt, 1e-12)
    _record(checks, "fiber-adjointness-R-T", worst_adj, 1e-12)

    # tangential/normal split: exact resum, exact orthogonality, idempotent
    worst_split = 0.0
    for q in range(dim + 1):
        e = fields[q]
        tau_part, rho_part = split_tangential_normal(e)
        worst_split = max(worst_split,
                          float(np.abs((tau_part + rho_part - e).data).max()),
                          abs(l2_inner(tau_part, rho_part)),
                          float(np.abs(split_tangential_normal(tau_part)[1].data).max()))
    _record(checks, "tangential-normal-split", worst_split, 0.0)


def _check_spectral(checks, grid, seed):
    dim = grid.dim
    fields = _suite_fields(grid, seed + 101)
    worst_unit = worst_starcomm = 0.0
    worst_d = worst_delta = worst_lap = 0.0
    worst_dd = worst_deldel = worst_hodgelap = 0.0
    worst_gaffney = worst_duality = worst_monomial = 0.0
    for q in range(dim + 1):
        e = fields[q]
        hat = fourier(e)
        worst_unit = max(worst_unit, abs(norm(hat) / max(norm(e), 1e-300) - 1.0))
        worst_unit = max(worst_unit, _rel_norm(fourier_inverse(hat), e))
        worst_starcomm = max(worst_starcomm,
                             float(np.abs(fourier(hodge_star(e)).data
                                          - hodge_star(hat).data).max()))
        if q < dim:
            de = exterior_d(e)
            worst_d = max(worst_d, _rel_norm(fourier(de),
                                             1j * apply_R(hat)))
            if q + 2 <= dim:
                worst_dd = max(worst_dd, norm(exterior_d(de)) / max(norm(e), 1e-300))
            h = fields[q + 1]
            worst_duality = max(worst_duality, stokes_duality_residual(e, h))
        if q > 0:
            delta_e = coderivative_delta(e)
            worst_delta = max(worst_delta,
                              _rel_norm(fourier(delta_e),
                                        1j * apply_T(hat)))
            if q >= 2:
                worst_deldel = max(worst_deldel,
                                   norm(coderivative_delta(delta_e))
                                   / max(norm(e), 1e-300))
        lap = laplacian(e)
        worst_lap = max(worst_lap,
                        _rel_norm(fourier(lap),
                                  hat.with_data(-grid.freq_radius_sq() * hat.data)))
        worst_hodgelap = max(worst_hodgelap, _rel_norm(d_delta_plus_delta_d(e), lap))
        worst_gaffney = max(worst_gaffney, gaffney_identity_check(e).relative_gap)
        # monomial derivative rule d^alpha <-> (i xi)^alpha up to order 3
        for alpha_axis, order in ((1, 1), (min(2, dim), 2), (dim, 3)):
            deriv = e
            for _ in range(order):
                deriv = partial_derivative(deriv, alpha_axis)
            xi = grid.freq_field(alpha_axis)
            direct = fourier(deriv)
            expected = hat.with_data(((1j * xi) ** order) * hat.data)
            worst_monomial = max(worst_monomial, _rel_norm(direct, expected))
    _record(checks, "fourier-unitarity", worst_unit, 1e-12)
    _record(checks, "fourier-star-commutation", worst_starcomm, 0.0)
    _record(checks, "intertwining-d", worst_d, 1e-12)
    _record(checks, "intertwining-delta", worst_delta, 1e-12)
    _record(checks, "intertwining-laplacian", worst_lap, 1e-12)
    _record(checks, "complex-dd-zero", worst_dd, 1e-12)
    _record(checks, "complex-delta-delta-zero", worst_deldel, 1e-12)
    _record(checks, "laplacian-equals-d-delta-sum", worst_hodgelap, 1e-12)
    _record(checks, "gaffney-identity", worst_gaffney, 1e-10)
    _record(checks, "weak-stokes-duality", worst_duality, 1e-12)
    _record(checks, "fourier-monomial-derivatives", worst_monomial, 1e-12)


def _check_weights(checks, dim, seed):
    # the commutator needs the weight pole resolved: fixed adequate grid
    grid = GridSpec(min(dim, 3), 3.0, 64)
    worst_d = worst_delta = 0.0
    for q in range(grid.dim + 1):
        member = gaussian_form(grid, q, seed + 3 * q, decay=3.0)
        e = member.field()
        for s in (-2.0, 1.0):
            weight = rho_power(grid, s)
            weighted = e.scale_pointwise(weight)
            correction = s * rho_power(grid, s - 2.0)
            if q < grid.dim:
                lhs = exterior_d(weighted)
                rhs = exterior_d(e).scale_pointwise(weight) \
                    + apply_R(e).scale_pointwise(correction)
                worst_d = max(worst_d, _rel_norm(lhs, rhs))
            if q > 0:
                lhs = coderivative_delta(weighted)
                rhs = coderivative_delta(e).scale_pointwise(weight) \
                    + apply_T(e).scale_pointwise(correction)
                worst_delta = max(worst_delta, _rel_norm(lhs, rhs))
    _record(checks, "weight-commutator-d", worst_d, 1e-8)
    _record(checks, "weight-commutator-delta", worst_delta, 1e-8)

    # norm ordering and the annulus splitting inequality
    violation = 0.0
    annulus_ok = True
    small = GridSpec(min(dim, 3), 3.0, 32)
    for q in (0, min(1, small.dim)):
        e = gaussian_form(small, q, seed + 7 * q, decay=3.0).field()
        for s in (-1.0, 0.0, 1.0):
            for m in (0, 1):
                bold = weighted_sobolev_norm(e, NormSpec(m, s, BOLD))
                roman = weighted_sobolev_norm(e, NormSpec(m, s, ROMAN))
                low = weighted_sobolev_norm(e, NormSpec(m, s - m, BOLD))
                violation = max(violation, roman - bold, low - roman)
        for theta in (1.0, 2.0):
            for tau in (0.5, 1.0, 2.0):
                annulus_ok &= annulus_split_bound(e, 0.0, tau, theta)["holds"]
    _record(checks, "weighted-norm-ordering", max(violation, 0.0), 1e-12)
    _record(checks, "annulus-splitting-bound", 0.0 if annulus_ok else 1.0, 0.0)


def _check_media(checks, grid, exact_grid, seed):
    dim = grid.dim
    fields = _suite_fields(grid, seed + 211)
    eps_scalar = scalar_catalog(grid, "gauss_well", amplitude=1.0, width=1.0)
    worst_sym = worst_inv = worst_reflect = worst_recon = 0.0
    for q in range(dim + 1):
        e, h = fields[q], _suite_fields(grid, seed + 503)[q]
        lhs = l2_inner(eps_scalar.apply(e), h)
        rhs = l2_inner(e, eps_scalar.apply(h))
        worst_sym = max(worst_sym,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        worst_inv = max(worst_inv,
                        _rel_norm(eps_scalar.apply_inverse(eps_scalar.apply(e)), e))
        twice = reflected_transform(reflected_transform(eps_scalar, q), q)
        worst_reflect = max(worst_reflect,
                            float(np.abs(twice.hat - eps_scalar.hat).max()))
        tau_part, _ = split_tangential_normal(e)
        g_rho = split_tangential_normal(eps_scalar.apply(e))[1]
        worst_recon = max(worst_recon,
                          _rel_norm(reconstruct_from_split(tau_part, g_rho,
                                                           eps_scalar), e))
    _record(checks, "media-symmetric-pairing", worst_sym, 1e-12)
    _record(checks, "media-inverse-roundtrip", worst_inv, 1e-12)
    _record(checks, "media-reflection-involution", worst_reflect, 1e-12)
    _record(checks, "split-reconstruction-roundtrip", worst_recon, 1e-10)

    # difference-quotient product rule and anti-duality: exact on dyadic data
    h_step = exact_grid.spacing
    worst_rule = worst_dual = 0.0
    rng = np.random.default_rng(seed + 7)
    for q in (0, min(1, dim)):
        f = random_dyadic(exact_grid, q, seed + q, bits=10)
        g = random_dyadic(exact_grid, q, seed + 91 * (q + 1), bits=10)
        mu_full = 1.0 + rng.integers(1, 2 ** 8, size=exact_grid.shape).astype(float)
        lhs = diff_quotient(f.scale_pointwise(mu_full), 1, h_step)
        quot_mu = (np.roll(mu_full, -1, axis=0) - mu_full) / h_step
        rhs = diff_quotient(f, 1, h_step).scale_pointwise(mu_full) \
            + shift(f, 1, h_step).scale_pointwise(quot_mu)
        worst_rule = max(worst_rule, float(np.abs((lhs - rhs).data).max()))
        pair = l2_inner(diff_quotient(f, 1, h_step), g) \
            + l2_inner(f, diff_quotient(g, 1, -h_step))
        worst_dual = max(worst_dual, abs(pair))
    _record(checks, "difference-quotient-product-rule", worst_rule, 0.0)
    _record(checks, "difference-quotient-anti-duality", worst_dual, 0.0)

    # first-order convergence of the difference quotient on the catalog
    rate_grid = GridSpec(min(dim, 2), 1.0, 64)
    worst_rate = 0.0
    for idx in range(2):
        entry = trig_catalog_entry(rate_grid, 0, idx)
        e = entry.field()
        exact = entry.partial(1).field()
        err = [norm(diff_quotient(e, 1, k * rate_grid.spacing) - exact)
               for k in (2, 1)]
        ratio = err[0] / max(err[1], 1e-300)
        worst_rate = max(worst_rate, abs(ratio - 2.0))
    _record(checks, "difference-quotient-first-order-rate", worst_rate, 0.2)


def _check_halfspace(checks, grid, seed):
    dim = grid.dim
    worst_iso = worst_parity = worst_support = 0.0
    worst_dcomm = worst_deltacomm = 0.0
    for q in range(dim + 1):
        base = random_band_limited(grid, q, seed + 31 * q)
        mirror_compatible = parity_symmetrized(base, "mirror")
        half = restrict_to_half(mirror_compatible)
        extended = mirror_Sd(half)
        worst_iso = max(worst_iso,
                        abs(norm(extended) ** 2 - 2.0 * norm(half) ** 2)
                        / max(norm(extended) ** 2, 1e-300))
        worst_parity = max(worst_parity,
                           float(np.abs(extended.data
                                        - mirror_compatible.data).max())
                           / max(float(np.abs(extended.data).max()), 1e-300))
        if q < dim:
            worst_dcomm = max(worst_dcomm,
                              _rel_norm(exterior_d(extended),
                                        mirror_Sd(restrict_to_half(
                                            exterior_d(mirror_compatible)))))
        dual_compatible = parity_symmetrized(base, "trace-free")
        dual_half = restrict_to_half(dual_compatible)
        dual_ext = mirror_Sdelta(dual_half)
        if q > 0:
            worst_deltacomm = max(worst_deltacomm,
                                  _rel_norm(coderivative_delta(dual_ext),
                                            mirror_Sdelta(restrict_to_half(
                                                coderivative_delta(dual_compatible)))))
        # support containment on masks
        ball = Region(grid, "ball", radius=grid.half_length / 2)
        mask = ball.mask() & (grid.coord_field(dim) <= 0)
        masked = mirror_compatible.scale_pointwise(mask.astype(float))
        outside = ~ball.mask()
        leak = np.abs(mirror_Sd(restrict_to_half(masked)).data[:, outside])
        worst_support = max(worst_support, float(leak.max()) if leak.size else 0.0)
    _record(checks, "mirror-sqrt2-isometry", worst_iso, 1e-12)
    _record(checks, "mirror-parity-structure", worst_parity, 0.0)
    _record(checks, "mirror-support-containment", worst_support, 0.0)
    _record(checks, "mirror-d-commutation", worst_dcomm, 1e-8)
    _record(checks, "mirror-delta-commutation", worst_deltacomm, 1e-8)

    # traces: boundary-derivative commutation and the data bijection
    worst_trace = worst_bijection = 0.0
    for q in range(dim):
        e = random_band_limited(grid, q, seed + 77 * (q + 1))
        half = restrict_to_half(e)
        traced = trace_tangential(half)
        if q < dim - 1:
            lhs = exterior_d(traced)
            rhs = trace_tangential(restrict_to_half(exterior_d(e)))
            worst_trace = max(worst_trace, _rel_norm(lhs, rhs))
        plane = half.data[..., -1]
        rebuilt = apply_table(sign_table("extend", dim, q), traced.data)
        if q >= 1:
            # invert gamma_n = sign * star_b(gamma_t(star E)) with the double
            # star rules: E^rho = sign' * star(extension of star_b(gamma_n E))
            sign = -1.0 if ((q - 1) * dim + (dim - 1) + (dim - q)) % 2 else 1.0
            lifted = apply_table(sign_table("extend", dim, dim - q),
                                 hodge_star(trace_normal(half)).data)
            rebuilt = rebuilt + sign * apply_table(sign_table("star", dim, dim - q),
                                                   lifted)
        worst_bijection = max(worst_bijection,
                              float(np.abs(rebuilt - plane).max())
                              / max(float(np.abs(plane).max()), 1e-300))
    _record(checks, "trace-d-commutation", worst_trace, 1e-8)
    _record(checks, "trace-data-bijection", worst_bijection, 1e-12)


def _check_stokes(checks, dim, seed):
    use_dim = min(dim, 3)
    residuals = {}
    for n in (32, 64):
        grid = GridSpec(use_dim, 3.0, n)
        e_m = gaussian_form(grid, 0, seed + 5, decay=2.5)
        h_m = gaussian_form(grid, 1, seed + 6, decay=2.5)
        residuals[n] = stokes_pairing_residual(
            restrict_to_half(e_m.field()), restrict_to_half(h_m.field()),
            restrict_to_half(e_m.d().field()),
            restrict_to_half(h_m.delta().field()))
    factor = residuals[32] / max(residuals[64], 1e-300)
    _record(checks, "stokes-pairing-refinement-factor", factor, 8.0, mode="ge")

    # vanishing tangential trace by odd/even symmetrization: the trapezoid
    # closure has no end corrections for these reflection-symmetric members
    grid = GridSpec(use_dim, 3.0, 32)
    worst = 0.0
    for q in range(use_dim):
        e = halfspace_member(grid, q, seed + 8 + q, envelope_decay=2.5)
        h = halfspace_member(grid, q + 1, seed + 9 + q, envelope_decay=2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = stokes_pairing_residual(
                restrict_to_half(e), restrict_to_half(h),
                restrict_to_half(exterior_d(e)),
                restrict_to_half(coderivative_delta(h)),
                quadrature="trapezoid")
        worst = max(worst, res / max(norm(e) * norm(h), 1e-300))
    _record(checks, "stokes-pairing-trace-free-members", worst, 1e-8)


def _check_reconstruction(checks, dim, seed):
    use_dim = min(dim, 3)
    grid = GridSpec(use_dim, 3.0, 32)
    worst = 0.0
    for q in range(use_dim + 1):
        e = random_band_limited(grid, q, seed + 13 * q)
        eps = random_dense_media(grid, q, seed + 29 * (q + 1), amplitude=0.4)
        parts = gradient(e)
        de = restrict_to_half(exterior_d(e)) if q < use_dim else None
        delta_eps = restrict_to_half(coderivative_delta(eps.apply(e))) \
            if q > 0 else None
        half_parts = {j: restrict_to_half(parts[j]) for j in range(1, use_dim)}
        rec = normal_derivative_reconstruct(restrict_to_half(e), de,
                                            delta_eps, eps, half_parts)
        direct = restrict_to_half(parts[use_dim])
        worst = max(worst, norm(rec[use_dim] - direct)
                    / max(norm(direct), 1e-300))
    _record(checks, "normal-derivative-reconstruction", worst, 1e-8)


def _check_decomposition(checks, grid, seed):
    dim = grid.dim
    worst_resum = worst_orth = worst_closed = worst_idem = 0.0
    worst_pot = worst_solver = worst_sg = 0.0
    for q in range(dim + 1):
        e = random_band_limited(grid, q, seed + 41 * q)
        split = hodge_decompose(e)
        worst_resum = max(worst_resum, _rel_norm(split.resum(), e))
        worst_orth = max(worst_orth, split_orthogonality(split))
        scale = max(norm(e), 1e-300)
        if q < dim:
            worst_closed = max(worst_closed,
                               norm(exterior_d(split.exact_part)) / scale)
        if q > 0:
            worst_closed = max(worst_closed,
                               norm(coderivative_delta(split.coexact_part)) / scale)
        again = hodge_decompose(split.exact_part)
        worst_idem = max(worst_idem, _rel_norm(again.exact_part, split.exact_part))
        worst_idem = max(worst_idem, norm(again.coexact_part) / scale)
        if q > 0:
            phi = potential_for_exact(split.exact_part)
            worst_pot = max(worst_pot,
                            norm(exterior_d(phi) - split.exact_part) / scale)
        if q < dim:
            coclosed = random_coclosed(grid, q, seed + 83 * (q + 1))
            if norm(coclosed) > 0:
                sol = solve_coderivative(coclosed)
                worst_solver = max(worst_solver, sol.residual)
                gr = gaffney_identity_check(sol.potential)
                worst_sg = max(worst_sg, gr.relative_gap)
    _record(checks, "hodge-split-resum", worst_resum, 1e-12)
    _record(checks, "hodge-split-orthogonality", worst_orth, 1e-10)
    _record(checks, "hodge-split-closed-coclosed", worst_closed, 1e-10)
    _record(checks, "hodge-projector-idempotence", worst_idem, 1e-12)
    _record(checks, "potential-roundtrip", worst_pot, 1e-10)
    _record(checks, "coderivative-solver-residual", worst_solver, 1e-10)
    _record(checks, "solver-gaffney-consistency", worst_sg, 1e-8)


def _check_bridge(checks, seed):
    grid = GridSpec(3, 3.0, 32)
    worst = 0.0
    exact_roundtrip = True
    for i in range(3):
        v = bridge_mod.VectorFieldN3(
            grid, np.stack([random_band_limited(grid, 0, seed + 3 * i + j).data[0]
                            for j in range(3)]))
        res = bridge_mod.bridge_residuals(v)
        worst = max(worst, max(res.values()))
        exact_roundtrip &= bridge_mod.roundtrip_exact(v)
    _record(checks, "bridge-dictionary", worst, 1e-10)
    _record(checks, "bridge-roundtrip-exact", 0.0 if exact_roundtrip else 1.0, 0.0)


def run_identity_suite(dim: int, grid_points: int = 32, seed: int = 0) -> ProbeReport:
    """Run every module invariant and report one pass/fail line each.

    Floating-point identities run on the requested grid (box half-length
    3).  Exactness checks run on a fixed dyadic grid (L = 1, n = 32; n = 16
    at N = 4) where integer-valued data keeps the arithmetic exact, and the
    weight commutator runs on the fixed grid that resolves the weight
    (n = 64).
    """
    if dim > 4:
        raise ValueError("identity suite is sized for dimensions up to 4")
    grid = GridSpec(dim, 3.0, grid_points)
    exact_grid = GridSpec(dim, 1.0, 16 if dim >= 4 else 32)
    checks: list = []
    _check_pointwise_algebra(checks, grid, exact_grid, seed)
    _check_spectral(checks, grid, seed)
    _check_weights(checks, dim, seed)
    _check_media(checks, grid, exact_grid, seed)
    _check_halfspace(checks, grid, seed)
    _check_stokes(checks, dim, seed)
    _check_reconstruction(checks, dim, seed)
    _check_decomposition(checks, grid, seed)
    if dim == 3:
        _check_bridge(checks, seed)
    report = ProbeReport(
        probe="identities",
        params={"dim": dim, "grid": grid_points, "seed": seed,
                "box_half_length": 3.0, "exactness_grid": exact_grid.points,
                "commutator_grid": 64},
        samples=checks)
    report.aggregates = {"n_total": len(checks),
                         "n_pass": sum(1 for c in checks if c["pass"]),
                         "worst_failures": [c["name"] for c in checks
                                            if not c["pass"]]}
    report.flags["all_identities_pass"] = all(c["pass"] for c in checks)
    return report
