"""Probe harness: manufactured ensembles, estimate ratios, identity suite.

The regularity statements under test carry non-constructive constants, so
the probes never assert an absolute bound unless an identity pins one;
they report the empirical sup of the left/right norm ratios and check it
is finite and stable under grid doubling.  Reports are deterministic
given (parameters, seed): members are generated from per-index seeds and
aggregated in index order.  A report names its medium in the media
grammar, so its ``params`` alone rerun it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bridge as bridge_mod
from .decompose import (hodge_decompose, potential_for_exact,
                        solve_coderivative, split_orthogonality)
from .fields import (FormField, GridSpec, apply_R, apply_T, apply_table,
                     hodge_star, l2_inner, norm, normal_mask, sign_table,
                     split_tangential_normal, wedge)
from .halfspace import (diff_quotient, mirror_Sd, mirror_Sdelta,
                        normal_derivative_reconstruct, restrict_to_half,
                        shift, stokes_pairing_residual, trace_normal,
                        trace_tangential)
from .manufactured import (gaussian_form, parity_symmetrized,
                           random_band_limited, random_coclosed,
                           random_dense_media, random_dyadic)
from .media import (CATALOG, Transformation, make_transformation,
                    reconstruct_from_split, reflected_transform,
                    scalar_catalog)
from .spectral import (assemble_d, assemble_delta, coderivative_delta,
                       d_delta_plus_delta_d, exterior_d,
                       fourier, fourier_inverse, gaffney_identity_check,
                       gradient, laplacian, partial_derivative,
                       stokes_duality_residual)
from .weights import (BOLD, DEFAULT_MAX_ORDER, ROMAN, NormSpec,
                      annulus_split_bound, rho_power, weighted_sobolev_norm)

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


def _parse_media(option: str) -> tuple:
    """A catalog medium NAME[:KEY=VALUE[,KEY=VALUE...]] as its name and its
    params, every key of its ``CATALOG`` entry filled in.  An unknown name
    or key, a repeated key and a value that is not a finite number raise
    ValueError."""
    name, colon, given = option.partition(":")
    if name not in CATALOG:
        raise ValueError(f"unknown media {option!r}: name a medium as id | scalar | "
                         f"NAME[:KEY=VALUE,...], NAME one of {', '.join(CATALOG)}")
    params, seen = dict(CATALOG[name]), set()
    for item in given.split(",") if colon else ():
        key, _, value = item.partition("=")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if key not in params or key in seen or not math.isfinite(number):
            raise ValueError(f"media {option!r}: {name} takes {', '.join(params)}, "
                             f"each once and a finite number, not {item!r}")
        seen.add(key)
        params[key] = number
    return name, params


def _media_resolver(option: str, rank: int, variant: str, tau: float) -> tuple:
    """The CLI media selector as its report spelling and a function from a
    grid to the material on it.  ``id`` and ``scalar`` (the variant's fixed
    catalog entry) are spelled as typed, a catalog medium with every key,
    sorted, each value in ``repr``: two spellings of one medium, one report.
    """
    if option == "id":
        return option, lambda grid: make_transformation(grid, rank, "identity")
    if option == "scalar":
        name, params = (("radial_power", {"amplitude": 0.5, "tau": tau})
                        if variant == "weighted" else ("gauss_well", {}))
    else:
        name, params = _parse_media(option)
        option = f"{name}:" + ",".join(f"{key}={value!r}"
                                        for key, value in sorted(params.items()))
    return option, lambda grid: scalar_catalog(grid, name, **params)


# ---------------------------------------------------------------------------
# estimate probes
# ---------------------------------------------------------------------------

def worst_of(values) -> float:
    """The largest value, NaN if any is NaN (``max`` keeps the first value
    a NaN is compared with, so a NaN could vanish from a verdict)."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _ratio(numerator: float, denominator: float) -> float:
    # zero fields are assigned ratio 0 by convention
    return 0.0 if denominator == 0.0 else numerator / denominator


def _member_spectra(e: FormField, eps: Transformation):
    """F(E), F(dE) and F(delta(eps E)) in turn, from one transform of E.

    A non-identity material costs one more transform, of eps E, made after
    F(E) is let go.  The derivative slots are None at the rank where the
    operator is undefined.  Each spectrum is made when the next one is
    asked for, so a caller that drops each before asking holds about one
    at a time; ``tuple()`` keeps all three.
    """
    hat = fourier(e)
    yield hat
    yield exterior_d(hat) if e.rank < e.grid.dim else None
    if e.rank == 0:
        yield None
    elif eps.is_identity():
        yield coderivative_delta(hat)
    else:
        del hat
        yield coderivative_delta(fourier(eps.apply(e)))


def _interior_sample(e: FormField, eps: Transformation, order: int,
                     weight: float, scale: str, keep: bool = False) -> tuple:
    """The member's ratio row, and its spectra (see ``_member_spectra``) if
    ``keep``, else None.

    Each norm is taken as soon as its spectrum exists.  Without ``keep``
    the spectrum is dropped right after, so F(E) and F(dE) are gone before
    eps E is transformed.  The denominator adds ||E||, the dE term and the
    delta(eps E) term in that order either way, so the row is the same.
    """
    data_weight = weight + 1 if scale == BOLD else weight
    specs = (NormSpec(order + 1, weight, scale),) \
        + (NormSpec(order, data_weight, scale),) * 2
    spectra = _member_spectra(e, eps)
    terms, kept = [], []
    for spec in specs:
        hat = next(spectra)
        terms.append(None if hat is None else weighted_sobolev_norm(hat, spec))
        if keep:
            kept.append(hat)
        del hat
    numerator = terms[0]
    denominator = norm(e, weight)
    for term in terms[1:]:
        if term is not None:
            denominator += term
    row = {"numerator": numerator, "denominator": denominator,
           "ratio": _ratio(numerator, denominator)}
    return row, (tuple(kept) if keep else None)


def _run_probe(probe: str, params: dict, variant: str, tau: float,
               sample) -> tuple:
    """The ensemble loop of every estimate probe, on its grid and the doubling.

    ``sample(grid, eps, i, checked)`` builds member ``i`` and returns its
    ratio row, with the member checks if ``checked`` (probe grid only).
    Only the row leaves ``sample``, so a member and its spectra are freed
    before its refinement is built.  An unchecked sample (every member on
    the doubled grid, the largest the probe runs) keeps no spectrum: it
    takes each norm as the spectrum is made (``_interior_sample``).
    Returns the report, to which the caller adds its own flags, and the
    material on the probe grid.
    """
    if not 0 <= params["order"] < DEFAULT_MAX_ORDER:
        # the numerator's norm takes order + 1 derivatives
        raise ValueError(f"--order {params['order']} is outside "
                         f"0..{DEFAULT_MAX_ORDER - 1}")
    for name in ("weight", "tau"):
        if name in params and not math.isfinite(params[name]):
            raise ValueError(f"--{name} must be a finite number, got {params[name]}")
    if params["ensemble"] < 1:
        raise ValueError(f"the ensemble needs at least one member, "
                         f"got {params['ensemble']}")
    if not 0 <= params["rank"] <= params["dim"]:
        raise ValueError(f"rank {params['rank']} is outside 0..{params['dim']}")
    n = params["grid"]
    grid, fine = (GridSpec(params["dim"], PROBE_BOX_HALF_LENGTH, m) for m in (n, 2 * n))
    media, resolve = _media_resolver(params["media"], params["rank"], variant, tau)
    eps, eps_fine = resolve(grid), resolve(fine)
    report = ProbeReport(probe=probe, params=dict(
        params, media=media, box_half_length=PROBE_BOX_HALF_LENGTH))
    sup = total = sup_fine = 0.0
    for i in range(params["ensemble"]):
        row = sample(grid, eps, i, True)
        row["index"] = i
        report.samples.append(row)
        sup = worst_of((sup, row["ratio"]))
        total += row["ratio"]
        sup_fine = worst_of((sup_fine, sample(fine, eps_fine, i, False)["ratio"]))
    drift = abs(sup - sup_fine) / max(sup_fine, 1e-300)
    report.aggregates = {"sup_ratio": sup,
                         "mean_ratio": total / params["ensemble"],
                         "sup_ratio_refined": sup_fine}
    report.refinement = {"grid": n, "grid_refined": 2 * n, "sup_drift": drift}
    report.flags["ratios_finite"] = all(math.isfinite(s["ratio"])
                                        for s in report.samples)
    report.flags["stable_under_doubling"] = drift <= 0.10
    return report, eps


def _gaussian_sample(rank: int, order: int, weight: float, scale: str,
                     seed: int):
    """Sample of the interior and weighted probes: Gaussian-envelope members."""
    def sample(grid, eps, i, checked):
        e = gaussian_form(grid, rank, seed + 1000 * i, decay=3.0).field()
        return _interior_sample(e, eps, order, weight, scale)[0]
    return sample


def estimate_probe_interior(dim: int, rank: int, order: int, weight: float,
                            media: str = "id", ensemble: int = 50,
                            grid_points: int = 32, seed: int = 0) -> ProbeReport:
    """Ratio probe for the unweighted-derivative estimate.

    For identity media at order 0 and weight 0 the ratio is pinned by the
    Gaffney identity, so a hard bound of 1.5 is asserted there; everywhere
    else only finiteness and doubling stability are flagged.
    """
    params = {"dim": dim, "rank": rank, "order": order, "weight": weight, "tau": 1.0,
              "media": media, "ensemble": ensemble, "grid": grid_points, "seed": seed}
    report, _ = _run_probe("estimate-interior", params, "interior", 1.0,
                           _gaussian_sample(rank, order, weight, ROMAN, seed))
    if media == "id" and order == 0 and weight == 0.0:
        report.flags["gaffney_pinned_bound"] = report.aggregates["sup_ratio"] <= 1.5
    return report


def estimate_probe_weighted(dim: int, rank: int, order: int, weight: float,
                            tau: float, media: str = "id",
                            ensemble: int = 50, grid_points: int = 32,
                            seed: int = 0) -> ProbeReport:
    """Ratio probe with weight gain on the data side (strong scale).

    The estimate holds for media that decay with order tau, so the probe
    also flags ``media_decays`` (see ``_media_decays``), once, on the
    probe grid.
    """
    if tau <= 0:
        raise ValueError("the weighted estimate requires decay order tau > 0")
    params = {"dim": dim, "rank": rank, "order": order, "weight": weight, "tau": tau,
              "media": media, "ensemble": ensemble, "grid": grid_points, "seed": seed}
    report, eps = _run_probe("estimate-weighted", params, "weighted", tau,
                             _gaussian_sample(rank, order, weight, BOLD, seed))
    probe_field = gaussian_form(GridSpec(dim, PROBE_BOX_HALF_LENGTH, grid_points),
                                rank, seed, decay=3.0).field()
    diags = [annulus_split_bound(probe_field, weight, tau, theta)
             for theta in (1.0, 2.0)]
    report.aggregates["annulus_diagnostics"] = diags
    report.flags["annulus_split_holds"] = all(d["holds"] for d in diags)
    report.flags["media_decays"] = _media_decays(eps, tau)
    return report


def _media_decays(eps: Transformation, tau: float) -> bool:
    """The weighted estimate's hypothesis: the medium decays with order tau.

    True for the identity, else read off the closed form; a medium with
    sampled values only raises ValueError.
    """
    if not eps.is_identity() and eps.hat_calculus is None:
        raise ValueError("media_decays needs a closed-form medium (a catalog "
                         "entry); this medium has only sampled values")
    return eps.is_identity() or eps.hat_calculus.decay_order() >= tau


def norm_of_trace(e: FormField) -> float:
    if e.rank >= e.grid.dim:
        return 0.0  # top-rank forms have no tangential boundary components
    return norm(trace_tangential(restrict_to_half(e)))


def halfspace_probe(dim: int, rank: int, order: int, media: str = "id",
                    ensemble: int = 50, grid_points: int = 48,
                    seed: int = 0) -> ProbeReport:
    """Ratio probe on the half-space model with homogeneous tangential trace.

    Members are ``gaussian_form(..., poly_degree=2, trace_free=True)``, one
    continuum member on the probe grid and its doubling, so every norm on the
    half-grid is half the periodic-box norm to rounding (a closed odd form
    is not 0 at x_N = -L) and the ratio is evaluated on the full grid.
    Each member also runs the normal-derivative reconstruction and the
    Stokes pairing as self-consistency checks, and ``traces_vanish`` reads
    the relative trace norm of every member on both grids.  With
    non-identity media the reconstruction takes spectral derivatives of the
    material product, which the default grid of 48 points keeps resolved;
    coarser grids may honestly fail that flag.
    """
    traces = []

    def sample(grid, eps, i, checked):
        # quadratic: every component, rank 0 included, keeps N monomials or
        # more of its x_N parity, so the members differ in more than scale
        e = gaussian_form(grid, rank, seed + 1000 * i, decay=3.0,
                          poly_degree=2, trace_free=True).field()
        traces.append(norm_of_trace(e) / max(norm(e), 1e-300))
        row, spectra = _interior_sample(e, eps, order, 0.0, ROMAN, keep=checked)
        row["trace_norm_rel"] = traces[-1]
        if checked:
            hat, de_hat, delta_eps_hat = spectra
            de = fourier_inverse(de_hat) if de_hat is not None else None
            row["reconstruct_residual"] = _reconstruction_residual(
                e, eps, hat, de, delta_eps_hat)
            row["stokes_residual"] = _member_stokes_residual(e, de)
        return row

    params = {"dim": dim, "rank": rank, "order": order, "media": media,
              "ensemble": ensemble, "grid": grid_points, "seed": seed}
    report, _ = _run_probe("estimate-halfspace", params, "interior", 1.0, sample)
    worst_reconstruct = worst_of([0.0] + [s["reconstruct_residual"]
                                          for s in report.samples])
    worst_stokes = worst_of([0.0] + [s["stokes_residual"] for s in report.samples])
    report.aggregates["worst_reconstruct_residual"] = worst_reconstruct
    report.aggregates["worst_stokes_residual"] = worst_stokes
    report.flags["traces_vanish"] = all(t <= 1e-10 for t in traces)
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
    return norm(rec[e.grid.dim] - direct) / max(norm(direct), 1e-300)


def _trace_free_stokes_residual(e: FormField, h: FormField, de: FormField,
                                delta_h: FormField) -> float:
    """Trapezoid pairing residual on the half box for trace-free members.

    Their parity makes the trapezoid closure exact, so the warnings about
    fields not vanishing at the deep end are moot.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stokes_pairing_residual(restrict_to_half(e), restrict_to_half(h),
                                       restrict_to_half(de),
                                       restrict_to_half(delta_h),
                                       quadrature="trapezoid")


def _member_stokes_residual(e: FormField, de: FormField | None) -> float:
    """Pairing residual with H = dE; the exact value is 0 (gamma_t E = 0)."""
    if e.rank >= e.grid.dim:
        return 0.0
    residual = _trace_free_stokes_residual(e, de, de, coderivative_delta(de))
    return residual / max(norm(de) ** 2, 1e-300)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

# name -> (tolerance, mode), in report order; mode "le" passes at
# residual <= tolerance, "ge" at residual >= tolerance
IDENTITIES = {
    "wedge-graded-anticommutativity": (0.0, "le"),
    "hodge-star-double-identity": (0.0, "le"),
    "operator-algebra-RR-zero": (0.0, "le"),
    "operator-algebra-TT-zero": (0.0, "le"),
    "operator-algebra-RT-plus-TR": (1e-12, "le"),
    "fiber-adjointness-R-T": (1e-12, "le"),
    "tangential-normal-split": (0.0, "le"),
    "fourier-unitarity": (1e-12, "le"),
    "fourier-star-commutation": (0.0, "le"),
    "intertwining-d": (1e-12, "le"),
    "intertwining-delta": (1e-12, "le"),
    "intertwining-laplacian": (1e-12, "le"),
    "complex-dd-zero": (1e-12, "le"),
    "complex-delta-delta-zero": (1e-12, "le"),
    "laplacian-equals-d-delta-sum": (1e-12, "le"),
    "gaffney-identity": (1e-10, "le"),
    "weak-stokes-duality": (1e-12, "le"),
    "fourier-monomial-derivatives": (1e-12, "le"),
    "weight-commutator-d": (1e-8, "le"),
    "weight-commutator-delta": (1e-8, "le"),
    "weighted-norm-ordering": (1e-12, "le"),
    "annulus-splitting-bound": (0.0, "le"),
    "media-symmetric-pairing": (1e-12, "le"),
    "media-inverse-roundtrip": (1e-12, "le"),
    "media-reflection-involution": (1e-12, "le"),
    "split-reconstruction-roundtrip": (1e-10, "le"),
    "difference-quotient-product-rule": (0.0, "le"),
    "difference-quotient-anti-duality": (0.0, "le"),
    "difference-quotient-first-order-rate": (0.2, "le"),
    "mirror-sqrt2-isometry": (1e-12, "le"),
    "mirror-parity-structure": (0.0, "le"),
    "mirror-support-containment": (0.0, "le"),
    "mirror-d-commutation": (1e-8, "le"),
    "mirror-delta-commutation": (1e-8, "le"),
    "trace-d-commutation": (1e-8, "le"),
    "trace-data-bijection": (1e-12, "le"),
    "stokes-pairing-refinement-factor": (8.0, "ge"),
    "stokes-pairing-trace-free-members": (1e-8, "le"),
    "normal-derivative-reconstruction": (1e-8, "le"),
    "hodge-split-resum": (1e-12, "le"),
    "hodge-split-orthogonality": (1e-10, "le"),
    "hodge-split-closed-coclosed": (1e-10, "le"),
    "hodge-projector-idempotence": (1e-12, "le"),
    "potential-roundtrip": (1e-10, "le"),
    "coderivative-solver-residual": (1e-10, "le"),
    "solver-gaffney-consistency": (1e-8, "le"),
    "bridge-dictionary": (1e-10, "le"),
    "bridge-roundtrip-exact": (0.0, "le"),
}

# the weight commutator needs the weight pole resolved: a fixed grid
COMMUTATOR_GRID_POINTS = 64


def _rel_norm(a: FormField, b: FormField) -> float:
    scale = max(norm(a), norm(b), 1e-300)
    return norm(a - b) / scale


def _max_abs(e: FormField) -> float:
    return float(np.abs(e.data).max())


def _suite_fields(grid: GridSpec, seed: int) -> dict:
    return {q: random_band_limited(grid, q, seed + 17 * q)
            for q in range(grid.dim + 1)}


# Each check yields (name, value) pairs; the suite reports, per name, the
# largest value yielded (0.0 if none exceeds it).

def _check_pointwise_algebra(grid, exact_grid, seed):
    dim = grid.dim
    # wedge anticommutativity: exact on integer data (complex FMA breaks
    # bitwise commutativity of generic products); double star: exact always
    fields = _suite_fields(grid, seed)
    for p in range(dim + 1):
        for q in range(dim + 1 - p):
            ef = random_dyadic(exact_grid, p, seed + 11 * p + q, bits=12)
            ff = random_dyadic(exact_grid, q, seed + 5 + p + 13 * q, bits=12)
            sign = -1.0 if (p * q) % 2 else 1.0
            gap = _max_abs(wedge(ef, ff) - sign * wedge(ff, ef))
            yield "wedge-graded-anticommutativity", gap
    for q in range(dim + 1):
        e = fields[q]
        sign = -1.0 if (q * (dim - q)) % 2 else 1.0
        gap = _max_abs(hodge_star(hodge_star(e)) - sign * e)
        yield "hodge-star-double-identity", gap

    # R/T algebra: exact on integer-valued fields, 1e-12 on generic ones
    for q in range(dim + 1):
        dyadic = random_dyadic(exact_grid, q, seed + q)
        if q + 2 <= dim:
            yield "operator-algebra-RR-zero", _max_abs(apply_R(apply_R(dyadic)))
        if q >= 2:
            yield "operator-algebra-TT-zero", _max_abs(apply_T(apply_T(dyadic)))
        e = fields[q]
        r2e = e.scale_pointwise(grid.radius_sq())
        parts = []
        if q < dim:
            parts.append(apply_T(apply_R(e)))
        if q > 0:
            parts.append(apply_R(apply_T(e)))
        total = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        yield "operator-algebra-RT-plus-TR", _rel_norm(total, r2e)
        if q < dim:
            h = fields[q + 1]
            lhs = l2_inner(apply_R(e), h)
            rhs = l2_inner(e, apply_T(h))
            scale = max(norm(apply_R(e)) * norm(h), 1e-300)
            yield "fiber-adjointness-R-T", abs(lhs - rhs) / scale

    # tangential/normal split: exact resum, exact orthogonality, idempotent
    for q in range(dim + 1):
        e = fields[q]
        tau_part, rho_part = split_tangential_normal(e)
        yield "tangential-normal-split", _max_abs(tau_part + rho_part - e)
        yield "tangential-normal-split", abs(l2_inner(tau_part, rho_part))
        yield "tangential-normal-split", _max_abs(split_tangential_normal(tau_part)[1])


def _check_spectral(grid, seed):
    dim = grid.dim
    fields = _suite_fields(grid, seed + 101)
    for q in range(dim + 1):
        e = fields[q]
        hat = fourier(e)
        yield "fourier-unitarity", abs(norm(hat) / max(norm(e), 1e-300) - 1.0)
        yield "fourier-unitarity", _rel_norm(fourier_inverse(hat), e)
        yield ("fourier-star-commutation",
               _max_abs(fourier(hodge_star(e)) - hodge_star(hat)))
        if q < dim:
            de = exterior_d(e)
            yield "intertwining-d", _rel_norm(fourier(de), 1j * apply_R(hat))
            if q + 2 <= dim:
                yield "complex-dd-zero", norm(exterior_d(de)) / max(norm(e), 1e-300)
            yield "weak-stokes-duality", stokes_duality_residual(e, fields[q + 1])
        if q > 0:
            delta_e = coderivative_delta(e)
            yield ("intertwining-delta",
                   _rel_norm(fourier(delta_e), 1j * apply_T(hat)))
            if q >= 2:
                yield ("complex-delta-delta-zero",
                       norm(coderivative_delta(delta_e)) / max(norm(e), 1e-300))
        lap = laplacian(e)
        yield ("intertwining-laplacian",
               _rel_norm(fourier(lap),
                         hat.with_data(-hat.grid.freq_radius_sq() * hat.data)))
        yield "laplacian-equals-d-delta-sum", _rel_norm(d_delta_plus_delta_d(e), lap)
        yield "gaffney-identity", gaffney_identity_check(e).relative_gap
        # monomial derivative rule d^alpha <-> (i xi)^alpha up to order 3
        for alpha_axis, order in ((1, 1), (min(2, dim), 2), (dim, 3)):
            deriv = e
            for _ in range(order):
                deriv = partial_derivative(deriv, alpha_axis)
            xi = hat.grid.freq_field(alpha_axis)
            direct = fourier(deriv)
            expected = hat.with_data(((1j * xi) ** order) * hat.data)
            yield "fourier-monomial-derivatives", _rel_norm(direct, expected)


def _check_weights(dim, seed):
    grid = GridSpec(min(dim, 3), 3.0, COMMUTATOR_GRID_POINTS)
    for q in range(grid.dim + 1):
        # d and delta act on spectra: E is transformed once and each
        # weighted field once; d E and delta E serve every weight
        e = gaussian_form(grid, q, seed + 3 * q, decay=3.0).field()
        hat = fourier(e)
        de = fourier_inverse(exterior_d(hat)) if q < grid.dim else None
        delta_e = fourier_inverse(coderivative_delta(hat)) if q > 0 else None
        del hat  # each 64^3 stack held through the loop adds 13 MB to the peak
        for s in (-2.0, 1.0):
            weight = rho_power(grid, s)
            weighted_hat = fourier(e.scale_pointwise(weight))
            correction = s * rho_power(grid, s - 2.0)
            if q < grid.dim:
                lhs = fourier_inverse(exterior_d(weighted_hat))
                rhs = de.scale_pointwise(weight) \
                    + apply_R(e).scale_pointwise(correction)
                yield "weight-commutator-d", _rel_norm(lhs, rhs)
            if q > 0:
                lhs = fourier_inverse(coderivative_delta(weighted_hat))
                rhs = delta_e.scale_pointwise(weight) \
                    + apply_T(e).scale_pointwise(correction)
                yield "weight-commutator-delta", _rel_norm(lhs, rhs)

    # norm ordering and the annulus splitting inequality
    small = GridSpec(min(dim, 3), 3.0, 32)
    for q in (0, min(1, small.dim)):
        e = gaussian_form(small, q, seed + 7 * q, decay=3.0).field()
        hat = fourier(e)  # held: each norm below gets it back from fourier(e)
        for s in (-1.0, 0.0, 1.0):
            for m in (0, 1):
                bold = weighted_sobolev_norm(e, NormSpec(m, s, BOLD))
                roman = weighted_sobolev_norm(e, NormSpec(m, s, ROMAN))
                low = weighted_sobolev_norm(e, NormSpec(m, s - m, BOLD))
                yield "weighted-norm-ordering", roman - bold
                yield "weighted-norm-ordering", low - roman
        for theta in (1.0, 2.0):
            for tau in (0.5, 1.0, 2.0):
                holds = annulus_split_bound(e, 0.0, tau, theta)["holds"]
                yield "annulus-splitting-bound", 0.0 if holds else 1.0


def _check_media(grid, exact_grid, seed):
    dim = grid.dim
    fields = _suite_fields(grid, seed + 211)
    partners = _suite_fields(grid, seed + 503)
    eps_scalar = scalar_catalog(grid, "gauss_well", amplitude=1.0, width=1.0)
    twice = reflected_transform(reflected_transform(eps_scalar))
    involution = float(np.abs(twice.hat - eps_scalar.hat).max())
    for q in range(dim + 1):
        e, h = fields[q], partners[q]
        lhs = l2_inner(eps_scalar.apply(e), h)
        rhs = l2_inner(e, eps_scalar.apply(h))
        yield ("media-symmetric-pairing",
               abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        yield ("media-inverse-roundtrip",
               _rel_norm(eps_scalar.apply_inverse(eps_scalar.apply(e)), e))
        yield "media-reflection-involution", involution
        tau_part, _ = split_tangential_normal(e)
        g_rho = split_tangential_normal(eps_scalar.apply(e))[1]
        yield ("split-reconstruction-roundtrip",
               _rel_norm(reconstruct_from_split(tau_part, g_rho, eps_scalar), e))

    # difference-quotient product rule and anti-duality: exact on dyadic data
    h_step = exact_grid.spacing
    rng = np.random.default_rng(seed + 7)
    for q in (0, min(1, dim)):
        f = random_dyadic(exact_grid, q, seed + q, bits=10)
        g = random_dyadic(exact_grid, q, seed + 91 * (q + 1), bits=10)
        mu_full = 1.0 + rng.integers(1, 2 ** 8, size=exact_grid.shape).astype(float)
        lhs = diff_quotient(f.scale_pointwise(mu_full), 1, h_step)
        quot_mu = (np.roll(mu_full, -1, axis=0) - mu_full) / h_step
        rhs = diff_quotient(f, 1, h_step).scale_pointwise(mu_full) \
            + shift(f, 1, h_step).scale_pointwise(quot_mu)
        yield "difference-quotient-product-rule", _max_abs(lhs - rhs)
        pair = l2_inner(diff_quotient(f, 1, h_step), g) \
            + l2_inner(f, diff_quotient(g, 1, -h_step))
        yield "difference-quotient-anti-duality", abs(pair)

    # first-order convergence of the difference quotient on band-limited
    # fields, whose spectral partial is exact
    rate_grid = GridSpec(min(dim, 2), 1.0, 64)
    for idx in range(2):
        e = random_band_limited(rate_grid, 0, seed + idx, kmax=2)
        exact = partial_derivative(e, 1)
        err = [norm(diff_quotient(e, 1, k * rate_grid.spacing) - exact)
               for k in (2, 1)]
        ratio = err[0] / max(err[1], 1e-300)
        yield "difference-quotient-first-order-rate", abs(ratio - 2.0)


def _check_halfspace(grid, seed):
    dim = grid.dim
    for q in range(dim + 1):
        base = random_band_limited(grid, q, seed + 31 * q)
        mirror_compatible = parity_symmetrized(base, "mirror")
        half = restrict_to_half(mirror_compatible)
        extended = mirror_Sd(half)
        yield ("mirror-sqrt2-isometry",
               abs(norm(extended) ** 2 - 2.0 * norm(half) ** 2)
               / max(norm(extended) ** 2, 1e-300))
        yield ("mirror-parity-structure", _max_abs(extended - mirror_compatible)
               / max(_max_abs(extended), 1e-300))
        if q < dim:
            yield ("mirror-d-commutation",
                   _rel_norm(exterior_d(extended),
                             mirror_Sd(restrict_to_half(
                                 exterior_d(mirror_compatible)))))
        dual_compatible = parity_symmetrized(base, "trace-free")
        dual_half = restrict_to_half(dual_compatible)
        dual_ext = mirror_Sdelta(dual_half)
        if q > 0:
            yield ("mirror-delta-commutation",
                   _rel_norm(coderivative_delta(dual_ext),
                             mirror_Sdelta(restrict_to_half(
                                 coderivative_delta(dual_compatible)))))
        # support containment on masks
        ball = grid.radius_sq() < (grid.half_length / 2) ** 2
        mask = ball & (grid.coord_field(dim) <= 0)
        masked = mirror_compatible.scale_pointwise(mask.astype(float))
        outside = ~ball
        leak = np.abs(mirror_Sd(restrict_to_half(masked)).data[:, outside])
        yield ("mirror-support-containment",
               float(leak.max()) if leak.size else 0.0)

    # traces: boundary-derivative commutation and the data bijection
    for q in range(dim):
        e = random_band_limited(grid, q, seed + 77 * (q + 1))
        half = restrict_to_half(e)
        traced = trace_tangential(half)
        if q < dim - 1:
            lhs = exterior_d(traced)
            rhs = trace_tangential(restrict_to_half(exterior_d(e)))
            yield "trace-d-commutation", _rel_norm(lhs, rhs)
        plane = half.data[..., -1]
        rebuilt = np.zeros_like(plane)
        rebuilt[~normal_mask(dim, q)] = traced.data
        if q >= 1:
            # invert gamma_n = sign * star_b(gamma_t(star E)) with the double
            # star rules: E^rho = sign' * star(extension of star_b(gamma_n E))
            sign = -1.0 if ((q - 1) * dim + (dim - 1) + (dim - q)) % 2 else 1.0
            tangential = ~normal_mask(dim, dim - q)
            lifted = np.zeros(tangential.shape + plane.shape[1:], plane.dtype)
            lifted[tangential] = hodge_star(trace_normal(half)).data
            rebuilt = rebuilt + sign * apply_table(sign_table("star", dim, dim - q),
                                                   lifted)
        yield ("trace-data-bijection",
               float(np.abs(rebuilt - plane).max())
               / max(float(np.abs(plane).max()), 1e-300))


def _check_stokes(dim, seed):
    use_dim = min(dim, 3)
    residuals = {}
    for n in (32, 64):
        grid = GridSpec(use_dim, 3.0, n)
        e_m = gaussian_form(grid, 0, seed + 5, decay=2.5)
        h_m = gaussian_form(grid, 1, seed + 6, decay=2.5)
        residuals[n] = stokes_pairing_residual(
            restrict_to_half(e_m.field()), restrict_to_half(h_m.field()),
            restrict_to_half(assemble_d(e_m.partials("R"))),
            restrict_to_half(assemble_delta(h_m.partials("T"))))
    yield ("stokes-pairing-refinement-factor",
           residuals[32] / max(residuals[64], 1e-300))

    # vanishing tangential trace by odd/even x_N parity: the trapezoid
    # closure has no end corrections for these reflection-symmetric members
    grid = GridSpec(use_dim, 3.0, 32)
    for q in range(use_dim):
        e = gaussian_form(grid, q, seed + 8 + q, decay=2.5,
                          trace_free=True).field()
        h = gaussian_form(grid, q + 1, seed + 9 + q, decay=2.5,
                          trace_free=True).field()
        res = _trace_free_stokes_residual(e, h, exterior_d(e),
                                          coderivative_delta(h))
        yield ("stokes-pairing-trace-free-members",
               res / max(norm(e) * norm(h), 1e-300))


def _check_reconstruction(dim, seed):
    use_dim = min(dim, 3)
    grid = GridSpec(use_dim, 3.0, 32)
    for q in range(use_dim + 1):
        e = random_band_limited(grid, q, seed + 13 * q)
        eps = random_dense_media(grid, q, seed + 29 * (q + 1), amplitude=0.4)
        hat, de_hat, delta_eps_hat = _member_spectra(e, eps)
        de = fourier_inverse(de_hat) if de_hat is not None else None
        yield ("normal-derivative-reconstruction",
               _reconstruction_residual(e, eps, hat, de, delta_eps_hat))


def _check_decomposition(grid, seed):
    dim = grid.dim
    for q in range(dim + 1):
        e = random_band_limited(grid, q, seed + 41 * q)
        split = hodge_decompose(e)
        yield "hodge-split-resum", _rel_norm(split.resum(), e)
        yield "hodge-split-orthogonality", split_orthogonality(split)
        scale = max(norm(e), 1e-300)
        if q < dim:
            yield ("hodge-split-closed-coclosed",
                   norm(exterior_d(split.exact_part)) / scale)
        if q > 0:
            yield ("hodge-split-closed-coclosed",
                   norm(coderivative_delta(split.coexact_part)) / scale)
        again = hodge_decompose(split.exact_part)
        yield ("hodge-projector-idempotence",
               _rel_norm(again.exact_part, split.exact_part))
        yield "hodge-projector-idempotence", norm(again.coexact_part) / scale
        if q > 0:
            phi = potential_for_exact(split.exact_part)
            yield ("potential-roundtrip",
                   norm(exterior_d(phi) - split.exact_part) / scale)
        if q < dim:
            coclosed = random_coclosed(grid, q, seed + 83 * (q + 1))
            if norm(coclosed) > 0:
                sol = solve_coderivative(coclosed)
                yield "coderivative-solver-residual", sol.residual
                yield ("solver-gaffney-consistency",
                       gaffney_identity_check(sol.potential).relative_gap)


def bridge_sample(grid: GridSpec, seed: int, i: int) -> bridge_mod.VectorFieldN3:
    """Vector field i of a bridge check: band-limited components from seeds
    seed + 3i + j."""
    return bridge_mod.VectorFieldN3(
        grid, np.stack([random_band_limited(grid, 0, seed + 3 * i + j).data[0]
                        for j in range(3)]))


def _check_bridge(seed):
    grid = GridSpec(3, 3.0, 32)
    for i in range(3):
        v = bridge_sample(grid, seed, i)
        yield "bridge-dictionary", worst_of(bridge_mod.bridge_residuals(v).values())
        yield "bridge-roundtrip-exact", 0.0 if bridge_mod.roundtrip_exact(v) else 1.0


def run_identity_suite(dim: int, grid_points: int = 32, seed: int = 0) -> ProbeReport:
    """Run every module invariant and report one pass/fail line each.

    Floating-point identities run on the requested grid (box half-length
    3).  Exactness checks run on a fixed dyadic grid (L = 1, n = 32; n = 16
    at N = 4) where integer-valued data keeps the arithmetic exact, and the
    weight commutator runs on the fixed grid that resolves the weight
    (n = 64).  Each name of ``IDENTITIES`` a check yields gets one line, in
    table order; a name the table lacks raises ValueError.
    """
    if dim < 2:
        raise ValueError("identity suite needs dimension >= 2 (its "
                         "boundary-plane checks need a plane)")
    if dim > 4:
        raise ValueError("identity suite is sized for dimensions up to 4")
    grid = GridSpec(dim, 3.0, grid_points)
    exact_grid = GridSpec(dim, 1.0, 16 if dim >= 4 else 32)
    checks = [_check_pointwise_algebra(grid, exact_grid, seed),
              _check_spectral(grid, seed), _check_weights(dim, seed),
              _check_media(grid, exact_grid, seed),
              _check_halfspace(grid, seed), _check_stokes(dim, seed),
              _check_reconstruction(dim, seed),
              _check_decomposition(grid, seed)]
    if dim == 3:
        checks.append(_check_bridge(seed))
    worst: dict = {}
    for name, value in itertools.chain.from_iterable(checks):
        if name not in IDENTITIES:
            raise ValueError(f"identity check {name!r} is not in IDENTITIES")
        worst[name] = worst_of((worst.get(name, 0.0), value))
    rows = [{"name": name, "residual": float(worst[name]), "tolerance": tol,
             "mode": mode, "pass": bool(worst[name] >= tol if mode == "ge"
                                        else worst[name] <= tol)}
            for name, (tol, mode) in IDENTITIES.items() if name in worst]
    report = ProbeReport(
        probe="identities",
        params={"dim": dim, "grid": grid_points, "seed": seed,
                "box_half_length": 3.0, "exactness_grid": exact_grid.points,
                "commutator_grid": COMMUTATOR_GRID_POINTS},
        samples=rows)
    report.aggregates = {"n_total": len(rows),
                         "n_pass": sum(c["pass"] for c in rows),
                         "worst_failures": [c["name"] for c in rows
                                            if not c["pass"]]}
    report.flags["all_identities_pass"] = all(c["pass"] for c in rows)
    return report
