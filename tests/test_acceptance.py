"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a PASS line with the measured worst-case quantity so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import max_abs, rel_gap
from formprobe.bridge import VectorFieldN3, bridge_residuals, roundtrip_exact
from formprobe.decompose import (hodge_decompose, solve_coderivative,
                                 split_orthogonality)
from formprobe.fields import (GridSpec, apply_R, apply_T, hodge_star,
                              l2_inner, norm)
from formprobe.halfspace import (diff_quotient, mirror_Sd, mirror_Sdelta,
                                 normal_derivative_reconstruct,
                                 restrict_to_half, shift,
                                 stokes_pairing_residual, trace_tangential)
from formprobe.manufactured import (gaussian_form, parity_symmetrized,
                                    random_band_limited, random_coclosed,
                                    random_dense_media, random_dyadic)
from formprobe.probes import (estimate_probe_interior,
                              estimate_probe_weighted, halfspace_probe)
from formprobe.spectral import (assemble_d, assemble_delta,
                                coderivative_delta, d_delta_plus_delta_d,
                                exterior_d, fourier, gaffney_identity_check,
                                gradient, laplacian, partial_derivative)
from formprobe.weights import rho_power


def _report(name, value, bound, mode="<="):
    print(f"PASS {name}: {value:.3e} {mode} {bound:.1e}"
          if isinstance(bound, float) else f"PASS {name}: {value}")


# --------------------------------------------------------------------------
# 1. operator algebra: RR = 0 and TT = 0 exactly, RT + TR = r^2 to 1e-12
# --------------------------------------------------------------------------

def test_criterion_01_operator_algebra():
    start = time.perf_counter()
    worst_rr = worst_tt = 0.0
    worst_rt = 0.0
    for dim in (2, 3, 4):
        # the identities are pointwise; the N=4 grid stays small so the
        # stated runtime budget holds on modest hardware
        exact_grid = GridSpec(dim, 1.0, 8 if dim == 4 else 16)
        grid = exact_grid
        for q in range(dim + 1):
            for i in range(50):
                seed = 10_000 * dim + 100 * q + i
                dyadic = random_dyadic(exact_grid, q, seed)
                if q + 2 <= dim:
                    worst_rr = max(worst_rr,
                                   max_abs(apply_R(apply_R(dyadic))))
                if q >= 2:
                    worst_tt = max(worst_tt,
                                   max_abs(apply_T(apply_T(dyadic))))
                e = random_band_limited(grid, q, seed, real=False)
                parts = []
                if q < dim:
                    parts.append(apply_T(apply_R(e)))
                if q > 0:
                    parts.append(apply_R(apply_T(e)))
                total = parts[0] if len(parts) == 1 else parts[0] + parts[1]
                r2e = e.scale_pointwise(grid.radius_sq())
                worst_rt = max(worst_rt, norm(total - r2e) / norm(r2e))
    elapsed = time.perf_counter() - start
    assert worst_rr == 0.0 and worst_tt == 0.0
    assert worst_rt <= 1e-12
    assert elapsed <= 10.0
    _report("criterion-01 RR,TT exact; RT+TR", worst_rt, 1e-12)
    print(f"     (runtime {elapsed:.1f} s <= 10 s; RR worst {worst_rr}, "
          f"TT worst {worst_tt})")


# --------------------------------------------------------------------------
# 2. fiber adjointness and star commutation with the transform
# --------------------------------------------------------------------------

def test_criterion_02_adjointness_and_star_commutation():
    worst_adj = worst_star = 0.0
    for dim in (2, 3, 4):
        grid = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            for i in range(50):
                seed = 20_000 * dim + 100 * q + i
                e = random_band_limited(grid, q, seed, real=False)
                if q < dim:
                    h = random_band_limited(grid, q + 1, seed + 7, real=False)
                    lhs = l2_inner(apply_R(e), h)
                    rhs = l2_inner(e, apply_T(h))
                    scale = max(norm(apply_R(e)) * norm(h), 1e-300)
                    worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
                if i < 5:  # the commutation is an array identity; sample it
                    hat = fourier(e)
                    gap = max_abs(fourier(hodge_star(e)) - hodge_star(hat))
                    scale = max(max_abs(hat), 1e-300)
                    worst_star = max(worst_star, gap / scale)
    assert worst_adj <= 1e-12
    assert worst_star <= 1e-12
    _report("criterion-02 adjointness", worst_adj, 1e-12)
    _report("criterion-02 star-transform commutation", worst_star, 1e-12)


# --------------------------------------------------------------------------
# 3. intertwining relations for d, delta and the Laplacian
# --------------------------------------------------------------------------

def test_criterion_03_intertwining():
    worst_d = worst_delta = worst_lap = worst_sum = 0.0
    for dim in (2, 3, 4):
        grid = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            for i in range(10):
                seed = 30_000 * dim + 100 * q + i
                e = random_band_limited(grid, q, seed, real=False)
                hat = fourier(e)
                if q < dim:
                    de = exterior_d(e)
                    gap = norm(fourier(de) - 1j * apply_R(hat))
                    worst_d = max(worst_d, gap / max(norm(de), 1e-300))
                if q > 0:
                    se = coderivative_delta(e)
                    gap = norm(fourier(se) - 1j * apply_T(hat))
                    worst_delta = max(worst_delta, gap / max(norm(se), 1e-300))
                lap = laplacian(e)
                sym = hat.with_data(-grid.freq_radius_sq() * hat.data)
                worst_lap = max(worst_lap,
                                norm(fourier(lap) - sym) / max(norm(lap), 1e-300))
                worst_sum = max(worst_sum, rel_gap(d_delta_plus_delta_d(e), lap))
    for value in (worst_d, worst_delta, worst_lap, worst_sum):
        assert value <= 1e-12
    _report("criterion-03 intertwining d/delta/Laplacian",
            max(worst_d, worst_delta, worst_lap, worst_sum), 1e-12)


# --------------------------------------------------------------------------
# 4. Gaffney identity on 100 band-limited fields per (N, q)
# --------------------------------------------------------------------------

def test_criterion_04_gaffney():
    worst = 0.0
    for dim in (2, 3, 4):
        grid = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            for i in range(100):
                e = random_band_limited(grid, q, 40_000 * dim + 200 * q + i,
                                        real=False, kmax=3)
                worst = max(worst, gaffney_identity_check(e).relative_gap)
    assert worst <= 1e-10
    _report("criterion-04 Gaffney identity", worst, 1e-10)


# --------------------------------------------------------------------------
# 5. weight commutators on ball-supported bumps, s in {-2,..,2}
# --------------------------------------------------------------------------

def test_criterion_05_weight_commutators():
    worst = 0.0
    for dim in (2, 3):
        grid = GridSpec(dim, 3.0, 64)
        for q in range(dim + 1):
            e = gaussian_form(grid, q, 50_000 + 10 * q + dim, decay=3.0).field()
            for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
                weight = rho_power(grid, s)
                corr = s * rho_power(grid, s - 2.0)
                weighted = e.scale_pointwise(weight)
                if q < dim:
                    lhs = exterior_d(weighted)
                    rhs = exterior_d(e).scale_pointwise(weight) \
                        + apply_R(e).scale_pointwise(corr)
                    worst = max(worst, rel_gap(lhs, rhs))
                if q > 0:
                    lhs = coderivative_delta(weighted)
                    rhs = coderivative_delta(e).scale_pointwise(weight) \
                        + apply_T(e).scale_pointwise(corr)
                    worst = max(worst, rel_gap(lhs, rhs))
    assert worst <= 1e-8
    _report("criterion-05 weight commutators", worst, 1e-8)


# --------------------------------------------------------------------------
# 6. Hodge split contracts
# --------------------------------------------------------------------------

def test_criterion_06_hodge_split():
    worst_resum = worst_orth = worst_closed = worst_idem = 0.0
    for dim, n in ((2, 32), (3, 16), (4, 12)):
        grid = GridSpec(dim, 2.0, n)
        for q in range(dim + 1):
            for i in range(5):
                e = random_band_limited(grid, q, 60_000 * dim + 10 * q + i,
                                        real=False)
                split = hodge_decompose(e)
                worst_resum = max(worst_resum, rel_gap(split.resum(), e))
                worst_orth = max(worst_orth, split_orthogonality(split))
                scale = max(norm(e), 1e-300)
                if q < dim:
                    worst_closed = max(worst_closed,
                                       norm(exterior_d(split.exact_part)) / scale)
                if q > 0:
                    worst_closed = max(
                        worst_closed,
                        norm(coderivative_delta(split.coexact_part)) / scale)
                again = hodge_decompose(split.exact_part)
                worst_idem = max(worst_idem,
                                 rel_gap(again.exact_part, split.exact_part),
                                 norm(again.coexact_part) / scale)
    assert worst_resum <= 1e-12
    assert worst_orth <= 1e-10
    assert worst_closed <= 1e-10
    assert worst_idem <= 1e-12
    _report("criterion-06 Hodge split (worst of the four contracts)",
            max(worst_resum, worst_orth, worst_closed, worst_idem), 1e-10)


# --------------------------------------------------------------------------
# 7. co-derivative solver: residual on 100 inputs, ratio stable 16 -> 32
# --------------------------------------------------------------------------

def test_criterion_07_coderivative_solver():
    worst_res = 0.0
    for dim in (3, 4):
        grid = GridSpec(dim, 2.0, 16)
        for i in range(100):
            q = i % dim
            e = random_coclosed(grid, q, 70_000 * dim + i, kmax=4)
            if norm(e) == 0.0:
                continue
            worst_res = max(worst_res, solve_coderivative(e).residual)
    assert worst_res <= 1e-10
    worst_drift = 0.0
    for dim, subset in ((3, 100), (4, 20)):
        sups = {}
        for n in (16, 32):
            grid = GridSpec(dim, 2.0, n)
            sup = 0.0
            for i in range(subset):
                q = i % dim
                e = random_coclosed(grid, q, 70_000 * dim + i, kmax=4)
                if norm(e) == 0.0:
                    continue
                sup = max(sup, solve_coderivative(e).h1_ratio)
            sups[n] = sup
        worst_drift = max(worst_drift,
                          abs(sups[16] - sups[32]) / max(sups[32], 1e-300))
    assert worst_drift <= 0.10
    _report("criterion-07 solver residual", worst_res, 1e-10)
    _report("criterion-07 H1-ratio drift under doubling", worst_drift, 0.10)


# --------------------------------------------------------------------------
# 8. mirror operators
# --------------------------------------------------------------------------

def test_criterion_08_mirror_operators():
    worst_iso = worst_comm = worst_support = 0.0
    for dim in (2, 3):
        grid = GridSpec(dim, 3.0, 32)
        for q in range(dim + 1):
            for i in range(10):
                seed = 80_000 * dim + 50 * q + i
                raw = random_band_limited(grid, q, seed, real=False)
                half = restrict_to_half(raw)
                ext = mirror_Sd(half)
                worst_iso = max(worst_iso,
                                abs(norm(ext) ** 2 - 2 * norm(half) ** 2)
                                / max(norm(ext) ** 2, 1e-300))
            compat = parity_symmetrized(random_band_limited(grid, q, seed),
                                        "mirror")
            if q < dim:
                lhs = exterior_d(mirror_Sd(restrict_to_half(compat)))
                rhs = mirror_Sd(restrict_to_half(exterior_d(compat)))
                worst_comm = max(worst_comm, rel_gap(lhs, rhs))
            dual = parity_symmetrized(random_band_limited(grid, q, seed + 1),
                                      "trace-free")
            if q > 0:
                lhs = coderivative_delta(mirror_Sdelta(restrict_to_half(dual)))
                rhs = mirror_Sdelta(restrict_to_half(coderivative_delta(dual)))
                worst_comm = max(worst_comm, rel_gap(lhs, rhs))
            ball = grid.radius_sq() < (grid.half_length / 2) ** 2
            mask = ball & np.broadcast_to(grid.coord_field(dim) <= 0, grid.shape)
            masked = compat.scale_pointwise(mask.astype(float))
            leak = np.abs(mirror_Sd(restrict_to_half(masked)).data[:, ~ball])
            worst_support = max(worst_support,
                                float(leak.max()) if leak.size else 0.0)
    assert worst_iso <= 1e-12
    assert worst_comm <= 1e-8
    assert worst_support == 0.0
    _report("criterion-08 mirror isometry", worst_iso, 1e-12)
    _report("criterion-08 mirror d/delta commutation", worst_comm, 1e-8)


# --------------------------------------------------------------------------
# 9. difference quotients: exact identities and the first-order rate
# --------------------------------------------------------------------------

def test_criterion_09_difference_quotients():
    grid = GridSpec(2, 1.0, 32)
    step = grid.spacing
    worst_dual = worst_rule = 0.0
    rng = np.random.default_rng(9)
    for q in (0, 1, 2):
        f = random_dyadic(grid, q, 90_000 + q, bits=10)
        g2 = random_dyadic(grid, q, 90_100 + q, bits=10)
        pair = l2_inner(diff_quotient(f, 1, step), g2) \
            + l2_inner(f, diff_quotient(g2, 1, -step))
        worst_dual = max(worst_dual, abs(pair))
        mu = 1.0 + rng.integers(1, 2 ** 8, size=grid.shape).astype(float)
        lhs = diff_quotient(f.scale_pointwise(mu), 1, step)
        quot = (np.roll(mu, -1, axis=0) - mu) / step
        rhs = diff_quotient(f, 1, step).scale_pointwise(mu) \
            + shift(f, 1, step).scale_pointwise(quot)
        worst_rule = max(worst_rule, max_abs(lhs - rhs))
    assert worst_dual == 0.0 and worst_rule == 0.0
    rate_grid = GridSpec(2, 1.0, 64)
    worst_rate_gap = 0.0
    for idx in range(4):
        # band-limited, so the spectral partial is exact
        e = random_band_limited(rate_grid, 0, 90_200 + idx, kmax=2)
        exact = partial_derivative(e, 1)
        errs = [norm(diff_quotient(e, 1, k * rate_grid.spacing) - exact)
                for k in (2, 1)]
        ratio = errs[0] / errs[1]
        assert 1.8 <= ratio <= 2.2
        worst_rate_gap = max(worst_rate_gap, abs(ratio - 2.0))
    _report("criterion-09 anti-duality/product rule exact; rate gap",
            worst_rate_gap, 0.2)


# --------------------------------------------------------------------------
# 10. normal-derivative reconstruction against the spectral gradient
# --------------------------------------------------------------------------

def test_criterion_10_normal_derivative_reconstruction():
    grid = GridSpec(3, 2.0, 16)
    worst = 0.0
    for i in range(50):
        q = i % 4
        e = random_band_limited(grid, q, 100_000 + i, real=False)
        eps = random_dense_media(grid, q, 100_500 + i, amplitude=0.4)
        parts = gradient(e)
        de = restrict_to_half(exterior_d(e)) if q < 3 else None
        dl = restrict_to_half(coderivative_delta(eps.apply(e))) if q > 0 else None
        rec = normal_derivative_reconstruct(
            restrict_to_half(e), de, dl, eps,
            {j: restrict_to_half(parts[j]) for j in (1, 2)})
        direct = restrict_to_half(parts[3])
        worst = max(worst, norm(rec[3] - direct)
                    / max(norm(direct), 1e-300))
    assert worst <= 1e-8
    _report("criterion-10 normal-derivative reconstruction", worst, 1e-8)


# --------------------------------------------------------------------------
# 11. Stokes pairing: refinement rate and trace-free members
# --------------------------------------------------------------------------

def test_criterion_11_stokes_pairing():
    # catalog of boundary pairs; the x8 rate is asserted for the catalog
    # (geometric mean), since a single pair's apparent rate wobbles where
    # its fourth-order error coefficient happens to near-cancel
    factors = []
    for dim, q_low, seed in ((2, 0, 110_000), (2, 0, 115_000),
                             (3, 0, 110_000), (3, 0, 115_000),
                             (3, 1, 117_000), (2, 1, 118_000)):
        residuals = {}
        for n in (48, 96):
            grid = GridSpec(dim, 3.0, n)
            em = gaussian_form(grid, q_low, seed + dim, decay=2.5)
            hm = gaussian_form(grid, q_low + 1, seed + dim + 1, decay=2.5)
            residuals[n] = stokes_pairing_residual(
                restrict_to_half(em.field()), restrict_to_half(hm.field()),
                restrict_to_half(assemble_d(em.partials())),
                restrict_to_half(assemble_delta(hm.partials())))
        factors.append(residuals[48] / residuals[96])
    catalog_rate = float(np.exp(np.mean(np.log(factors))))
    assert catalog_rate >= 8.0
    assert min(factors) >= 4.0
    worst_trace_free = 0.0
    for dim in (2, 3):
        grid = GridSpec(dim, 3.0, 32)
        for q in range(dim):
            e = gaussian_form(grid, q, 111_000 + 10 * dim + q, decay=2.5,
                              trace_free=True).field()
            h = gaussian_form(grid, q + 1, 112_000 + 10 * dim + q, decay=2.5,
                              trace_free=True).field()
            assert max_abs(trace_tangential(restrict_to_half(e))) == 0.0
            res = stokes_pairing_residual(
                restrict_to_half(e), restrict_to_half(h),
                restrict_to_half(exterior_d(e)),
                restrict_to_half(coderivative_delta(h)),
                quadrature="trapezoid")
            worst_trace_free = max(worst_trace_free,
                                   res / max(norm(e) * norm(h), 1e-300))
    assert worst_trace_free <= 1e-8
    _report("criterion-11 catalog refinement rate", catalog_rate, 8.0,
            mode=">=")
    _report("criterion-11 trace-free members", worst_trace_free, 1e-8)


# --------------------------------------------------------------------------
# 12. split reconstruction roundtrip, all ranks, N = 3
# --------------------------------------------------------------------------

def test_criterion_12_split_reconstruction():
    from formprobe.fields import split_tangential_normal
    from formprobe.media import reconstruct_from_split
    grid = GridSpec(3, 1.0, 12)
    worst = 0.0
    for i in range(50):
        q = i % 4
        e = random_band_limited(grid, q, 120_000 + i, real=False)
        eps = random_dense_media(grid, q, 120_500 + i, amplitude=0.5)
        tau, _ = split_tangential_normal(e)
        g_rho = split_tangential_normal(eps.apply(e))[1]
        worst = max(worst, rel_gap(reconstruct_from_split(tau, g_rho, eps), e))
    assert worst <= 1e-10
    _report("criterion-12 split reconstruction roundtrip", worst, 1e-10)


# --------------------------------------------------------------------------
# 13. classical dictionary for N = 3
# --------------------------------------------------------------------------

def test_criterion_13_vector_bridge():
    grid = GridSpec(3, 2.0, 16)
    worst = 0.0
    for i in range(50):
        v = VectorFieldN3(grid, np.stack(
            [random_band_limited(grid, 0, 130_000 + 3 * i + j).data[0]
             for j in range(3)]))
        res = bridge_residuals(v)
        worst = max(worst, max(res.values()))
        assert roundtrip_exact(v)
    assert worst <= 1e-10
    _report("criterion-13 grad/curl/div dictionary", worst, 1e-10)


# --------------------------------------------------------------------------
# 14. estimate probes: pinned bound for the Gaffney case, stability else
# --------------------------------------------------------------------------

def test_criterion_14_estimate_probes():
    pinned = estimate_probe_interior(2, 1, 0, 0.0, "id", ensemble=50,
                                     grid_points=16, seed=14)
    assert pinned.flags["gaffney_pinned_bound"]
    assert pinned.aggregates["sup_ratio"] <= 1.5
    assert pinned.flags["stable_under_doubling"]
    others = [
        estimate_probe_interior(2, 1, 1, -1.0, "scalar", ensemble=10,
                                grid_points=16, seed=14),
        estimate_probe_interior(3, 2, 0, 1.0, "id", ensemble=10,
                                grid_points=16, seed=14),
        estimate_probe_weighted(2, 1, 0, 0.0, tau=1.0, media="scalar",
                                ensemble=10, grid_points=16, seed=14),
        halfspace_probe(2, 0, 0, "id", ensemble=8, grid_points=32, seed=14),
        halfspace_probe(2, 2, 0, "id", ensemble=8, grid_points=32, seed=14),
        halfspace_probe(3, 1, 0, "scalar", ensemble=5, grid_points=48, seed=14),
    ]
    for report in others:
        assert report.flags["ratios_finite"]
        assert report.flags["stable_under_doubling"]
        assert report.passed, report.flags
    # the gradient-norm cases on the half-space carry the pinned bound too
    assert others[3].aggregates["sup_ratio"] <= 1.5
    assert others[4].aggregates["sup_ratio"] <= 1.5
    _report("criterion-14 Gaffney-pinned sup ratio",
            pinned.aggregates["sup_ratio"], 1.5)
    print("     (all other probe configurations: finite, drift <= 10%)")


# --------------------------------------------------------------------------
# 15. determinism of the CLI identities run and the runtime budget
# --------------------------------------------------------------------------

def test_criterion_15_determinism_and_runtime(tmp_path):
    start = time.perf_counter()
    out = []
    for tag in ("a", "b"):
        path = tmp_path / f"identities-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "formprobe.cli", "identities",
             "--dim", "3", "--grid", "32", "--seed", "1", "--out", str(path)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    assert out[0] == out[1]
    report = json.loads(out[0])
    assert report["passed"] is True
    assert elapsed <= 300.0
    _report("criterion-15 byte-identical reports; two runs",
            elapsed, 300.0)
