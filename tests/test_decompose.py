import math
import tracemalloc

import numpy as np
import pytest

from conftest import inverse_passes, max_abs, numpy_inverse, rel_gap
from formprobe.decompose import (_inv_symbol, hodge_decompose,
                                 potential_for_exact, solve_coderivative,
                                 split_orthogonality)
from formprobe.fields import FormField, GridSpec, apply_R, apply_T, l2_inner, norm
from formprobe.manufactured import (random_band_limited, random_coclosed,
                                    random_dense_media)
from formprobe.media import make_transformation, scalar_catalog
from formprobe.spectral import (coderivative_delta, exterior_d, fourier,
                                fourier_inverse, gaffney_identity_check,
                                harmonic_mask, spectral_sobolev_norm)


def mean_free(e):
    """e without its discrete harmonic modes (zero derivative symbol)."""
    hat = fourier(e)
    return fourier_inverse(hat.with_data(np.where(harmonic_mask(hat.grid), 0.0,
                                                  hat.data)))


def test_exact_input_is_projector_fixed_point():
    g = GridSpec(2, 2.0, 32)
    phi = mean_free(random_band_limited(g, 0, 3, real=False))
    e = exterior_d(phi)
    split = hodge_decompose(e)
    assert rel_gap(split.exact_part, e) <= 1e-12
    assert norm(split.coexact_part) <= 1e-12 * norm(e)
    assert norm(split.mean_part) <= 1e-12 * norm(e)


def test_coclosed_input_is_coexact_fixed_point():
    g = GridSpec(3, 2.0, 16)
    e = random_coclosed(g, 1, 5)
    split = hodge_decompose(e)
    assert rel_gap(split.coexact_part, e) <= 1e-12
    assert norm(split.exact_part) <= 1e-12 * norm(e)


def test_split_parts_resum_orthogonal_closed_coclosed():
    for dim in (2, 3):
        g = GridSpec(dim, 2.0, 16)
        for q in range(dim + 1):
            e = random_band_limited(g, q, 7 * q + dim, real=False)
            split = hodge_decompose(e)
            assert rel_gap(split.resum(), e) <= 1e-12
            assert split_orthogonality(split) <= 1e-10
            if q < dim:
                assert norm(exterior_d(split.exact_part)) <= 1e-10 * norm(e)
            if q > 0:
                assert norm(coderivative_delta(split.coexact_part)) \
                    <= 1e-10 * norm(e)


def test_projector_idempotence_and_annihilation():
    g = GridSpec(2, 2.0, 32)
    e = random_band_limited(g, 1, 9, real=False)
    split = hodge_decompose(e)
    again = hodge_decompose(split.exact_part)
    assert rel_gap(again.exact_part, split.exact_part) <= 1e-12
    assert norm(again.coexact_part) <= 1e-12 * norm(e)
    again = hodge_decompose(split.coexact_part)
    assert rel_gap(again.coexact_part, split.coexact_part) <= 1e-12
    assert norm(again.exact_part) <= 1e-12 * norm(e)


def test_mean_part_holds_constant_fields():
    g = GridSpec(2, 1.0, 16)
    const = FormField.from_components(g, 1, {(1,): 2.0, (2,): -1.0})
    split = hodge_decompose(const)
    assert rel_gap(split.mean_part, const) <= 1e-13
    assert norm(split.exact_part) + norm(split.coexact_part) <= 1e-13


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potential_for_gradient_of_sine():
    g = GridSpec(2, 2.0, 32)
    x1 = g.coord_field(1)
    phi0 = FormField.from_components(g, 0, {(): np.sin(np.pi * x1 / 2.0)
                                            + 0 * g.coord_field(2)})
    e = exterior_d(phi0)
    phi = potential_for_exact(e)
    # equal up to the (removed) additive constant
    assert rel_gap(exterior_d(phi), e) <= 1e-10
    assert rel_gap(phi, phi0) <= 1e-10   # sine is already mean-free


def test_potential_roundtrip_and_coclosedness():
    g = GridSpec(3, 2.0, 16)
    for q in range(1, 4):
        e = hodge_decompose(random_band_limited(g, q, 3 * q, real=False)).exact_part
        phi = potential_for_exact(e)
        assert norm(exterior_d(phi) - e) <= 1e-10 * max(norm(e), 1e-300)
        if q >= 2:
            assert norm(coderivative_delta(phi)) <= 1e-10 * norm(phi)


def test_potential_zero_input():
    g = GridSpec(2, 1.0, 8)
    assert max_abs(potential_for_exact(FormField.zeros(g, 1))) == 0.0


def test_potential_rejects_non_closed_input():
    g = GridSpec(2, 2.0, 16)
    e = random_band_limited(g, 1, 13, real=False)  # generic: not closed
    with pytest.raises(ValueError):
        potential_for_exact(mean_free(e))


# ---------------------------------------------------------------------------
# co-derivative solver
# ---------------------------------------------------------------------------

def test_solver_analytic_coclosed_example():
    # E = cos(pi x_3 / L) dx^1 is co-closed with zero mean (N = 3)
    g = GridSpec(3, 2.0, 16)
    x3 = g.coord_field(3)
    comp = np.broadcast_to(np.cos(np.pi * x3 / 2.0), g.shape)
    e = FormField.from_components(g, 1, {(1,): comp})
    sol = solve_coderivative(e)
    assert sol.residual <= 1e-10
    assert not sol.outside_lemma_hypothesis
    assert norm(coderivative_delta(sol.potential) - e) <= 1e-10 * norm(e)


def test_solver_zero_input():
    g = GridSpec(3, 1.0, 8)
    sol = solve_coderivative(FormField.zeros(g, 1))
    assert max_abs(sol.potential) == 0.0
    assert sol.h1_ratio == 0.0


def test_solver_flags_dimension_two():
    g = GridSpec(2, 2.0, 16)
    e = random_coclosed(g, 0, 3)
    sol = solve_coderivative(e)
    assert sol.outside_lemma_hypothesis
    assert sol.residual <= 1e-10


def test_solver_rejects_non_coclosed_and_mean():
    g = GridSpec(3, 2.0, 16)
    generic = mean_free(random_band_limited(g, 1, 17, real=False))
    with pytest.raises(ValueError, match="co-closed"):
        solve_coderivative(generic)
    const = FormField.from_components(g, 1, {(1,): 1.0})
    with pytest.raises(ValueError, match="zero-mean"):
        solve_coderivative(const)
    # closed too: the potential's harmonic check rejects it, not its d check
    with pytest.raises(ValueError, match="zero-mean"):
        potential_for_exact(const)


def test_solver_residual_matches_position_space():
    # the residual is taken on the spectrum; delta H - E in position space
    # must give the same value up to round-off
    for dim in (3, 4):
        g = GridSpec(dim, 2.0, 16)
        for q in range(dim):
            e = random_coclosed(g, q, 40 * dim + q, kmax=4)
            sol = solve_coderivative(e)
            direct = norm(coderivative_delta(sol.potential) - e) / norm(e)
            assert abs(sol.residual - direct) <= 1e-14


def test_solver_and_potential_transform_budget(fft_calls):
    # solve: E forward, H back; potential: E forward, phi back; a real
    # field takes the real transforms, a complex one the complex ones, and
    # each inverse is its passes, one per node axis
    for real, forward in ((False, "fftn"), (True, "rfftn")):
        for dim in (3, 4):
            budget = [forward] + inverse_passes(dim, real)
            g = GridSpec(dim, 2.0, 8)
            for q in range(dim + 1):
                split = hodge_decompose(random_band_limited(g, q, 11 * dim + q,
                                                            real=real))
                if q < dim:
                    fft_calls.clear()
                    solve_coderivative(split.coexact_part)
                    assert fft_calls == budget
                if q > 0:
                    fft_calls.clear()
                    potential_for_exact(split.exact_part)
                    assert fft_calls == budget


def _full_route_solve(e):
    """solve_coderivative made the long way: every step a fresh array and
    H inverted by numpy's n-d transform."""
    hat = fourier(e)
    r2 = hat.grid.freq_radius_sq()
    scale = max(norm(e), 1e-300)
    h_hat = apply_R(hat)
    h_hat = h_hat.with_data(-1j * _inv_symbol(r2) * h_hat.data)
    residual = norm(1j * apply_T(h_hat) - hat) / scale
    l2_sq = norm(h_hat) ** 2
    grad_sq = l2_inner(h_hat.scale_pointwise(r2), h_hat).real
    return (numpy_inverse(h_hat.data, hat.grid), residual,
            math.sqrt(l2_sq + grad_sq) / scale, math.sqrt(l2_sq) / scale,
            math.sqrt(grad_sq) / scale)


@pytest.mark.parametrize("dim, n", ((2, 16), (3, 12), (4, 10)))
def test_solver_is_bitwise_the_full_route(dim, n):
    # scaling in place, the residual in one buffer and H inverted in its
    # own buffer change no bit of the potential or of the four ratios
    g = GridSpec(dim, 2.0, n)
    for kmax in (None, 2, 4):
        for q in range(dim):
            for e in (random_coclosed(g, q, 30 * dim + q, kmax),
                      hodge_decompose(random_band_limited(g, q, 40 * dim + q, kmax,
                                                         real=False)).coexact_part):
                sol = solve_coderivative(e)
                potential, *ratios = _full_route_solve(e)
                assert sol.potential.data.tobytes() == potential.tobytes()
                assert [sol.residual, sol.h1_ratio, sol.l2_ratio,
                        sol.gradient_ratio] == ratios


def test_solver_holds_one_work_array_beside_the_spectra():
    # N = 4, rank 1: the spectra of E and H, one H-sized work array and the
    # symbol arrays; the full-size temporaries of every step peaked at 4.2x
    # the bytes of H
    g = GridSpec(4, 2.0, 16)
    e = random_coclosed(g, 1, 7, kmax=4)
    solve_coderivative(e)  # warm the cached sign tables
    tracemalloc.start()
    sol = solve_coderivative(e)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3.5 * sol.potential.data.nbytes


def test_solver_h1_bound_shape():
    # both pieces of the H^1 energy are reported and consistent:
    # ||H||^2 + |||xi| F(H)||^2 = ||H||_{H^1}^2
    g = GridSpec(3, 2.0, 16)
    e = random_coclosed(g, 1, 23)
    sol = solve_coderivative(e)
    assert np.isfinite(sol.l2_ratio) and np.isfinite(sol.gradient_ratio)
    assert sol.l2_ratio ** 2 + sol.gradient_ratio ** 2 \
        == pytest.approx(sol.h1_ratio ** 2, rel=1e-12)
    assert spectral_sobolev_norm(sol.potential, 1.0) \
        == pytest.approx(sol.h1_ratio * norm(e), rel=1e-12)


def test_solver_gaffney_consistency():
    # for H with delta H = E: grad energy = ||dH||^2 + ||E||^2
    g = GridSpec(3, 2.0, 16)
    e = random_coclosed(g, 1, 29)
    sol = solve_coderivative(e)
    report = gaffney_identity_check(sol.potential)
    direct = norm(exterior_d(sol.potential)) ** 2 + norm(e) ** 2
    assert report.gradient_sq == pytest.approx(direct, rel=1e-8)


def test_solver_ensemble_ratio_stable_under_doubling():
    ratios = {}
    for n in (16, 32):
        g = GridSpec(3, 2.0, n)
        sup = 0.0
        for i in range(20):
            e = random_coclosed(g, 1, 100 + i, kmax=4)
            if norm(e) == 0.0:
                continue
            sup = max(sup, solve_coderivative(e).h1_ratio)
        ratios[n] = sup
    assert abs(ratios[16] - ratios[32]) <= 0.10 * ratios[32]


# ---------------------------------------------------------------------------
# material-weighted variant
# ---------------------------------------------------------------------------

def test_weighted_split_resums_and_coexact_is_material_coclosed():
    g = GridSpec(2, 3.0, 32)
    eps = scalar_catalog(g, "gauss_well", amplitude=0.6, width=1.0)
    e = random_band_limited(g, 1, 31, real=False)
    split = hodge_decompose(e, eps=eps)
    assert rel_gap(split.resum(), e) <= 1e-12
    assert norm(exterior_d(split.exact_part)) <= 1e-10 * norm(e)
    material = coderivative_delta(eps.apply(split.coexact_part))
    assert norm(material) <= 1e-6 * norm(e)
    assert split.iterations > 0


def _assert_split_contracts(split, e, eps, tol=1e-8):
    """Parts resum to E, d(exact) = 0 and ||delta(eps C)|| is within the
    bound the stopping rule gives: |xi|_max * lambda_max * tol * ||E||."""
    assert rel_gap(split.resum(), e) <= 1e-12
    assert norm(exterior_d(split.exact_part)) <= 1e-10 * norm(e)
    material = coderivative_delta(eps.apply(split.coexact_part))
    xi_max = float(np.sqrt(e.grid.freq_radius_sq().max()))
    assert norm(material) <= xi_max * eps.report.max_rayleigh * tol * norm(e)
    assert split.update_history[-1] == split.fixed_point_residual <= tol
    assert len(split.update_history) == split.iterations + 1


def test_weighted_split_high_contrast_converges():
    # contrast far above the contraction threshold of a damping-one loop
    g = GridSpec(2, 3.0, 16)
    eps = scalar_catalog(g, "gauss_well", amplitude=60.0, width=0.05)
    e = random_band_limited(g, 1, 37, real=False)
    _assert_split_contracts(hodge_decompose(e, eps=eps), e, eps)


def test_weighted_split_benchmark_materials_converge():
    # the amplitudes where the reference medium 1 made the iteration diverge
    g = GridSpec(3, 3.0, 32)
    e = random_band_limited(g, 1, 2011)
    for amplitude in (1.1, 3.0):
        eps = scalar_catalog(g, "gauss_well", amplitude=amplitude, width=1.0)
        _assert_split_contracts(hodge_decompose(e, eps=eps), e, eps)


def test_weighted_split_iterations_follow_sqrt_contrast():
    g = GridSpec(2, 3.0, 32)
    eps = scalar_catalog(g, "gauss_well", amplitude=200.0, width=0.3)
    kappa = eps.report.max_rayleigh / eps.report.min_rayleigh
    assert 90.0 <= kappa <= 110.0
    e = random_band_limited(g, 1, 5, real=False)
    split = hodge_decompose(e, eps=eps)
    _assert_split_contracts(split, e, eps)
    # far below the max_iter default of 200, far above the ~10 steps at
    # contrast 2: the count grows like sqrt(kappa)
    assert 30 <= split.iterations <= 100


def test_weighted_split_dense_material():
    g = GridSpec(3, 3.0, 16)
    eps = random_dense_media(g, 1, 7, amplitude=0.9)
    e = random_band_limited(g, 1, 9, real=False)
    _assert_split_contracts(hodge_decompose(e, eps=eps), e, eps)


def test_weighted_split_unconverged_raises():
    g = GridSpec(2, 3.0, 32)
    eps = scalar_catalog(g, "gauss_well", amplitude=0.6, width=1.0)
    e = random_band_limited(g, 1, 31, real=False)
    # the message quotes the last three update sizes
    with pytest.raises(RuntimeError,
                       match=r"did not converge .*last updates \S+, \S+, \S+\)$"):
        hodge_decompose(e, eps=eps, max_iter=2)


def test_weighted_split_indefinite_material_raises():
    # admissibility bypassed: 1 + mu dips to -0.5, so P eps P is indefinite
    g = GridSpec(2, 3.0, 16)
    eps = make_transformation(g, None, "scalar",
                              hat=-1.5 * np.exp(-g.radius_sq()),
                              positivity_floor=-10.0)
    e = random_band_limited(g, 1, 37, real=False)
    with pytest.raises(RuntimeError, match="did not converge .*curvature"):
        hodge_decompose(e, eps=eps)


def _as_complex(e: FormField) -> FormField:
    return e.with_data(e.data.astype(complex))


def _check_routes(real: FormField, full: FormField, what: str, scale: float):
    """Float64 on the real route, complex128 on the complex one, and the two
    agree to 1e-13 relative to ``scale`` (the input size: a split part may
    vanish)."""
    assert real.data.dtype == np.float64, what
    assert full.data.dtype == np.complex128, what
    assert norm(real - full) <= 1e-13 * scale, what


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_solvers_keep_real_fields_real_and_agree_with_complex_route(dim):
    g = GridSpec(dim, 2.0, 8 if dim == 4 else 16)
    for q in range(dim + 1):
        if q < dim:
            e = random_coclosed(g, q, 31 * dim + q, kmax=3)
            real, full = solve_coderivative(e), solve_coderivative(_as_complex(e))
            _check_routes(real.potential, full.potential, f"solve q={q}",
                          norm(full.potential))
            for name in ("h1_ratio", "l2_ratio", "gradient_ratio"):
                a, b = getattr(real, name), getattr(full, name)
                assert abs(a - b) <= 1e-13 * b, name
            assert max(real.residual, full.residual) <= 1e-13
        e = random_band_limited(g, q, 37 * dim + q)
        materials = [None, scalar_catalog(g, "gauss_well", amplitude=0.5),
                     random_dense_media(g, q, 41 * dim + q, amplitude=0.4)]
        for eps in materials:
            real, full = hodge_decompose(e, eps), hodge_decompose(_as_complex(e), eps)
            assert real.iterations == full.iterations
            for part in ("exact_part", "coexact_part", "mean_part"):
                _check_routes(getattr(real, part), getattr(full, part),
                              f"{part} q={q} eps={eps and eps.kind}", norm(e))
            if eps is None and q > 0:
                phi = potential_for_exact(full.exact_part)
                _check_routes(potential_for_exact(real.exact_part), phi,
                              f"potential q={q}", norm(phi))
