import math
import tracemalloc

import numpy as np
import pytest

from conftest import rel_gap
from formprobe.fields import FormField, GridSpec, apply_R, apply_T, l2_inner
from formprobe.manufactured import gaussian_form, random_band_limited
from formprobe.media import scalar_catalog
from formprobe import weights
from formprobe.probes import _interior_sample
from formprobe.spectral import coderivative_delta, exterior_d, fourier
from formprobe.weights import (BOLD, ROMAN, NormSpec, annulus_split_bound,
                               rho_power, weighted_sobolev_norm)


def test_rho_basics():
    g = GridSpec(2, 1.0, 16)
    w = rho_power(g, 1.0)
    assert w.min() >= 1.0
    assert w[8, 8] == pytest.approx(1.0)  # origin
    assert np.allclose(rho_power(g, 2.0), 1.0 + g.radius_sq())


def test_normspec_validation():
    with pytest.raises(ValueError):
        NormSpec(-1, 0.0)
    with pytest.raises(ValueError):
        NormSpec(1, 0.0, "cursive")
    spec = NormSpec(2, 1.0, BOLD)
    assert spec.exponent(0) == 1.0 and spec.exponent(2) == 3.0
    assert NormSpec(2, 1.0, ROMAN).exponent(2) == 1.0


def test_order_zero_norms_coincide_with_weighted_l2():
    g = GridSpec(2, 3.0, 32)
    e = gaussian_form(g, 1, 3).field()
    for s in (-1.0, 0.0, 2.0):
        l2 = math.sqrt(l2_inner(e, e, weight_exponent=s).real)
        assert weighted_sobolev_norm(e, NormSpec(0, s, ROMAN)) \
            == pytest.approx(l2, rel=1e-12)
        assert weighted_sobolev_norm(e, NormSpec(0, s, BOLD)) \
            == pytest.approx(l2, rel=1e-12)


def test_strong_scale_dominates_plain_scale():
    g = GridSpec(2, 3.0, 32)
    e = gaussian_form(g, 0, 5).field()
    for s in (-1.0, 0.0, 1.0):
        for m in (1, 2):
            bold = weighted_sobolev_norm(e, NormSpec(m, s, BOLD))
            roman = weighted_sobolev_norm(e, NormSpec(m, s, ROMAN))
            assert bold >= roman * (1 - 1e-13)


def test_order_one_norm_refinement_oracle():
    # Gaussian bump, m=1, s=-1 against the doubled-resolution value
    values = {}
    for n in (48, 96):
        g = GridSpec(2, 3.0, n)
        e = gaussian_form(g, 0, 11, decay=3.0).field()
        values[n] = weighted_sobolev_norm(e, NormSpec(1, -1.0, ROMAN))
    assert values[48] == pytest.approx(values[96], rel=1e-6)


def test_order_one_norm_quadrature_oracle():
    # independent check: assemble the same value from componentwise pieces
    g = GridSpec(2, 3.0, 48)
    member = gaussian_form(g, 1, 13, decay=3.0)
    e = member.field()
    s = -0.5
    total = l2_inner(e, e, weight_exponent=s).real
    for axis in (1, 2):
        de = member.partial(axis).field()
        total += l2_inner(de, de, weight_exponent=s).real
    expected = math.sqrt(total)
    got = weighted_sobolev_norm(e, NormSpec(1, s, ROMAN))
    assert got == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("scale", (ROMAN, BOLD))
def test_norm_agrees_across_position_and_frequency_space(scale):
    g = GridSpec(2, 3.0, 32)
    e = gaussian_form(g, 1, 41, decay=3.0).field()
    hat = fourier(e)
    for m in (0, 1, 2, 3):
        for s in (-1.0, 0.0, 1.5):
            spec = NormSpec(m, s, scale)
            assert weighted_sobolev_norm(hat, spec) \
                == pytest.approx(weighted_sobolev_norm(e, spec), rel=1e-12)


def test_norm_transform_counts(monkeypatch):
    g = GridSpec(2, 3.0, 16)
    e = gaussian_form(g, 1, 43).field()
    hat = fourier(e)
    counts = {"forward": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(field):
            counts[name] += 1
            return fn(field)
        return wrapper

    monkeypatch.setattr(weights, "fourier", counted("forward", weights.fourier))
    monkeypatch.setattr(weights, "fourier_inverse",
                        counted("inverse", weights.fourier_inverse))
    monkeypatch.setattr(weights, "_inverse_in_place",
                        counted("inverse", weights._inverse_in_place))

    def made(field, spec):
        counts.update(forward=0, inverse=0)
        weighted_sobolev_norm(field, spec)
        return counts["forward"], counts["inverse"]

    # zero weight: one forward transform of a position field, no inverse
    assert made(e, NormSpec(2, 0.0, ROMAN)) == (1, 0)
    assert made(hat, NormSpec(2, 0.0, ROMAN)) == (0, 0)
    # order 0 needs no derivative, whatever the weight
    assert made(e, NormSpec(0, 1.5, ROMAN)) == (0, 0)
    assert made(e, NormSpec(0, 0.0, ROMAN)) == (0, 0)
    # one inverse per weighted derivative term, here the two first partials
    assert made(e, NormSpec(1, 0.0, BOLD)) == (1, 2)
    assert made(hat, NormSpec(1, 0.0, BOLD)) == (0, 2)


def test_weighted_terms_invert_in_their_own_buffer():
    # F(E), one derivative term's spectrum and its inverse, with no copy of
    # that spectrum: the term is inverted in its own buffer
    e = gaussian_form(GridSpec(3, 3.0, 32), 1, 0).field()
    tracemalloc.start()
    weighted_sobolev_norm(e, NormSpec(1, 1.0, ROMAN))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3.5 * e.data.nbytes


def test_order_cap_reported():
    g = GridSpec(2, 1.0, 16)
    e = FormField.zeros(g, 0)
    with pytest.raises(ValueError):
        weighted_sobolev_norm(e, NormSpec(4, 0.0, ROMAN))
    # explicit opt-in raises the cap
    weighted_sobolev_norm(random_band_limited(g, 0, 1), NormSpec(4, 0.0, ROMAN),
                          max_order=4)


def test_monotone_inclusion_chain():
    g = GridSpec(2, 3.0, 32)
    e = gaussian_form(g, 0, 7).field()
    for s in (-1.0, 0.0, 1.5):
        for m in (1, 2):
            bold = weighted_sobolev_norm(e, NormSpec(m, s, BOLD))
            roman = weighted_sobolev_norm(e, NormSpec(m, s, ROMAN))
            lower = weighted_sobolev_norm(e, NormSpec(m, s - m, BOLD))
            assert bold >= roman * (1 - 1e-13) >= lower * (1 - 1e-13) ** 2


# ---------------------------------------------------------------------------
# weight commutators (the multiplication-operator identity behind the
# weighted estimates)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", (2, 3))
def test_weight_commutator_for_d_and_delta(dim):
    g = GridSpec(dim, 3.0, 64)
    for q in range(dim + 1):
        e = gaussian_form(g, q, seed=3 * q, decay=3.0).field()
        for s in (-2.0, -1.0, 1.0, 2.0):
            weight = rho_power(g, s)
            corr = s * rho_power(g, s - 2.0)
            weighted = e.scale_pointwise(weight)
            if q < dim:
                lhs = exterior_d(weighted)
                rhs = exterior_d(e).scale_pointwise(weight) \
                    + apply_R(e).scale_pointwise(corr)
                assert rel_gap(lhs, rhs) <= 1e-8
            if q > 0:
                lhs = coderivative_delta(weighted)
                rhs = coderivative_delta(e).scale_pointwise(weight) \
                    + apply_T(e).scale_pointwise(corr)
                assert rel_gap(lhs, rhs) <= 1e-8


def test_spectral_norm_equivalent_to_derivative_sum_norm():
    # for integer order and weight exponent zero the Bessel-potential norm
    # and the derivative-sum norm differ by constants fixed by (m, N)
    from formprobe.spectral import spectral_sobolev_norm
    g = GridSpec(2, 2.0, 32)
    for m in (1, 2):
        lo, hi = np.inf, 0.0
        for seed in range(5):
            e = random_band_limited(g, 1, 200 + seed, real=False)
            ratio = spectral_sobolev_norm(e, float(m)) \
                / weighted_sobolev_norm(e, NormSpec(m, 0.0, ROMAN))
            lo, hi = min(lo, ratio), max(hi, ratio)
        assert 0.1 <= lo <= hi <= 10.0


def test_annulus_split_bound_holds_and_rejects_bad_tau():
    g = GridSpec(2, 3.0, 32)
    e = random_band_limited(g, 1, 31)
    for theta in (0.5, 1.0, 2.0):
        for tau in (0.5, 1.0, 2.0):
            out = annulus_split_bound(e, -0.5, tau, theta)
            assert out["holds"]
            expected_c = max((1.0 + theta ** 2) ** (1.0 - tau), 1.0)
            assert out["c_theta"] == pytest.approx(expected_c)
    with pytest.raises(ValueError):
        annulus_split_bound(e, 0.0, 0.0, 1.0)


def test_weighted_norms_agree_on_real_and_complex_routes():
    # a real member takes the half spectrum, the same field held complex the
    # full one; every norm agrees to 1e-13 relative, in either space
    g = GridSpec(3, 3.0, 16)
    eps = scalar_catalog(g, "gauss_well", amplitude=0.5)
    for q in range(4):
        e = gaussian_form(g, q, 5 + q, decay=3.0).field()
        c = e.with_data(e.data.astype(complex))
        assert e.data.dtype == np.float64
        for spec in (NormSpec(2, 0.0), NormSpec(1, 1.0, BOLD), NormSpec(2, -1.0)):
            for a, b in ((e, c), (fourier(e), fourier(c))):
                real, full = weighted_sobolev_norm(a, spec), weighted_sobolev_norm(b, spec)
                assert abs(real - full) <= 1e-13 * full
        # the probe's rows: dE and delta(eps E) through the weighted norms
        real, full = (_interior_sample(f, eps, 1, 1.0, BOLD)[0] for f in (e, c))
        for key in ("numerator", "denominator"):
            assert abs(real[key] - full[key]) <= 1e-13 * full[key]
