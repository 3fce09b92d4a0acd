import math

import numpy as np
import pytest

from conftest import max_abs, rel_gap
from formprobe.fields import (FormField, GridSpec, derivative_orders, l2_inner,
                              multi_indices, norm, split_tangential_normal)
from formprobe.manufactured import random_band_limited, random_dense_media
from formprobe.media import (AdmissibilityError, PolyRhoGauss,
                             make_transformation, reconstruct_from_split,
                             reflected_transform, scalar_catalog)
from formprobe.probes import _media_decays


def test_identity_transformation():
    g = GridSpec(2, 1.0, 16)
    eps = make_transformation(g, 1, "identity")
    assert eps.report.min_rayleigh == 1.0
    e = random_band_limited(g, 1, 3)
    assert eps.apply(e) is e


def test_scalar_gauss_well_admissibility():
    g = GridSpec(2, 3.0, 32)
    eps = scalar_catalog(g, "gauss_well", amplitude=1.0, width=1.0)
    assert eps.report.min_rayleigh >= 1.0
    assert eps.report.symmetric


def test_positivity_rejection_with_worst_node():
    g = GridSpec(2, 1.0, 8)
    # one node carries a symmetric perturbation with eigenvalue -1.1,
    # putting an eigenvalue of the full matrix at -0.1
    hat = np.zeros((2, 2) + g.shape)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    bad = rot @ np.diag([-1.1, 0.0]) @ rot.T
    hat[:, :, 3, 5] = bad
    with pytest.raises(AdmissibilityError) as err:
        make_transformation(g, 1, "dense", hat=hat)
    assert err.value.report.worst_node == (3, 5)
    assert err.value.report.min_rayleigh == pytest.approx(-0.1, abs=1e-12)


def test_symmetry_rejection():
    g = GridSpec(2, 1.0, 8)
    hat = np.zeros((2, 2) + g.shape)
    hat[0, 1] = 0.1
    with pytest.raises(AdmissibilityError, match="symmetry"):
        make_transformation(g, 1, "dense", hat=hat)


def test_nan_coefficient_is_rejected():
    # NaN compares false with the floor, so it must fail "min >= floor"
    g = GridSpec(2, 1.0, 8)
    one_node = np.zeros((2, 2) + g.shape)
    one_node[1, 1, 3, 5] = np.nan
    cases = [(lambda: make_transformation(g, None, "scalar",
                                          hat=np.full(g.shape, np.nan)), (0, 0)),
             (lambda: scalar_catalog(g, "gauss_well", amplitude=math.nan), (0, 0)),
             (lambda: make_transformation(g, 1, "dense",
                                          hat=np.full((2, 2) + g.shape, np.nan)),
              (0, 0)),
             (lambda: make_transformation(g, 1, "dense", hat=one_node), (3, 5))]
    for build, node in cases:
        with pytest.raises(AdmissibilityError, match="positivity violation") as err:
            build()
        assert math.isnan(err.value.report.min_rayleigh)
        assert err.value.report.worst_node == node


def test_apply_inverse_roundtrip_scalar_and_dense():
    g = GridSpec(2, 3.0, 16)
    e = random_band_limited(g, 1, 5, real=False)
    scalar = scalar_catalog(g, "gauss_well", amplitude=1.0, width=1.0)
    assert rel_gap(scalar.apply_inverse(scalar.apply(e)), e) <= 1e-12
    dense = random_dense_media(g, 1, 7, amplitude=0.5)
    assert rel_gap(dense.apply_inverse(dense.apply(e)), e) <= 1e-12


def test_symmetric_pairing():
    g = GridSpec(2, 3.0, 16)
    e = random_band_limited(g, 1, 11, real=False)
    h = random_band_limited(g, 1, 13, real=False)
    for eps in (scalar_catalog(g, "gauss_well"),
                random_dense_media(g, 1, 17, amplitude=0.5)):
        lhs = l2_inner(eps.apply(e), h)
        rhs = l2_inner(e, eps.apply(h))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_rank_binding_enforced():
    g = GridSpec(2, 1.0, 8)
    dense = random_dense_media(g, 1, 3)
    with pytest.raises(ValueError):
        dense.apply(FormField.zeros(g, 2))


# ---------------------------------------------------------------------------
# entry partials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", (GridSpec(2, 3.0, 32), GridSpec(3, 3.0, 16)))
def test_catalog_partials_match_hand_formulas(grid, monkeypatch):
    calls = []
    monkeypatch.setattr(PolyRhoGauss, "partial",
                        lambda self, axis, f=PolyRhoGauss.partial:
                        calls.append(axis) or f(self, axis))
    a, w, tau = 0.7, 1.3, 1.5
    params = {"gauss_well": {"amplitude": a, "width": w},
              "radial_power": {"amplitude": a, "tau": tau}}
    r2 = grid.radius_sq()
    coords = grid.coord_fields()
    gauss = a * np.exp(-w * r2)

    def power(p):  # a (1 + r^2)^(-tau/2 - p)
        return a * (1.0 + r2) ** (-tau / 2.0 - p)

    # first partials, and d_i d_j with delta_ij = (i == j)
    formulas = {
        "gauss_well": ([-2.0 * w * x * gauss for x in coords],
                       lambda i, j: (4.0 * w * w * coords[i] * coords[j]
                                     - 2.0 * w * (i == j)) * gauss),
        "radial_power": ([-tau * x * power(1) for x in coords],
                         lambda i, j: tau * (tau + 2.0) * coords[i] * coords[j]
                         * power(2) - tau * (i == j) * power(1))}
    for tag, (first, second) in formulas.items():
        eps = scalar_catalog(grid, tag, **params[tag])
        # no partial is evaluated until one is asked for, then all at once
        assert calls == []
        for axis, ref in enumerate(first, start=1):
            got = eps.partial_array(axis)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert calls == list(range(1, grid.dim + 1))
        # the closed form's second partials, in either order
        for i in range(grid.dim):
            for j in range(grid.dim):
                ref = second(i, j)
                got = eps.hat_calculus.partial(i + 1).partial(j + 1).eval(grid)
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        calls.clear()


@pytest.mark.parametrize("dim", (2, 3))
def test_reflected_closed_form_partials(dim):
    g = GridSpec(dim, 3.0, 32 if dim == 2 else 16)

    def power(a1, an):  # x_1^a1 x_N^an
        return (a1,) + (0,) * (dim - 2) + (an,)

    # odd and even powers of x_N, below 1e-16 on the box faces, where the
    # periodic grid action of x_N -> -x_N identifies -L with L
    entry = PolyRhoGauss({0.0: {power(0, 0): 0.5, power(1, 0): 0.3,
                                power(0, 1): 0.4, power(0, 2): -0.2,
                                power(1, 1): 0.1, power(0, 3): 0.05}}, 6.0)
    eps = make_transformation(g, None, "scalar", hat_calculus=entry)
    moved = reflected_transform(eps)
    target = PolyRhoGauss({0.0: {alpha: c * (-1) ** alpha[-1]
                                 for alpha, c in entry.terms[0.0].items()}},
                          entry.decay)
    pairs = [(moved.hat, target.eval(g).real)]
    pairs += [(moved.partial_array(axis), target.partial(axis).eval(g).real)
              for axis in range(1, dim + 1)]
    for got, ref in pairs:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _partials(entry, alpha):
    for axis, count in enumerate(alpha, start=1):
        for _ in range(count):
            entry = entry.partial(axis)
    return entry


def test_reflected_catalog_keeps_exact_decay_check():
    # each partial decays one order faster, and the reflection keeps orders
    g = GridSpec(3, 3.0, 8)
    for tau in (0.5, 1.0, 2.5):
        eps = scalar_catalog(g, "radial_power", amplitude=0.5, tau=tau)
        moved = reflected_transform(eps)
        for entry in (eps.hat_calculus, moved.hat_calculus):
            for order, alpha in enumerate(((0, 0, 0), (1, 0, 0), (1, 1, 0),
                                           (1, 1, 1))):
                assert _partials(entry, alpha).decay_order() == tau + order
        assert _media_decays(moved, tau) and not _media_decays(moved, tau + 1)
    well = reflected_transform(scalar_catalog(g, "gauss_well", width=0.05))
    assert _partials(well.hat_calculus, (1, 1, 1)).decay_order() == math.inf


# ---------------------------------------------------------------------------
# split reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_identity_material():
    g = GridSpec(3, 1.0, 8)
    e = random_band_limited(g, 2, 3, real=False)
    tau, rho = split_tangential_normal(e)
    eps = make_transformation(g, 2, "identity")
    rebuilt = reconstruct_from_split(tau, rho, eps)
    assert rel_gap(rebuilt, e) == 0.0


@pytest.mark.parametrize("rank", (0, 1, 2, 3))
def test_reconstruct_roundtrip_random_media(rank):
    g = GridSpec(3, 1.0, 12)
    e = random_band_limited(g, rank, 5 + rank, real=False)
    eps = random_dense_media(g, rank, 31 * (rank + 1), amplitude=0.5)
    tau, _ = split_tangential_normal(e)
    g_rho = split_tangential_normal(eps.apply(e))[1]
    rebuilt = reconstruct_from_split(tau, g_rho, eps)
    assert rel_gap(rebuilt, e) <= 1e-10


def test_reconstruct_top_rank_is_full_inverse():
    # every index of a top-rank form contains N: the solve is a full inverse
    g = GridSpec(2, 1.0, 12)
    e = random_band_limited(g, 2, 7, real=False)
    eps = random_dense_media(g, 2, 9, amplitude=0.5)
    tau, _ = split_tangential_normal(e)
    assert max_abs(tau) == 0.0
    rebuilt = reconstruct_from_split(tau, eps.apply(e), eps)
    assert rel_gap(rebuilt, eps.apply_inverse(eps.apply(e))) <= 1e-12


def test_singular_normal_block_reported():
    g = GridSpec(2, 1.0, 8)
    hat = np.zeros((2, 2) + g.shape)
    hat[1, 1, 2, 2] = -1.0   # kills the (2,) fiber entry at one node
    eps = make_transformation(g, 1, "dense", hat=hat, positivity_floor=-10.0)
    rhs = random_band_limited(g, 1, 3)
    with pytest.raises(AdmissibilityError, match="singular"):
        eps.solve_rho_block(rhs)


# ---------------------------------------------------------------------------
# transport under the boundary reflection
# ---------------------------------------------------------------------------

def test_reflection_fixes_identity():
    g = GridSpec(3, 1.0, 8)
    for q in range(4):
        nc = len(FormField.zeros(g, q).data)
        dense_id = make_transformation(g, q, "dense",
                                       hat=np.zeros((nc, nc) + g.shape))
        refl = reflected_transform(dense_id)
        assert np.abs(refl.hat).max() == 0.0


def test_reflection_moves_scalar_coefficient():
    g = GridSpec(2, 2.0, 16)
    x1, x2 = g.coord_fields()
    hat = np.exp(-((x1 - 0.3) ** 2) - (x2 - 0.5) ** 2) * 0.5
    hat = np.broadcast_to(hat, g.shape).copy()
    eps = make_transformation(g, None, "scalar", hat=hat)
    moved = reflected_transform(eps)
    n = g.points
    idx = (-np.arange(n)) % n
    assert np.allclose(moved.hat, hat[:, idx], atol=1e-14)


def _reflect_form(e):
    """R^* E for R(x', x_N) = (x', -x_N): each component at R x, negated
    where its index holds N."""
    dim, n = e.grid.dim, e.grid.points
    flip = (-np.arange(n)) % n
    signs = [-1.0 if dim in mi else 1.0 for mi in multi_indices(dim, e.rank)]
    return e.with_data(np.stack([s * np.take(comp, flip, axis=-1)
                                 for s, comp in zip(signs, e.data)]))


def test_reflection_is_involution_and_preserves_admissibility():
    for dim in (2, 3):
        g = GridSpec(dim, 1.0, 12)
        for q in range(dim + 1):
            eps = random_dense_media(g, q, 3 + q, amplitude=0.4)
            refl = reflected_transform(eps)
            assert refl.report.min_rayleigh > 0
            twice = reflected_transform(refl)
            assert twice.hat.tobytes() == eps.hat.tobytes()
            # the reflected medium acts as R^* o eps o R^*
            e = random_band_limited(g, q, 7 + q, real=False)
            ref = _reflect_form(eps.apply(_reflect_form(e)))
            assert max_abs(refl.apply(e) - ref) <= 1e-14 * max_abs(ref)


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------

def test_gauss_well_is_second_kind_for_every_tau():
    # decays faster than any power, however wide: media_decays at any tau
    g = GridSpec(2, 3.0, 16)
    for width in (0.05, 0.2, 1.0):
        eps = scalar_catalog(g, "gauss_well", width=width)
        assert eps.hat_calculus.decay_order() == math.inf
        for tau in (1.0, 2.0, 4.0):
            assert _media_decays(eps, tau)
    # a negative width grows faster than any power
    growing = scalar_catalog(g, "gauss_well", amplitude=0.5, width=-0.1)
    assert growing.hat_calculus.decay_order() == -math.inf
    assert not _media_decays(growing, 0.5)


def test_radial_power_decay_consistent_at_declared_tau():
    g = GridSpec(2, 3.0, 16)
    for tau in (0.5, 1.0, 2.0, 3.0):
        eps = scalar_catalog(g, "radial_power", amplitude=0.5, tau=tau)
        assert eps.hat_calculus.decay_order() == tau
        assert _media_decays(eps, tau)
        assert not _media_decays(eps, tau + 1.0)


def test_identity_decay_trivially_consistent():
    g = GridSpec(2, 1.0, 8)
    for tau in (0.5, 1.0, 4.0):
        assert _media_decays(make_transformation(g, None, "identity"), tau)
    # a zero perturbation has no term to decay
    assert PolyRhoGauss({0.0: {(0, 0): 0.0}}).decay_order() == math.inf


def test_decay_of_a_medium_without_closed_form_is_rejected():
    g = GridSpec(3, 3.0, 32)
    sampled = random_band_limited(g, 0, 5).data[0]
    raw = make_transformation(g, None, "scalar",
                              hat=0.5 * sampled / np.abs(sampled).max())
    with pytest.raises(ValueError, match="closed-form"):
        _media_decays(raw, 1.0)
    # the catalog's own radial_power samples, without their closed form, are
    # rejected whatever their decay
    eps = scalar_catalog(g, "radial_power", amplitude=0.5, tau=1.0)
    values_only = make_transformation(g, None, "scalar", hat=eps.hat)
    with pytest.raises(ValueError, match="closed-form"):
        _media_decays(values_only, 1.0)
    assert _media_decays(eps, 1.0)


def _annulus_sups(entry, grid, tau, alpha) -> tuple:
    """The sups of |d^alpha entry| (1+r^2)^((tau+|alpha|)/2) over the annuli
    0.5 L < r < 0.8 L and 0.9 L < r < 1.3 L: the sampled decay check that
    reading the order off the closed form replaced."""
    r2 = grid.radius_sq()
    weighted = np.abs(_partials(entry, alpha).eval(grid)) \
        * (1.0 + r2) ** ((tau + sum(alpha)) / 2.0)
    r = np.sqrt(r2) / grid.half_length
    return tuple(float(weighted[(lo < r) & (r < hi)].max())
                 for lo, hi in ((0.5, 0.8), (0.9, 1.3)))


def test_sampled_decay_stays_bounded_wherever_the_order_holds():
    # on a box past the rise before the asymptotic regime (at L = 3 the
    # weighted sups of a wide gauss_well still grow at the box edge), every
    # weighted sup with |alpha| <= 3 grows at most 1.75 times outwards
    # wherever the closed form's order is at least tau
    grid = GridSpec(2, 48.0, 64)
    media = [scalar_catalog(grid, "gauss_well", width=w) for w in (0.05, 0.2, 1.0)]
    media += [scalar_catalog(grid, "radial_power", amplitude=0.5, tau=t)
              for t in (0.5, 1.0, 2.0, 4.0)]
    checked = 0
    for eps in media:
        for tau in (0.5, 1.0, 2.0, 4.0):
            if eps.hat_calculus.decay_order() < tau:
                continue
            for alpha in derivative_orders(2, 3):
                inner, outer = _annulus_sups(eps.hat_calculus, grid, tau, alpha)
                assert outer <= 1.75 * max(inner, 1e-300), (eps.hat_calculus.terms,
                                                            tau, alpha)
                checked += 1
    assert checked == 22 * 10
