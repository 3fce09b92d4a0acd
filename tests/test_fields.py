import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs, rel_gap
from formprobe.fields import (FormField, GridSpec, SignTable, _inner_weight,
                              apply_R, apply_T, apply_table, complement_index,
                              hodge_star, index_position, l2_inner, merge_sign,
                              multi_indices, n_components, norm,
                              reflection_signs,
                              split_tangential_normal, star_sign, wedge)
from formprobe.halfspace import (boundary_grid, extend_boundary_form,
                                 restrict_to_half, trace_tangential)
from formprobe.manufactured import (gaussian_form, random_band_limited,
                                    random_dense_media, random_dyadic)
from formprobe.media import make_transformation, scalar_catalog


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

def test_multi_index_order_is_lexicographic():
    assert multi_indices(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert multi_indices(4, 0) == ((),)
    assert index_position(3, (1, 3)) == 1


def test_merge_sign_counts_inversions():
    assert merge_sign((1,), (2, 3)) == ((1, 2, 3), 1)
    assert merge_sign((2,), (1, 3)) == ((1, 2, 3), -1)
    assert merge_sign((2, 3), (1,)) == ((1, 2, 3), 1)
    assert merge_sign((1, 2), (2,)) is None


def test_insertion_sign():
    # dx^j wedged in front of dx^mi has the sign (-1)^#{i in mi : i < j}
    for dim in (2, 3, 4):
        for q in range(dim):
            for mi in multi_indices(dim, q):
                for j in sorted(set(range(1, dim + 1)) - set(mi)):
                    below = sum(1 for i in mi if i < j)
                    assert merge_sign((j,), mi)[1] == (-1) ** below


def test_star_sign_matches_complement_parity():
    for dim in (2, 3, 4):
        for q in range(dim + 1):
            for mi in multi_indices(dim, q):
                comp = complement_index(mi, dim)
                assert star_sign(mi, dim) * star_sign(comp, dim) == \
                    (-1) ** (q * (dim - q))


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_gridspec_geometry():
    g = GridSpec(2, 1.0, 8)
    assert g.spacing == 0.25
    assert g.axis_coords()[0] == -1.0
    assert g.axis_coords()[4] == 0.0
    assert g.cell_volume == 0.25 ** 2


def test_gridspec_rejects_odd_points():
    with pytest.raises(ValueError):
        GridSpec(2, 1.0, 9)
    with pytest.raises(ValueError):
        GridSpec(0, 1.0, 8)
    with pytest.raises(ValueError):
        GridSpec(2, -1.0, 8)


def test_formfield_shape_validation_and_immutability():
    g = GridSpec(2, 1.0, 8)
    e = FormField.zeros(g, 1)
    assert e.data.shape == (2, 8, 8)
    with pytest.raises(ValueError):
        e.data[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        FormField(g, 1, np.zeros((3, 8, 8), complex))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_basis_covectors():
    g = GridSpec(2, 1.0, 8)
    dx1 = FormField.from_components(g, 1, {(1,): 1.0})
    dx2 = FormField.from_components(g, 1, {(2,): 1.0})
    assert np.all(wedge(dx1, dx2).component((1, 2)) == 1.0)
    assert np.all(wedge(dx2, dx1).component((1, 2)) == -1.0)


def test_wedge_rank_overflow_and_grid_mismatch():
    g = GridSpec(2, 1.0, 8)
    e = FormField.zeros(g, 1)
    with pytest.raises(ValueError):
        wedge(e, FormField.zeros(g, 2))
    with pytest.raises(ValueError):
        wedge(e, FormField.zeros(GridSpec(2, 1.0, 16), 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 10_000))
def test_wedge_graded_anticommutativity_exact_on_integer_data(dim, p, q, seed):
    if p + q > dim:
        p, q = p % (dim + 1), 0
    if p + q > dim:
        return
    g = GridSpec(dim, 1.0, 8)
    e = random_dyadic(g, p, seed, bits=12)
    f = random_dyadic(g, q, seed + 1, bits=12)
    sign = (-1) ** (p * q)
    assert np.array_equal(wedge(e, f).data, sign * wedge(f, e).data)


@pytest.mark.parametrize("dim, p, q", [(2, 1, 1), (3, 1, 1), (4, 2, 2)])
def test_wedge_equal_ranks_anticommute_bitwise_on_integer_data(dim, p, q):
    # each split is its own term, so E ^ F and F ^ E add the same products
    # in different orders; on dyadic data every order is exact
    g = GridSpec(dim, 1.0, 8)
    for seed in range(3):
        e = random_dyadic(g, p, 100 + seed, bits=12)
        f = random_dyadic(g, q, 200 + seed, bits=12)
        sign = (-1) ** (p * q)
        assert np.array_equal(wedge(e, f).data, sign * wedge(f, e).data)


def test_wedge_anticommutativity_generic_fields_machine_level():
    g = GridSpec(3, 1.0, 16)
    e = random_band_limited(g, 1, 5, real=False)
    f = random_band_limited(g, 2, 6, real=False)
    assert rel_gap(wedge(e, f), wedge(f, e)) <= 1e-14


def test_wedge_against_multiindex_split_enumeration():
    # brute-force oracle: sum over all disjoint splits with merge signs
    g = GridSpec(3, 1.0, 8)
    e = random_band_limited(g, 1, 7, real=False)
    f = random_band_limited(g, 1, 8, real=False)
    product = wedge(e, f)
    for k_mi in multi_indices(3, 2):
        expected = np.zeros(g.shape, complex)
        for i_mi in multi_indices(3, 1):
            for j_mi in multi_indices(3, 1):
                merged = merge_sign(i_mi, j_mi)
                if merged is None or merged[0] != k_mi:
                    continue
                expected += merged[1] * e.component(i_mi) * f.component(j_mi)
        assert np.allclose(product.component(k_mi), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# hodge star
# ---------------------------------------------------------------------------

def test_star_basis_examples_n3():
    g = GridSpec(3, 1.0, 8)
    dx1 = FormField.from_components(g, 1, {(1,): 1.0})
    dx2 = FormField.from_components(g, 1, {(2,): 1.0})
    s1 = hodge_star(dx1)
    assert np.all(s1.component((2, 3)) == 1.0)
    s2 = hodge_star(dx2)
    assert np.all(s2.component((1, 3)) == -1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 10_000))
def test_double_star_identity_exact(dim, q, seed):
    q = q % (dim + 1)
    g = GridSpec(dim, 1.0, 8)
    e = random_dyadic(g, q, seed)
    sign = (-1) ** (q * (dim - q))
    assert np.array_equal(hodge_star(hodge_star(e)).data, sign * e.data)


# ---------------------------------------------------------------------------
# R and T
# ---------------------------------------------------------------------------

def test_apply_R_position_coordinates_pointwise():
    g = GridSpec(2, 4.0, 8)
    one = FormField.from_components(g, 0, {(): 1.0})
    re = apply_R(one)
    # node with coordinates (1, 2)
    i = int(round((1.0 + 4.0) / g.spacing))
    j = int(round((2.0 + 4.0) / g.spacing))
    assert re.component((1,))[i, j] == pytest.approx(1.0)
    assert re.component((2,))[i, j] == pytest.approx(2.0)


def test_RR_and_TT_vanish_exactly_on_integer_data():
    for dim in (2, 3, 4):
        g = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            e = random_dyadic(g, q, seed=31 * q + dim)
            if q + 2 <= dim:
                assert max_abs(apply_R(apply_R(e))) == 0.0
            if q >= 2:
                assert max_abs(apply_T(apply_T(e))) == 0.0


def test_RT_plus_TR_is_radius_squared():
    for dim in (2, 3, 4):
        g = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=5 + q, real=False)
            parts = []
            if q < dim:
                parts.append(apply_T(apply_R(e)))
            if q > 0:
                parts.append(apply_R(apply_T(e)))
            total = parts[0] if len(parts) == 1 else parts[0] + parts[1]
            assert rel_gap(total, e.scale_pointwise(g.radius_sq())) <= 1e-12


def test_R_T_adjoint_in_l2():
    g = GridSpec(3, 1.0, 16)
    for q in range(3):
        e = random_band_limited(g, q, seed=2 + q, real=False)
        h = random_band_limited(g, q + 1, seed=12 + q, real=False)
        lhs = l2_inner(apply_R(e), h)
        rhs = l2_inner(e, apply_T(h))
        assert abs(lhs - rhs) <= 1e-12 * norm(apply_R(e)) * norm(h)


def test_T_fiber_example_n2():
    # T(dx12) at the point (1, 2) comes out as -2 dx1 + 1 dx2
    g = GridSpec(2, 4.0, 8)
    h = FormField.from_components(g, 2, {(1, 2): 1.0})
    th = apply_T(h)
    i = int(round(5.0 / g.spacing))
    j = int(round(6.0 / g.spacing))
    assert th.component((1,))[i, j] == pytest.approx(-2.0)
    assert th.component((2,))[i, j] == pytest.approx(1.0)


def test_rank_limits():
    g = GridSpec(2, 1.0, 8)
    with pytest.raises(ValueError):
        apply_R(FormField.zeros(g, 2))
    with pytest.raises(ValueError):
        apply_T(FormField.zeros(g, 0))


# ---------------------------------------------------------------------------
# tangential/normal split
# ---------------------------------------------------------------------------

def test_split_examples():
    g = GridSpec(3, 1.0, 8)
    e = FormField.from_components(g, 1, {(1,): 2.0, (3,): 5.0})
    tau, rho = split_tangential_normal(e)
    assert np.all(tau.component((1,)) == 2.0) and np.all(tau.component((3,)) == 0)
    assert np.all(rho.component((3,)) == 5.0) and np.all(rho.component((1,)) == 0)
    f = random_band_limited(g, 0, 3)
    tau0, rho0 = split_tangential_normal(f)
    assert np.array_equal(tau0.data, f.data) and max_abs(rho0) == 0.0


def test_split_is_idempotent_and_orthogonal():
    g = GridSpec(3, 1.0, 16)
    for q in range(4):
        e = random_band_limited(g, q, seed=q, real=False)
        tau, rho = split_tangential_normal(e)
        assert max_abs((tau + rho) - e) == 0.0
        assert l2_inner(tau, rho) == 0.0
        tau2, rho2 = split_tangential_normal(tau)
        assert np.array_equal(tau2.data, tau.data) and max_abs(rho2) == 0.0


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_l2_inner_volume_normalization():
    g = GridSpec(2, 1.0, 16)
    one = FormField.from_components(g, 0, {(): 1.0})
    assert l2_inner(one, one) == pytest.approx(4.0)  # box volume (2L)^2


def test_l2_inner_orthogonal_covectors():
    g = GridSpec(2, 1.0, 16)
    e = FormField.from_components(g, 1, {(1,): 1.0})
    h = FormField.from_components(g, 1, {(2,): 1.0})
    assert l2_inner(e, h) == 0.0


def test_l2_inner_blocked_sum_on_large_fields():
    # 3 * 24^3 = 41 472 elements: several blocks and a remainder, each
    # component crossing a block boundary
    g = GridSpec(3, 3.0, 24)
    e = random_band_limited(g, 1, 3, real=False)
    h = random_band_limited(g, 1, 4, real=False)
    for a, b in ((e, e), (e, h)):
        reference = np.vdot(b.data, a.data) * g.cell_volume
        scale = norm(a) * norm(b)
        assert abs(l2_inner(a, b) - reference) <= 1e-13 * scale
    first, rest = np.zeros_like(e.data), h.data.copy()
    first[0] = e.data[0]
    rest[0] = 0.0
    assert l2_inner(e.with_data(first), h.with_data(rest)) == 0.0


def test_weighted_inner_refinement_oracle():
    # Gaussian bump with weight s=1 against a doubled-resolution quadrature
    values = {}
    for n in (64, 128):
        g = GridSpec(2, 3.0, n)
        r2 = g.radius_sq()
        f = FormField.from_components(g, 0, {(): np.exp(-2.0 * r2)})
        values[n] = l2_inner(f, f, weight_exponent=1.0).real
    assert values[64] == pytest.approx(values[128], rel=1e-6)


def test_weighted_inner_takes_its_weight_from_one_bounded_cache():
    # the weight is built once per (grid, s), read-only, and the sum is
    # bitwise the one with the weight rebuilt on every call
    _inner_weight.cache_clear()
    g = GridSpec(3, 2.0, 8)
    for grid in (g, g.half_box()):
        e = random_band_limited(g, 1, 3)
        h = random_band_limited(g, 1, 4)
        if grid.half:
            e, h = restrict_to_half(e), restrict_to_half(h)
        for s in (0.5, 1.0, -2.0):
            rebuilt = (1.0 + grid.radius_sq()) ** s
            if grid.half:
                rebuilt = rebuilt * grid.quadrature_weights
            expected = complex(np.sum(rebuilt * (e.data * np.conj(h.data)))
                               * grid.cell_volume)
            assert l2_inner(e, h, s) == expected
            weight = _inner_weight(grid, s)
            assert not weight.flags.writeable
            assert weight.tobytes() == rebuilt.tobytes()
            assert _inner_weight(grid, s) is weight
    assert _inner_weight.cache_info().maxsize == 8
    assert _inner_weight.cache_info().currsize == 6


def test_weighted_inner_makes_one_product_array():
    # the weight goes into the fresh product in place, with the operand
    # order of weight * (E conj(H)): bitwise the same sum on real, complex
    # and mixed pairs, and a real field holds one field-sized array (the
    # conj copy and the weighted product peaked at 2.0x its bytes)
    g = GridSpec(3, 2.0, 8)
    real = random_band_limited(g, 1, 3)
    cplx = random_band_limited(g, 1, 4, real=False)
    weight = (1.0 + g.radius_sq()) ** 1.0
    for e, h in ((real, real), (cplx, cplx), (real, cplx), (cplx, real)):
        expected = complex(np.sum(weight * (e.data * h.data.conj())) * g.cell_volume)
        assert l2_inner(e, h, 1.0) == expected
    e = gaussian_form(GridSpec(3, 3.0, 64), 1, 0).field()
    norm(e, 1.0)  # the weight is built once per (grid, s)
    tracemalloc.start()
    norm(e, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.05 * e.data.nbytes


def test_inner_mismatch_errors():
    g = GridSpec(2, 1.0, 8)
    with pytest.raises(ValueError):
        l2_inner(FormField.zeros(g, 0), FormField.zeros(g, 1))
    with pytest.raises(ValueError):
        l2_inner(FormField.zeros(g, 0), FormField.zeros(GridSpec(2, 1.0, 16), 0))


# ---------------------------------------------------------------------------
# the sign-table kernel against per-component loop references
# ---------------------------------------------------------------------------

def _star_loop(e):
    dim = e.grid.dim
    out = np.empty((n_components(dim, dim - e.rank),) + e.grid.shape, complex)
    for mi in multi_indices(dim, e.rank):
        comp = complement_index(mi, dim)
        out[index_position(dim, comp)] = star_sign(mi, dim) * e.component(mi)
    return out


def _coords(e):
    return e.grid.freq_fields() if e.spectral else e.grid.coord_fields()


def _R_loop(e):
    dim = e.grid.dim
    cfields = _coords(e)
    out = np.zeros((n_components(dim, e.rank + 1),) + e.grid.shape, complex)
    for mi in multi_indices(dim, e.rank):
        comp = e.component(mi)
        for n in range(1, dim + 1):
            if n in mi:
                continue
            merged, sign = merge_sign((n,), mi)
            out[index_position(dim, merged)] += sign * (cfields[n - 1] * comp)
    return out


def _T_loop(e):
    # contraction with c, each target's terms added in descending axis
    dim = e.grid.dim
    cfields = _coords(e)
    out = np.zeros((n_components(dim, e.rank - 1),) + e.grid.shape, complex)
    for pos, j_mi in enumerate(multi_indices(dim, e.rank - 1)):
        for j in range(dim, 0, -1):
            if j in j_mi:
                continue
            merged, sign = merge_sign((j,), j_mi)
            out[pos] += sign * (cfields[j - 1] * e.component(merged))
    return out


def _split_loop(e):
    dim = e.grid.dim
    tau = np.array(e.data, copy=True)
    rho = np.array(e.data, copy=True)
    for pos, mi in enumerate(multi_indices(dim, e.rank)):
        if dim in mi:
            tau[pos] = 0.0
        else:
            rho[pos] = 0.0
    return tau, rho


def _all_forms(points=4):
    for dim in (1, 2, 3, 4):
        g = GridSpec(dim, 1.5, points)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=10 * dim + q, kmax=1, real=False)
            yield e
            yield e.with_data(e.data, spectral=True)


def test_kernel_matches_loop_references_bitwise():
    for e in _all_forms():
        dim, q = e.grid.dim, e.rank
        assert np.array_equal(hodge_star(e).data, _star_loop(e))
        if q < dim:
            assert np.array_equal(apply_R(e).data, _R_loop(e))
        if q > 0:
            assert np.array_equal(apply_T(e).data, _T_loop(e))
        tau, rho = split_tangential_normal(e)
        ref_tau, ref_rho = _split_loop(e)
        assert np.array_equal(tau.data, ref_tau)
        assert np.array_equal(rho.data, ref_rho)


def test_T_is_the_star_dual_of_R_bitwise():
    for e in _all_forms():
        dim, q = e.grid.dim, e.rank
        if q < 1:
            continue
        sign = (-1) ** ((q - 1) * dim)
        dual = hodge_star(apply_R(hodge_star(e)))
        assert np.array_equal(apply_T(e).data, sign * dual.data)


def _pullback_entries(dim, rank, sigma, flips):
    """tau^* on rank-q components for tau_i(x) = flips_i x_sigma(i): each
    dx^i becomes flips_i dx^sigma(i), and the images are merged in order."""
    entries = []
    for pos, mi in enumerate(multi_indices(dim, rank)):
        sign = int(np.prod([flips[i - 1] for i in mi]))
        merged = ()
        for axis in reversed([sigma[i - 1] for i in mi]):
            merged, s = merge_sign((axis,), merged)
            sign *= s
        entries.append((index_position(dim, merged), pos, sign, None))
    return sorted(entries)


def test_reflect_table_is_the_pullback_of_the_reflection():
    for dim in (1, 2, 3, 4):
        reflection = (tuple(range(1, dim + 1)), (1,) * (dim - 1) + (-1,))
        for q in range(dim + 1):
            # the pullback is diagonal: each component keeps its place
            entries = _pullback_entries(dim, q, *reflection)
            assert [(t, s) for t, s, _, _ in entries] == [(p, p) for p in
                                                          range(n_components(dim, q))]
            signs = reflection_signs(dim, q)
            assert signs.shape == (n_components(dim, q),) + (1,) * dim
            assert signs.ravel().tolist() == [s for _, _, s, _ in entries]


def test_star_and_media_on_the_half_box_match_the_full_box_bitwise():
    for dim in (1, 2, 3, 4):
        g = GridSpec(dim, 3.0, 8)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=7 * dim + q, kmax=1, real=False)
            half = restrict_to_half(e)
            assert np.array_equal(hodge_star(half).data,
                                  restrict_to_half(hodge_star(e)).data)
            media = (make_transformation(g, q, "identity"),
                     scalar_catalog(g, "gauss_well"),
                     random_dense_media(g, q, seed=dim + q))
            for eps in media:
                assert np.array_equal(eps.apply(half).data,
                                      restrict_to_half(eps.apply(e)).data)


def _trace_table(dim, rank):
    """The components without N kept, in order: the boundary trace as a
    sign table (dimension N to N - 1)."""
    return SignTable(n_components(dim - 1, rank), n_components(dim, rank),
                     tuple((pos, index_position(dim, mi), 1, None)
                           for pos, mi in enumerate(multi_indices(dim - 1, rank))))


def _extend_table(dim, rank):
    trace = _trace_table(dim, rank)
    return SignTable(trace.sources, trace.targets,
                     tuple(sorted((s, t, sign, f) for t, s, sign, f in trace.entries)))


def test_traces_by_normal_mask_match_the_trace_tables_bitwise():
    for dim in (2, 3, 4):
        g = GridSpec(dim, 3.0, 8)
        for q in range(dim + 1):
            for real in (True, False):
                e = random_band_limited(g, q, seed=5 * dim + q, kmax=2, real=real)
                half = restrict_to_half(e)
                traced = trace_tangential(half)
                expected = apply_table(_trace_table(dim, q), half.data[..., -1])
                assert traced.data.dtype == expected.dtype
                assert np.array_equal(traced.data, expected)
                # the extension is the table's transpose on the boundary
                # plane (the cutoff is 1 there) and 0 on the normal parts
                b = FormField(boundary_grid(g), q, traced.data)
                lifted = apply_table(_extend_table(dim, q), b.data)
                ext = extend_boundary_form(b, g)
                assert ext.data.dtype == lifted.dtype
                assert np.array_equal(ext.data[..., -1], lifted)
                assert not ext.data[[dim in mi for mi in multi_indices(dim, q)]].any()
