import math
import tracemalloc

import numpy as np
import pytest

from conftest import inverse_passes, max_abs, numpy_inverse, rel_gap
from formprobe.decompose import _inv_symbol, hodge_decompose
from formprobe.fields import (FormField, GridSpec, apply_R, apply_T,
                             derivative_orders, norm)
from formprobe.manufactured import (ManufacturedForm, gaussian_form,
                                    parity_symmetrized, random_band_limited,
                                    random_coclosed, random_dense_media,
                                    random_dyadic, _band_limited_spectrum)
from formprobe.halfspace import restrict_to_half, trace_tangential
from formprobe.media import PolyRhoGauss, scalar_catalog
from formprobe.spectral import (cube_freq_fields, embed_cube, ifft_nodes,
                                partial_derivative)


def test_band_limited_random_is_deterministic_and_band_limited():
    g = GridSpec(2, 2.0, 32)
    a = random_band_limited(g, 1, seed=42)
    b = random_band_limited(g, 1, seed=42)
    assert np.array_equal(a.data, b.data)
    hat = np.fft.fftn(a.data[0], norm="ortho")
    idx = np.fft.fftfreq(32, d=1 / 32).astype(int)
    k1, k2 = np.meshgrid(idx, idx, indexing="ij")
    beyond = (np.abs(k1) > 8) | (np.abs(k2) > 8)
    assert np.abs(hat[beyond]).max() <= 1e-12 * np.abs(hat).max()


def test_band_limited_random_is_grid_independent():
    coarse = GridSpec(2, 2.0, 16)
    fine = GridSpec(2, 2.0, 32)
    a = random_band_limited(coarse, 0, seed=7, kmax=3)
    b = random_band_limited(fine, 0, seed=7, kmax=3)
    # coarse nodes are every second fine node
    assert np.allclose(a.data[0], b.data[0][::2, ::2], atol=1e-12)


@pytest.mark.parametrize("real", (True, False))
def test_band_limited_random_is_the_full_inverse_of_its_cube(real):
    # the pruned synthesis changes no bit of the irfftn (or ifftn) of the
    # seeded spectrum on the whole frequency grid
    for dim, n in ((1, 12), (2, 10), (3, 8), (4, 6)):
        g = GridSpec(dim, 2.0, n)
        for q in range(dim + 1):
            layout, kmax, cube = _band_limited_spectrum(g, q, 5 + q, None, real)
            full = numpy_inverse(embed_cube(cube, layout, kmax), layout)
            e = random_band_limited(g, q, 5 + q, real=real)
            assert e.data.tobytes() == full.tobytes()


def test_gaussian_form_partials_close_under_differentiation():
    g = GridSpec(2, 3.0, 48)
    member = gaussian_form(g, 0, seed=5, decay=3.0, poly_degree=2)
    second = member.partial(1).partial(2).field()
    mixed = member.partial(2).partial(1).field()
    assert rel_gap(second, mixed) <= 1e-13
    spectral = partial_derivative(partial_derivative(member.field(), 1), 2)
    assert rel_gap(second, spectral) <= 1e-8


def test_closed_form_partial_recurrence():
    gauss = PolyRhoGauss({0: {(0,): 1.0}}, 2.0)
    d1 = gauss.partial(1)
    assert d1.terms == {0.0: {(1,): -4.0}}  # d/dx e^{-2x^2} = -4x e^{-2x^2}
    d2 = d1.partial(1)
    assert d2.terms == {0.0: {(0,): -4.0, (2,): 16.0}}
    # d/dx (1+x^2)^(-1/2) = -x (1+x^2)^(-3/2), no envelope term
    rho = PolyRhoGauss({-0.5: {(0,): 1.0}})
    assert rho.partial(1).terms == {-1.5: {(1,): -1.0}}
    assert rho.partial(1).partial(1).terms == {-1.5: {(0,): -1.0},
                                               -2.5: {(2,): 3.0}}


def test_dyadic_fields_are_integer_valued():
    g = GridSpec(2, 1.0, 16)
    e = random_dyadic(g, 1, 3, bits=10)
    assert np.array_equal(e.data.real, np.round(e.data.real))
    assert np.array_equal(e.data.imag, np.round(e.data.imag))


def test_parity_symmetrization_classes():
    g = GridSpec(2, 1.0, 16)
    e = parity_symmetrized(random_band_limited(g, 1, 3), "mirror")
    n = g.points
    flip = (-np.arange(n)) % n
    # tangential component even, normal component odd
    assert np.allclose(e.data[0], e.data[0][:, flip], atol=0)
    assert np.allclose(e.data[1], -e.data[1][:, flip], atol=0)
    with pytest.raises(ValueError):
        parity_symmetrized(e, "sideways")


def test_parity_symmetrization_matches_the_per_component_flip_bitwise():
    for dim in (1, 2, 3):
        g = GridSpec(dim, 1.5, 8)
        flip = (-np.arange(g.points)) % g.points
        for q in range(dim + 1):
            e = random_band_limited(g, q, 3 * dim + q)
            for parity in ("mirror", "trace-free"):
                ref = np.empty_like(e.data)
                for pos, mi in enumerate(e.indices):
                    flipped = np.take(e.data[pos], flip, axis=-1)
                    odd = (dim in mi) == (parity == "mirror")
                    ref[pos] = 0.5 * (e.data[pos] - flipped) if odd \
                        else 0.5 * (e.data[pos] + flipped)
                got = parity_symmetrized(e, parity).data
                assert got.tobytes() == ref.tobytes()


def test_parity_symmetrization_allocates_only_its_output():
    # no flipped copy of the stack or of a component (885 kB here), only
    # numpy's fixed-size ufunc buffers beside the output
    g = GridSpec(3, 1.5, 48)
    e = random_band_limited(g, 1, 4)
    tracemalloc.start()
    parity_symmetrized(e, "trace-free")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < e.data.nbytes + 2 ** 18


def test_halfspace_member_has_exactly_zero_trace():
    # trace-free parity: the tangential trace is exactly 0, and every
    # component keeps a monomial (N or more at the probe's degree 2)
    for dim, n in ((2, 16), (3, 16), (4, 8)):
        g = GridSpec(dim, 3.0, n)
        for q in range(dim):
            for degree in (1, 2):
                member = gaussian_form(g, q, seed=11 + q, poly_degree=degree,
                                       trace_free=True)
                e = member.field()
                assert max_abs(trace_tangential(restrict_to_half(e))) == 0.0, (dim, q)
                assert all(np.abs(c).max() > 0.0 for c in e.data), (dim, q)
                if degree == 2:
                    assert all(len(c.terms[0.0]) >= dim
                               for c in member.comps.values()), (dim, q)


def test_trace_free_members_agree_bitwise_across_the_doubling():
    # one continuum member: the nodes of n = 16 are the even nodes of n = 32
    coarse = gaussian_form(GridSpec(3, 3.0, 16), 1, 7, trace_free=True).field()
    fine = gaussian_form(GridSpec(3, 3.0, 32), 1, 7, trace_free=True).field()
    assert coarse.data.tobytes() == fine.data[:, ::2, ::2, ::2].tobytes()


def test_gaussian_form_draws_coefficients_for_kept_monomials_only():
    # one draw per kept monomial, components in order: without trace_free
    # every monomial is kept; trace_free keeps odd x_N degree off N and
    # even degree on N
    for dim in (2, 3):
        g = GridSpec(dim, 3.0, 8)
        for q in range(dim + 1):
            for trace_free in (False, True):
                rng = np.random.default_rng(5 * dim + q)
                member = gaussian_form(g, q, 5 * dim + q, poly_degree=2,
                                       trace_free=trace_free)
                for mi, comp in member.comps.items():
                    keep = [alpha for alpha in derivative_orders(dim, 2)
                            if not trace_free or alpha[-1] % 2 != (dim in mi)]
                    drawn = {alpha: complex(round(rng.uniform(-1, 1), 6))
                             for alpha in keep}
                    assert comp.terms == {0.0: {a: c for a, c in drawn.items()
                                                if c != 0}}
                    assert comp.decay == 3.0


def _full_size_eval(comp, grid):
    """``PolyRhoGauss.eval`` as it was written before the broadcast
    monomials: a full-size start per monomial, full-size products, and r^2
    and the envelope made per component."""
    coords = grid.coord_fields()
    real = all(c.imag == 0.0 for poly in comp.terms.values() for c in poly.values())
    dtype = np.float64 if real else np.complex128
    r2 = grid.radius_sq()
    out = np.zeros(grid.shape, dtype)
    for p, poly in sorted(comp.terms.items()):
        acc = out if p == 0.0 else np.zeros(grid.shape, dtype)
        for alpha, c in sorted(poly.items()):
            term = np.full(grid.shape, c.real if real else c)
            for ax, a in enumerate(alpha):
                if a:
                    term = term * coords[ax] ** a
            acc += term
        if p != 0.0:
            out += acc * (1.0 + r2) ** p
    return out if comp.decay == 0.0 else out * np.exp(-comp.decay * r2)


def _full_size_field(member):
    return np.stack([_full_size_eval(member.comps[mi], member.grid)
                     for mi in sorted(member.comps)])


def test_members_are_bitwise_the_full_size_evaluation():
    # shared r^2 and envelope, broadcast monomials: the same bits at every
    # node, on the box and on the half box
    for dim, n in ((2, 12), (3, 10), (4, 6)):
        for g in (GridSpec(dim, 3.0, n), GridSpec(dim, 3.0, n).half_box()):
            for q in range(dim + 1):
                for degree in (1, 2):
                    for trace_free in (False, True):
                        member = gaussian_form(g, q, 31 * dim + q, poly_degree=degree,
                                               trace_free=trace_free)
                        e = member.field()
                        assert e.data.dtype == np.float64
                        assert e.data.tobytes() == _full_size_field(member).tobytes(), \
                            (dim, g.half, q, degree, trace_free)
                        for j in range(1, dim + 1):
                            part = member.partial(j)
                            assert part.field().data.tobytes() == \
                                _full_size_field(part).tobytes(), (dim, q, j)


@pytest.mark.parametrize("tag, params", [("gauss_well", {"amplitude": 0.7, "width": 1.3}),
                                         ("radial_power", {"amplitude": 0.5, "tau": 3.0})])
def test_catalog_entries_are_bitwise_the_full_size_evaluation(tag, params):
    # the entries and their partials to order 3 (radial_power's at the
    # levels p = -1.5 .. -4.5), alone and as the components of one form
    for dim, n in ((2, 12), (3, 10), (4, 6)):
        g = GridSpec(dim, 3.0, n)
        levels = [[scalar_catalog(g, tag, **params).hat_calculus]]
        for _ in range(3):
            levels.append([f.partial(j) for f in levels[-1] for j in (1, dim)])
        for f in sum(levels, []):
            assert f.eval(g).tobytes() == _full_size_eval(f, g).tobytes(), (tag, dim)
        member = ManufacturedForm(g, 1, {(j,): f for j, f in
                                         enumerate(levels[2][:dim], start=1)})
        assert member.field().data.tobytes() == _full_size_field(member).tobytes()


def test_complex_coefficients_are_bitwise_the_full_size_evaluation():
    g = GridSpec(3, 3.0, 10)
    comp = PolyRhoGauss({0.0: {(0, 0, 0): 0.25 - 1j, (1, 0, 2): -1.5 + 0.5j,
                               (0, 2, 1): 2j},
                         -1.5: {(1, 1, 0): 0.3 + 0.1j, (0, 0, 1): -0.75}}, 2.0)
    values = comp.eval(g)
    assert values.dtype == np.complex128
    assert values.tobytes() == _full_size_eval(comp, g).tobytes()
    member = ManufacturedForm(g, 1, {(1,): comp, (2,): comp.partial(2),
                                     (3,): comp.partial(3).partial(1)})
    assert member.field().data.tobytes() == _full_size_field(member).tobytes()


def test_member_field_makes_one_radius_sq(monkeypatch):
    # the envelope is made once for every component of one call, also when
    # ``partials(kind)`` leaves components out
    calls = []
    radius_sq = GridSpec.radius_sq

    def counted(grid):
        calls.append(grid)
        return radius_sq(grid)

    monkeypatch.setattr(GridSpec, "radius_sq", counted)
    g = GridSpec(3, 3.0, 8)
    for q in range(4):
        member = gaussian_form(g, q, 5, poly_degree=2)
        calls.clear()
        member.field()
        assert len(calls) == 1, q
        # d reads no component of a top-degree form, delta none of a function
        for kind in [None] + ["R"] * (q < g.dim) + ["T"] * (q > 0):
            calls.clear()
            member.partials(kind)
            assert len(calls) == g.dim, (q, kind)


def test_random_coclosed_is_coclosed():
    from formprobe.spectral import coderivative_delta
    g = GridSpec(3, 2.0, 16)
    e = random_coclosed(g, 1, 13)
    assert norm(coderivative_delta(e)) <= 1e-12 * norm(e)


def test_random_coclosed_matches_hodge_route(fft_calls):
    # one inverse transform per field, made pass by pass over the lines
    # that cross the index cube (a top-rank field is zero, with none), and
    # the same field as the co-exact part of the band-limited field it
    # projects
    for dim in (3, 4):
        g = GridSpec(dim, 2.0, 16)
        for q in range(dim + 1):
            fft_calls.clear()
            e = random_coclosed(g, q, 60 * dim + q, kmax=4)
            assert fft_calls == (inverse_passes(dim, True) if q < dim else [])
            base = random_band_limited(g, q, 60 * dim + q, kmax=4)
            old = hodge_decompose(base).coexact_part
            assert norm(e - old) <= 1e-13 * norm(old)
    # at the benchmark's band limit on n = 32, all passes together read
    # fewer points than the input of one full irfftn, the half spectrum of
    # every component
    for dim, ranks in ((3, range(3)), (4, (0,))):
        g = GridSpec(dim, 2.0, 32)
        for q in ranks:
            fft_calls.clear()
            e = random_coclosed(g, q, 70 * dim + q, kmax=4)
            assert sum(fft_calls.points) < e.data.shape[0] * math.prod(g.half_box().shape)


def _full_route_coclosed(g, q, seed, kmax):
    """random_coclosed made the long way: the seeded cube embedded in the
    whole half spectrum, T R / |xi|^2 applied to every mode, and numpy's
    full irfftn."""
    layout, kmax, cube = _band_limited_spectrum(g, q, seed, kmax, real=True)
    hat = FormField(layout, q, embed_cube(cube, layout, kmax), spectral=True)
    if q == g.dim:
        return numpy_inverse(np.zeros_like(hat.data), layout)
    r2 = layout.freq_radius_sq()
    nonzero = hat.with_data(np.where(r2 == 0.0, 0.0, hat.data))
    if q > 0:
        coexact = apply_T(apply_R(nonzero))
        nonzero = coexact.with_data(_inv_symbol(r2) * coexact.data)
    return numpy_inverse(nonzero.data, layout)


@pytest.mark.parametrize("dim, n", ((2, 16), (3, 12), (4, 10)))
def test_random_coclosed_is_bitwise_the_full_route(dim, n):
    # projecting the index cube alone and inverting it by the pruned passes
    # changes no bit of the whole-spectrum route
    g = GridSpec(dim, 2.0, n)
    for kmax in (None, 2, 4):
        for q in range(dim + 1):
            seed = 10 * dim + q
            e = random_coclosed(g, q, seed, kmax)
            reference = _full_route_coclosed(g, q, seed, kmax)
            assert e.data.dtype == reference.dtype == np.float64
            assert e.data.tobytes() == reference.tobytes(), (kmax, q)


def _dense_cubes(g, seed, nc, kmax=2):
    """The seeded index cubes of ``random_dense_media``, one per entry of
    the upper triangle in row order: three modes k and their mirrors -k."""
    rng = np.random.default_rng(seed)
    cubes = []
    for _ in range(nc * (nc + 1) // 2):
        cube = np.zeros((2 * kmax + 1,) * g.dim, complex)
        for _ in range(3):
            k = np.array([rng.integers(-kmax, kmax + 1) for _ in range(g.dim)])
            c = complex(rng.standard_normal(), rng.standard_normal())
            cube[tuple(kmax + k)] += c
            cube[tuple(kmax - k)] += np.conj(c)
        cubes.append(cube)
    return cubes


def test_random_dense_media_has_stored_exact_partials():
    g = GridSpec(2, 2.0, 16)
    eps = random_dense_media(g, 1, 3, amplitude=0.4)
    nc = eps.hat.shape[0]
    half, kmax = g.half_box(), 2
    xi = cube_freq_fields(half, kmax)
    # (-1)^k per axis for the nodes x = -L + j h, n^(N/2) for the unitary
    # transform
    phases = np.multiply.outer(*[(-1.0) ** np.abs(np.arange(-kmax, kmax + 1))] * 2)
    coords = g.coord_fields()
    entries = [(i, j) for i in range(nc) for j in range(i, nc)]
    for (i, j), cube in zip(entries, _dense_cubes(g, 3, nc)):
        scale = 0.4 / nc / np.abs(cube).sum()
        # the entry is the trigonometric polynomial its cube holds,
        # summed mode by mode at the nodes
        direct = sum(c * np.exp(1j * np.pi / g.half_length * (k1 * coords[0] + k2 * coords[1]))
                     for (k1, k2), c in zip(np.argwhere(cube) - kmax, cube[cube != 0]))
        assert np.abs(eps.hat[i, j] - scale * direct.real).max() <= 1e-15
        spectrum = (g.points * phases * cube)[..., kmax:]
        for axis in (1, 2):
            # i xi times the seeded cube, through the pruned inverse: the
            # stored partials are exact
            exact = scale * ifft_nodes(1j * xi[axis - 1] * spectrum, half, kmax)
            assert np.abs(eps.partial_array(axis)[i, j] - exact).max() <= 1e-12
            assert np.array_equal(eps.partial_array(axis)[j, i],
                                  eps.partial_array(axis)[i, j])
    for axis in (1, 2):
        spectral = eps.partial_array(axis)
        for i in range(nc):
            for j in range(nc):
                hat = np.fft.rfftn(eps.hat[i, j], norm="ortho")
                reference = np.fft.irfftn(1j * g.half_box().freq_field(axis) * hat,
                                          s=g.shape, axes=(0, 1), norm="ortho")
                # one transform of the whole entry stack, bitwise per entry
                assert np.array_equal(spectral[i, j], reference)


@pytest.mark.parametrize("dim", (2, 3))
def test_random_dense_media_is_one_function_on_every_grid(dim):
    # normalised by a bound that no grid changes, the medium takes the same
    # values at the nodes that n = 32 shares with n = 64
    for rank in range(1, dim):
        coarse = random_dense_media(GridSpec(dim, 3.0, 32), rank, 7, amplitude=0.9)
        fine = random_dense_media(GridSpec(dim, 3.0, 64), rank, 7, amplitude=0.9)
        shared = fine.hat[(slice(None),) * 2 + (slice(None, None, 2),) * dim]
        assert np.abs(coarse.hat - shared).max() <= 1e-13
        assert np.abs(coarse.hat).max() > 0.1


