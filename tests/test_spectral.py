import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs, numpy_inverse, rel_gap
from formprobe.fields import (FormField, GridSpec, apply_R, apply_T,
                              hodge_star, l2_inner, n_components, norm)
from formprobe.manufactured import gaussian_form, random_band_limited
from formprobe.spectral import (assemble_d, assemble_delta,
                                coderivative_delta, d_delta_plus_delta_d,
                                embed_cube, exterior_d, fft_nodes, fourier,
                                fourier_inverse, gaffney_identity_check,
                                gradient, ifft_nodes, laplacian,
                                partial_derivative, spectral_sobolev_norm,
                                stokes_duality_residual)


def test_fourier_roundtrip_and_unitarity():
    g = GridSpec(3, 2.0, 16)
    e = random_band_limited(g, 1, 3, real=False)
    hat = fourier(e)
    assert hat.spectral
    assert rel_gap(fourier_inverse(hat), e) <= 1e-13
    assert abs(norm(hat) / norm(e) - 1.0) <= 1e-12


def test_fourier_of_constant_concentrates_at_zero():
    g = GridSpec(2, 1.0, 16)
    one = FormField.from_components(g, 0, {(): 1.0})
    hat = fourier(one)
    mass = np.abs(hat.data[0])
    assert mass[0, 0] > 0
    mass_copy = mass.copy()
    mass_copy[0, 0] = 0.0
    assert mass_copy.max() <= 1e-13 * mass[0, 0]


def test_fourier_requires_direction():
    gp = GridSpec(2, 1.0, 8)
    hat = fourier(FormField.zeros(gp, 0))
    with pytest.raises(ValueError):
        fourier(hat)
    with pytest.raises(ValueError):
        fourier_inverse(FormField.zeros(gp, 0))


def test_fourier_returns_the_spectrum_while_it_is_alive(fft_calls):
    e = random_band_limited(GridSpec(2, 1.0, 8), 1, 3)
    fft_calls.clear()
    hat = fourier(e)
    assert fourier(e) is hat
    assert fft_calls == ["rfftn"]
    first = hat.data.copy()
    del hat  # the weak reference keeps nothing alive: a new transform
    assert np.array_equal(fourier(e).data, first)
    assert fft_calls == ["rfftn"] * 2
    # a field whose buffer is reused never serves the spectrum it had
    hat = fourier(e)
    data = e.take_data()
    data *= 2.0
    again = fourier(e)
    assert again is not hat and fft_calls == ["rfftn"] * 4
    assert np.array_equal(again.data, 2.0 * first)


def test_star_commutes_with_fourier_exactly():
    g = GridSpec(3, 1.0, 16)
    for q in range(4):
        e = random_band_limited(g, q, seed=q, real=False)
        assert np.array_equal(fourier(hodge_star(e)).data,
                              hodge_star(fourier(e)).data)


def test_exterior_d_on_sine_is_analytic():
    g = GridSpec(2, 2.0, 32)
    x1 = g.coord_field(1)
    f = FormField.from_components(g, 0, {(): np.sin(np.pi * x1 / 2.0)
                                         + 0 * g.coord_field(2)})
    df = exterior_d(f)
    expected = (np.pi / 2.0) * np.cos(np.pi * x1 / 2.0) + 0 * g.coord_field(2)
    assert np.abs(df.component((1,)) - expected).max() <= 1e-12
    assert np.abs(df.component((2,))).max() <= 1e-12


def test_dd_and_deltadelta_vanish():
    for dim in (2, 3):
        g = GridSpec(dim, 3.0, 16)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=4 + q, real=False)
            if q + 2 <= dim:
                assert norm(exterior_d(exterior_d(e))) <= 1e-12 * norm(e)
            if q >= 2:
                assert norm(coderivative_delta(coderivative_delta(e))) \
                    <= 1e-12 * norm(e)


def test_weak_stokes_duality_periodic():
    g = GridSpec(3, 3.0, 16)
    for q in range(3):
        e = random_band_limited(g, q, seed=1 + q, real=False)
        h = random_band_limited(g, q + 1, seed=9 + q, real=False)
        assert stokes_duality_residual(e, h) <= 1e-12


def test_laplacian_on_sine_and_constant():
    g = GridSpec(2, 2.0, 32)
    x1 = g.coord_field(1)
    f = FormField.from_components(g, 0, {(): np.sin(np.pi * x1 / 2.0)
                                         + 0 * g.coord_field(2)})
    lap = laplacian(f)
    expected = -(np.pi / 2.0) ** 2 * np.sin(np.pi * x1 / 2.0) + 0 * g.coord_field(2)
    assert np.abs(lap.component(()) - expected).max() <= 1e-12
    const = FormField.from_components(g, 0, {(): 1.0})
    assert max_abs(laplacian(const)) <= 1e-14


def test_laplacian_equals_d_delta_plus_delta_d():
    g = GridSpec(3, 3.0, 16)
    for q in range(4):
        e = random_band_limited(g, q, seed=13 + q, real=False)
        assert rel_gap(d_delta_plus_delta_d(e), laplacian(e)) <= 1e-12


def test_intertwining_relations():
    g = GridSpec(3, 3.0, 16)
    for q in range(4):
        e = random_band_limited(g, q, seed=21 + q, real=False)
        hat = fourier(e)
        if q < 3:
            de = exterior_d(e)
            gap = norm(fourier(de) - 1j * apply_R(hat))
            assert gap <= 1e-12 * max(norm(de), 1e-300)
        if q > 0:
            se = coderivative_delta(e)
            gap = norm(fourier(se) - 1j * apply_T(hat))
            assert gap <= 1e-12 * max(norm(se), 1e-300)


def test_monomial_derivative_rule_up_to_order_three():
    g = GridSpec(2, 3.0, 32)
    e = random_band_limited(g, 1, 8, real=False)
    hat = fourier(e)
    for axis, order in ((1, 1), (2, 2), (1, 3)):
        deriv = e
        for _ in range(order):
            deriv = partial_derivative(deriv, axis)
        xi = g.freq_field(axis)
        expected = hat.with_data(((1j * xi) ** order) * hat.data)
        assert rel_gap(fourier(deriv), expected) <= 1e-12


def test_spectral_sobolev_norm_s0_is_l2():
    g = GridSpec(2, 2.0, 16)
    e = random_band_limited(g, 1, 3, real=False)
    assert spectral_sobolev_norm(e, 0.0) == pytest.approx(norm(e), rel=1e-12)


def test_spectral_sobolev_norm_two_mode_hand_computation():
    # sin(pi x_1 / L) has exactly two modes at |xi| = pi/L
    g = GridSpec(2, 2.0, 32)
    x1 = g.coord_field(1)
    f = FormField.from_components(g, 0, {(): np.sin(np.pi * x1 / 2.0)
                                         + 0 * g.coord_field(2)})
    xi = np.pi / 2.0
    expected = (1.0 + xi ** 2) * norm(f)
    assert spectral_sobolev_norm(f, 2.0) == pytest.approx(expected, rel=1e-12)


def test_spectral_sobolev_norm_monotone_in_s():
    g = GridSpec(2, 2.0, 16)
    e = random_band_limited(g, 0, 4, real=False)
    values = [spectral_sobolev_norm(e, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-13) for a, b in zip(values, values[1:]))


def test_gaffney_identity_analytic_case():
    # Phi = sin(pi x_1 / L) dx^2 in N=2: delta Phi = 0 and both sides agree
    g = GridSpec(2, 2.0, 32)
    x1 = g.coord_field(1)
    phi = FormField.from_components(
        g, 1, {(2,): np.sin(np.pi * x1 / 2.0) + 0 * g.coord_field(2)})
    assert norm(coderivative_delta(phi)) <= 1e-12
    report = gaffney_identity_check(phi)
    expected = norm(exterior_d(phi)) ** 2
    assert report.d_delta_sq == pytest.approx(expected, rel=1e-12)
    assert report.relative_gap <= 1e-10


def test_gaffney_identity_random_fields_all_ranks():
    for dim in (2, 3, 4):
        g = GridSpec(dim, 3.0, 12 if dim == 4 else 16)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=3 * q + dim, real=False,
                                    kmax=3)
            assert gaffney_identity_check(e).relative_gap <= 1e-10


def test_gaffney_zero_field():
    g = GridSpec(2, 1.0, 8)
    report = gaffney_identity_check(FormField.zeros(g, 1))
    assert report.gradient_sq == 0.0 and report.d_delta_sq == 0.0
    assert report.relative_gap == 0.0


def test_assembled_d_delta_match_spectral_operators():
    # the R and T insertion signs, locked against the spectral d and delta
    for dim in (2, 3, 4):
        g = GridSpec(dim, 3.0, 16 if dim < 4 else 8)
        for q in range(dim + 1):
            e = random_band_limited(g, q, seed=6 + q, real=False)
            parts = gradient(e)
            # one stacked inverse gives each partial bitwise, in either space
            hat = fourier(e)
            for axis, hat_part in gradient(hat).items():
                assert np.array_equal(parts[axis].data,
                                      partial_derivative(e, axis).data)
                assert np.array_equal(hat_part.data,
                                      partial_derivative(hat, axis).data)
            if q < dim:
                assert rel_gap(assemble_d(parts), exterior_d(e)) <= 1e-12
            if q > 0:
                assert rel_gap(assemble_delta(parts),
                               coderivative_delta(e)) <= 1e-12


def test_assembly_adds_terms_in_ascending_axis_order():
    g = GridSpec(3, 3.0, 16)
    p = gaussian_form(g, 1, 3).partials()
    assert np.array_equal(assemble_delta(p).data[0],
                          p[1].data[0] + p[2].data[1] + p[3].data[2])
    # the partials delta reads: d_j E_j alone, the rest left zero
    read = gaussian_form(g, 1, 3).partials("T")
    for j in (1, 2, 3):
        assert np.array_equal(read[j].data[j - 1], p[j].data[j - 1])
        assert not np.delete(read[j].data, j - 1, axis=0).any()
    assert np.array_equal(assemble_delta(read).data, assemble_delta(p).data)
    p = gaussian_form(g, 2, 4).partials()
    assert np.array_equal(assemble_d(p).data[0],
                          p[1].data[2] - p[2].data[1] + p[3].data[0])


def test_rank_guards():
    g = GridSpec(2, 1.0, 8)
    with pytest.raises(ValueError):
        exterior_d(FormField.zeros(g, 2))
    with pytest.raises(ValueError):
        coderivative_delta(FormField.zeros(g, 0))
    with pytest.raises(ValueError, match="overflow"):
        assemble_d({j: FormField.zeros(g, 2) for j in (1, 2)})
    with pytest.raises(ValueError, match="underflow"):
        assemble_delta({j: FormField.zeros(g, 0) for j in (1, 2)})


FFT_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                  "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"}


def _names_fft_transform(tree) -> bool:
    """True when the module names a transform of an ``fft`` namespace
    (np.fft.fftn, fft.ifftn, ...) or imports one from numpy.fft/scipy.fft."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS:
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "fft":
                return True
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy.fft",
                                                                "scipy.fft"):
            if any(alias.name in FFT_TRANSFORMS for alias in node.names):
                return True
    return False


def test_only_spectral_and_bridge_call_a_transform():
    import formprobe
    package = Path(formprobe.__file__).parent
    callers = {path.name for path in package.glob("*.py")
               if _names_fft_transform(ast.parse(path.read_text()))}
    # bridge keeps its own FFT as the independent reference route
    assert callers == {"spectral.py", "bridge.py"}


# ---------------------------------------------------------------------------
# the real route: half spectrum, float64 fields
# ---------------------------------------------------------------------------

def _generic_field(g, q, seed, real):
    """Random data with content up to the Nyquist planes."""
    rng = np.random.default_rng(seed)
    shape = (n_components(g.dim, q),) + g.shape
    data = rng.standard_normal(shape)
    if not real:
        data = data + 1j * rng.standard_normal(shape)
    return FormField(g, q, data)


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_parseval_on_half_and_full_spectra(dim):
    # n/2 odd (10) and even (12): the half layout ends on a Nyquist plane
    # either way, with weight 1 like the k_N = 0 plane
    for n in (10, 12):
        g = GridSpec(dim, 2.0, n)
        for q in range(dim + 1):
            for real in (True, False):
                e = _generic_field(g, q, 100 * n + 10 * q + real, real)
                h = _generic_field(g, q, 200 * n + 10 * q + real, real)
                hat, h_hat = fourier(e), fourier(h)
                assert hat.grid == (g.half_box() if real else g)
                assert abs(norm(hat) - norm(e)) <= 1e-12 * norm(e)
                assert abs(spectral_sobolev_norm(e, 0.0) - norm(e)) <= 1e-12 * norm(e)
                pair = l2_inner(e, h)
                assert abs(l2_inner(hat, h_hat) - pair) <= 1e-12 * norm(e) * norm(h)
                # a nontrivial symbol: ||(1+|xi|^2)^(1/2) F(E)||^2 is
                # ||E||^2 plus the squared norms of the first partials
                h1_sq = norm(e) ** 2 + sum(norm(p) ** 2 for p in gradient(e).values())
                assert abs(spectral_sobolev_norm(e, 1.0) ** 2 - h1_sq) <= 1e-12 * h1_sq
                assert gaffney_identity_check(e).relative_gap <= 1e-12


def _operators(q, dim):
    ops = {"laplacian": laplacian,
           "partial": lambda f: partial_derivative(f, dim, 2)}
    for axis in range(1, dim + 1):
        ops[f"gradient {axis}"] = lambda f, axis=axis: gradient(f)[axis]
    if q < dim:
        ops["d"] = exterior_d
    if q > 0:
        ops["delta"] = coderivative_delta
    return ops


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_real_route_stays_real_and_agrees_with_the_complex_route(dim):
    g = GridSpec(dim, 2.0, 8 if dim == 4 else 16)
    for q in range(dim + 1):
        e = random_band_limited(g, q, 9 * dim + q)
        c = e.with_data(e.data.astype(complex))  # the same field, complex
        assert e.data.dtype == np.float64 and c.data.dtype == np.complex128
        assert fourier(c).grid == g
        for name, op in _operators(q, dim).items():
            real, full = op(e), op(c)
            assert real.data.dtype == np.float64, name
            assert full.data.dtype == np.complex128, name
            assert rel_gap(real, full) <= 1e-13, name
            # and on the frequency side: half and full spectra
            assert op(fourier(e)).grid == g.half_box(), name
            assert op(fourier(c)).grid == g, name


# ---------------------------------------------------------------------------
# lean transforms: one output buffer forward, pruned band-limited inverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_forward_transform_is_bitwise_numpys(dim):
    # one preallocated output for every axis pass changes no bit
    axes = tuple(range(-dim, 0))
    for n in (6, 8):
        g = GridSpec(dim, 2.0, n)
        for q in range(dim + 1):
            real = _generic_field(g, q, 10 * n + q, True).data
            cplx = _generic_field(g, q, 20 * n + q, False).data
            assert fft_nodes(real, g.half_box()).tobytes() == \
                np.fft.rfftn(real, axes=axes, norm="ortho").tobytes()
            assert fft_nodes(cplx, g).tobytes() == \
                np.fft.fftn(cplx, axes=axes, norm="ortho").tobytes()


@st.composite
def cube_spectra(draw):
    """A random stack over the index cube |k|_inf <= kmax of a half
    spectrum: N = 1-4, n/2 odd and even, kmax 1 .. n/2 - 1, any rank."""
    dim = draw(st.integers(1, 4))
    n = draw(st.sampled_from((4, 6, 8, 10) if dim == 4 else (4, 6, 8, 10, 12, 14)))
    kmax = draw(st.integers(1, n // 2 - 1))
    rank = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n_components(dim, rank),) + (2 * kmax + 1,) * (dim - 1) + (kmax + 1,)
    cube = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridSpec(dim, 2.0, n).half_box(), kmax, cube


@settings(max_examples=60, deadline=None)
@given(case=cube_spectra())
def test_pruned_synthesis_is_bitwise_the_full_irfftn(case):
    half, kmax, cube = case
    pruned = ifft_nodes(cube, half, kmax)
    full = numpy_inverse(embed_cube(cube, half, kmax), half)
    assert pruned.dtype == np.float64
    assert pruned.tobytes() == full.tobytes()


@st.composite
def spectra(draw):
    """A random spectrum stack on a half or full frequency grid: N = 1-4,
    n/2 odd and even, no, one or two leading stack axes."""
    dim = draw(st.integers(1, 4))
    n = draw(st.sampled_from((4, 6, 8) if dim == 4 else (4, 6, 8, 10, 12)))
    grid = GridSpec(dim, 2.0, n)
    if draw(st.booleans()):
        grid = grid.half_box()
    stack = draw(st.sampled_from(((), (3,), (2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = stack + grid.shape
    return grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=80, deadline=None)
@given(case=spectra())
def test_inverse_transform_is_bitwise_numpys(case):
    # the passes in one buffer change no bit of numpy's irfftn or ifftn
    grid, data = case
    reference = numpy_inverse(data, grid).tobytes()
    # a read-only input is copied once and left as it was
    frozen = data.copy()
    frozen.flags.writeable = False
    assert ifft_nodes(frozen, grid).tobytes() == reference
    assert frozen.tobytes() == data.tobytes()
    # a writeable complex128 input is the buffer the passes run in
    out = ifft_nodes(data, grid)
    assert out.tobytes() == reference
    if not grid.half:
        assert out is data


def test_inverse_transform_holds_its_output_beside_the_input():
    # a fresh half spectrum is inverted in its own buffer: nothing beside
    # the real output but numpy's per-line buffers; each pass into a
    # fresh array held two spectra at once
    g = GridSpec(3, 2.0, 48)
    data = _generic_field(g, 1, 3, False).data
    hat = np.fft.rfftn(data.real, axes=(1, 2, 3), norm="ortho")
    tracemalloc.start()
    out = ifft_nodes(hat, g.half_box())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < out.nbytes + 2 ** 18

