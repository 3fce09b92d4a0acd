import numpy as np
import pytest

from conftest import inverse_passes, max_abs, rel_gap
from formprobe.fields import FormField, GridSpec, hodge_star, l2_inner, norm
from formprobe.halfspace import (boundary_grid, diff_quotient, extend_boundary_form,
                                 mirror_Sd, mirror_Sdelta,
                                 normal_derivative_reconstruct,
                                 restrict_to_half, shift,
                                 stokes_pairing_residual, trace_normal,
                                 trace_tangential)
from formprobe.manufactured import (ManufacturedForm, gaussian_form,
                                    parity_symmetrized, random_band_limited,
                                    random_dense_media, random_dyadic)
from formprobe.media import (make_transformation, reflected_transform,
                             scalar_catalog)
from formprobe.spectral import (assemble_d, assemble_delta,
                                coderivative_delta, exterior_d, fourier,
                                gradient, laplacian, partial_derivative,
                                spectral_sobolev_norm)


# ---------------------------------------------------------------------------
# containers and quadrature
# ---------------------------------------------------------------------------

def test_restrict_keeps_lower_half_plus_plane():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 0, 1)
    half = restrict_to_half(e)
    assert half.data.shape == (1, 8, 5)
    assert np.array_equal(half.data, e.data[..., :5])


def test_half_norm_trapezoid_weights():
    g = GridSpec(2, 1.0, 8)
    one = FormField(g.half_box(), 0, np.ones((1, 8, 5), complex))
    # x_N weights: (1/2 + 3 + 1/2) * h = 4h; x' weight: 8h
    expected = np.sqrt(8 * 4.0) * g.spacing
    assert norm(one) == pytest.approx(expected, rel=1e-13)


def test_restrict_is_a_read_only_view_of_the_parent():
    g = GridSpec(3, 1.0, 8)
    e = random_band_limited(g, 1, 2, real=False)
    before = e.data.copy()
    half = restrict_to_half(e)
    assert half.grid == g.half_box() and half.grid.shape == (8, 8, 5)
    assert np.shares_memory(half.data, e.data)
    assert not half.data.flags.writeable
    with pytest.raises(ValueError):
        half.data[..., 0] = 0.0
    assert np.array_equal(e.data, before)
    assert np.array_equal(half.data, before[..., :5])


def test_half_box_inner_product_is_the_trapezoid_sum_bitwise():
    for dim in (1, 2, 3):
        g = GridSpec(dim, 3.0, 16)
        w = np.ones(9)
        w[0] = w[-1] = 0.5
        for q in range(dim + 1):
            a = restrict_to_half(random_band_limited(g, q, 3 * q + dim, real=False))
            b = restrict_to_half(random_band_limited(g, q, 5 * q + dim + 1,
                                                     real=False))
            for x, y in ((a, b), (a, a)):
                ref = complex(np.sum(w * np.sum(x.data * np.conj(y.data), axis=0))
                              * g.cell_volume)
                assert l2_inner(x, y) == ref
            assert norm(a) == np.sqrt(max(ref.real, 0.0))
            rho = 1.0 + g.radius_sq()[..., :9]
            weighted = np.sum(rho * w * (a.data * np.conj(b.data))) * g.cell_volume
            assert l2_inner(a, b, 1.0) == complex(weighted)


def test_half_box_field_has_no_spectrum():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 1, 3)
    half = restrict_to_half(e)
    # on the frequency side the half layout holds the half spectrum of a
    # real periodic-box field; a field on the half box itself has none
    assert fourier(e).grid == g.half_box() and fourier(e).spectral
    for op in (fourier, exterior_d, coderivative_delta, laplacian, gradient,
               lambda f: spectral_sobolev_norm(f, 1.0)):
        with pytest.raises(ValueError, match="no spectrum"):
            op(half)
    for mixed in (lambda: half + e, lambda: e - half, lambda: l2_inner(half, e)):
        with pytest.raises(ValueError, match="grid mismatch"):
            mixed()


def test_boundary_operators_need_a_half_box_field():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 1, 3)
    e0 = random_band_limited(g, 0, 4)
    for op in (mirror_Sd, mirror_Sdelta, trace_tangential, trace_normal,
               lambda f: stokes_pairing_residual(e0, f, f, e0)):
        with pytest.raises(ValueError, match="half box"):
            op(e)


def test_media_act_on_their_own_half_box_only():
    g = GridSpec(2, 3.0, 16)
    e = random_band_limited(g, 1, 4, real=False)
    other = restrict_to_half(random_band_limited(GridSpec(2, 3.0, 8), 1, 4))
    for eps in (make_transformation(g, 1, "identity"),
                scalar_catalog(g, "gauss_well"),
                random_dense_media(g, 1, seed=5)):
        half = restrict_to_half(e)
        for act in (eps.apply, eps.apply_inverse, eps.solve_rho_block,
                    lambda f: eps.apply_partial(2, f)):
            assert np.array_equal(act(half).data, restrict_to_half(act(e)).data)
            with pytest.raises(ValueError, match="grid mismatch"):
                act(other)


# ---------------------------------------------------------------------------
# mirror operators
# ---------------------------------------------------------------------------

def test_mirror_rank0_is_even_reflection():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 0, 3)
    ext = mirror_Sd(restrict_to_half(e))
    n = g.points
    for k in range(1, n // 2):
        assert np.allclose(ext.data[0, :, n // 2 + k],
                           ext.data[0, :, n // 2 - k], atol=0)


def test_mirror_normal_component_is_odd_reflection():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 1, 4)
    ext = mirror_Sd(restrict_to_half(e))
    n = g.points
    pos = 1  # component (2,) carries the normal index
    for k in range(1, n // 2):
        assert np.allclose(ext.data[pos, :, n // 2 + k],
                           -ext.data[pos, :, n // 2 - k], atol=0)


def test_mirror_sqrt2_isometry():
    for dim in (2, 3):
        g = GridSpec(dim, 1.0, 16)
        for q in range(dim + 1):
            half = restrict_to_half(random_band_limited(g, q, 7 * q + 1,
                                                        real=False))
            ext = mirror_Sd(half)
            assert norm(ext) ** 2 == pytest.approx(2 * norm(half) ** 2,
                                                   rel=1e-12)


def test_mirror_support_containment():
    g = GridSpec(2, 2.0, 32)
    ball = g.radius_sq() < 1.0 ** 2
    mask = ball & np.broadcast_to(g.coord_field(2) <= 0, g.shape)
    e = random_band_limited(g, 1, 9).scale_pointwise(mask.astype(float))
    ext = mirror_Sd(restrict_to_half(e))
    outside = ~ball
    assert np.abs(ext.data[:, outside]).max() == 0.0


def test_mirror_commutes_with_d_on_compatible_fields():
    for dim in (2, 3):
        g = GridSpec(dim, 3.0, 32)
        for q in range(dim):
            e = parity_symmetrized(random_band_limited(g, q, 3 * q + 2),
                                   "mirror")
            lhs = exterior_d(mirror_Sd(restrict_to_half(e)))
            rhs = mirror_Sd(restrict_to_half(exterior_d(e)))
            assert rel_gap(lhs, rhs) <= 1e-8


def test_dual_mirror_rank0_is_odd_reflection():
    g = GridSpec(2, 1.0, 8)
    e = parity_symmetrized(random_band_limited(g, 0, 5), "trace-free")
    ext = mirror_Sdelta(restrict_to_half(e))
    n = g.points
    for k in range(1, n // 2):
        assert np.allclose(ext.data[0, :, n // 2 + k],
                           -ext.data[0, :, n // 2 - k], atol=1e-15)


def test_dual_mirror_isometry_and_delta_commutation():
    g = GridSpec(2, 3.0, 32)
    for q in range(1, 3):
        e = parity_symmetrized(random_band_limited(g, q, 11 * q), "trace-free")
        half = restrict_to_half(e)
        ext = mirror_Sdelta(half)
        assert norm(ext) ** 2 == pytest.approx(2 * norm(half) ** 2,
                                               rel=1e-12)
        lhs = coderivative_delta(ext)
        rhs = mirror_Sdelta(restrict_to_half(coderivative_delta(e)))
        assert rel_gap(lhs, rhs) <= 1e-8


def test_dual_mirror_is_the_star_conjugate_of_the_mirror_bitwise():
    for dim in (1, 2, 3, 4):
        g = GridSpec(dim, 1.5, 8)
        for q in range(dim + 1):
            half = restrict_to_half(random_band_limited(g, q, 5 * dim + q,
                                                        real=False))
            sign = -1.0 if (q * (dim - q)) % 2 else 1.0
            ref = sign * hodge_star(mirror_Sd(hodge_star(half)))
            assert mirror_Sdelta(half).data.tobytes() == ref.data.tobytes()


# ---------------------------------------------------------------------------
# shifts and difference quotients
# ---------------------------------------------------------------------------

def test_shift_requires_grid_aligned_step():
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 0, 1)
    with pytest.raises(ValueError):
        shift(e, 1, 0.3 * g.spacing)


def test_normal_axis_shift_rejected_on_half_grid():
    g = GridSpec(2, 1.0, 8)
    half = restrict_to_half(random_band_limited(g, 0, 1))
    with pytest.raises(ValueError):
        shift(half, 2, g.spacing)
    shifted = shift(half, 1, g.spacing)  # tangential is fine
    assert shifted.data.shape == half.data.shape


def test_diff_quotient_of_constant_vanishes():
    g = GridSpec(2, 1.0, 8)
    const = FormField.from_components(g, 0, {(): 3.0})
    assert max_abs(diff_quotient(const, 1, g.spacing)) == 0.0


def test_diff_quotient_first_order_convergence_on_catalog():
    g = GridSpec(2, 1.0, 64)
    for idx in range(3):
        # band-limited, so the spectral partial is exact
        e = random_band_limited(g, 0, 40 + idx, kmax=2)
        exact = partial_derivative(e, 1)
        errs = [norm(diff_quotient(e, 1, k * g.spacing) - exact)
                for k in (2, 1)]
        ratio = errs[0] / errs[1]
        assert 1.8 <= ratio <= 2.2


def test_anti_duality_exact_on_integer_data():
    g = GridSpec(2, 1.0, 32)
    h_step = g.spacing
    for q in (0, 1):
        f = random_dyadic(g, q, 3 + q, bits=10)
        gg = random_dyadic(g, q, 17 + q, bits=10)
        pair = l2_inner(diff_quotient(f, 1, h_step), gg) \
            + l2_inner(f, diff_quotient(gg, 1, -h_step))
        assert pair == 0.0


def test_product_rule_exact_on_integer_data():
    g = GridSpec(2, 1.0, 32)
    h_step = 2 * g.spacing
    rng = np.random.default_rng(5)
    f = random_dyadic(g, 1, 23, bits=10)
    mu = 1.0 + rng.integers(1, 2 ** 8, size=g.shape).astype(float)
    lhs = diff_quotient(f.scale_pointwise(mu), 1, h_step)
    quot_mu = (np.roll(mu, -2, axis=0) - mu) / h_step
    rhs = diff_quotient(f, 1, h_step).scale_pointwise(mu) \
        + shift(f, 1, h_step).scale_pointwise(quot_mu)
    assert max_abs(lhs - rhs) == 0.0


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_examples_from_coefficients():
    g = GridSpec(2, 1.0, 16)
    x1 = np.broadcast_to(g.coord_field(1), g.shape)
    xn = np.broadcast_to(g.coord_field(2), g.shape)
    e = FormField.from_components(g, 1, {(1,): xn, (2,): x1})
    traced = trace_tangential(restrict_to_half(e))
    assert max_abs(traced) == 0.0      # tangential coefficient is x_N
    f = FormField.from_components(g, 1, {(1,): np.cos(np.pi * x1)})
    traced = trace_tangential(restrict_to_half(f))
    assert np.allclose(traced.data[0], np.cos(np.pi * g.axis_coords()))


def test_trace_commutes_with_boundary_d():
    g = GridSpec(3, 3.0, 16)
    for q in range(2):
        e = random_band_limited(g, q, 5 + q)
        lhs = exterior_d(trace_tangential(restrict_to_half(e)))
        rhs = trace_tangential(restrict_to_half(exterior_d(e)))
        assert rel_gap(lhs, rhs) <= 1e-8


def test_normal_trace_of_x1_dxN():
    # gamma_n of x_1 dx^N is +/- x_1 as a boundary 0-form
    g = GridSpec(2, 1.0, 16)
    x1 = np.broadcast_to(g.coord_field(1), g.shape)
    e = FormField.from_components(g, 1, {(2,): x1})
    tn = trace_normal(restrict_to_half(e))
    assert tn.rank == 0
    line = g.axis_coords()
    assert np.allclose(np.abs(tn.data[0]), np.abs(line), atol=1e-14)


def test_normal_trace_kills_tangential_rank1():
    g = GridSpec(3, 1.0, 8)
    x1 = np.broadcast_to(g.coord_field(1), g.shape)
    e = FormField.from_components(g, 1, {(1,): np.cos(np.pi * x1)})
    assert max_abs(trace_normal(restrict_to_half(e))) == 0.0


def test_trace_pair_reproduces_all_boundary_data():
    # dimension count C(N-1,q) + C(N-1,q-1) = C(N,q), realized bijectively
    import math
    for dim in (2, 3):
        for q in range(1, dim):
            assert math.comb(dim - 1, q) + math.comb(dim - 1, q - 1) \
                == math.comb(dim, q)
            g = GridSpec(dim, 1.0, 8)
            e = random_band_limited(g, q, 13 * q)
            half = restrict_to_half(e)
            assert trace_tangential(half).data.shape[0] == math.comb(dim - 1, q)
            assert trace_normal(half).data.shape[0] == math.comb(dim - 1, q - 1)


def test_boundary_extension_is_right_inverse():
    g = GridSpec(3, 2.0, 16)
    b = random_band_limited(boundary_grid(g), 1, 21)
    ext = extend_boundary_form(b, g)
    assert rel_gap(trace_tangential(ext), b) == 0.0


# ---------------------------------------------------------------------------
# Stokes pairing
# ---------------------------------------------------------------------------

class RadialBump:
    """amplitude * exp(1 - 1/(1 - (r/radius)^2)) inside the ball, 0 outside.

    Vanishes identically (true zeros on grid nodes) outside the ball and
    with all derivatives at its edge; differentiable here only to first
    order (sufficient for d/delta of bump-built forms).
    """

    decay = 0.0  # no Gaussian envelope for ManufacturedForm.field to share

    def __init__(self, dim: int, radius: float, amplitude: complex = 1.0,
                 gradient_axis: int = 0, center: tuple | None = None):
        self.dim = dim
        self.radius = float(radius)
        self.amplitude = complex(amplitude)
        self.gradient_axis = gradient_axis  # 0 = plain bump, j>0 = d_j bump
        self.center = tuple(center) if center is not None else (0.0,) * dim

    def _base(self, grid: GridSpec):
        r2 = np.zeros(grid.shape)
        for c, c0 in zip(grid.coord_fields(), self.center):
            r2 = r2 + (c - c0) ** 2
        u = r2 / self.radius ** 2
        inside = u < 1.0
        safe = np.where(inside, 1.0 - u, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            values = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
        return values, u, inside

    def eval(self, grid: GridSpec) -> np.ndarray:
        """Values on the grid, in float64 for a real amplitude."""
        values, u, inside = self._base(grid)
        amplitude = self.amplitude.real if self.amplitude.imag == 0.0 \
            else self.amplitude
        if self.gradient_axis == 0:
            return amplitude * values
        x = np.broadcast_to(grid.coord_field(self.gradient_axis)
                            - self.center[self.gradient_axis - 1], grid.shape)
        safe = np.where(inside, (1.0 - u) ** 2, 1.0)
        deriv = np.where(inside,
                         -2.0 * x / self.radius ** 2 / safe * values, 0.0)
        return amplitude * deriv

    def partial(self, axis: int) -> "RadialBump":
        if self.gradient_axis != 0:
            raise NotImplementedError("radial bump supports first derivatives "
                                      "only; use Gaussian bumps for higher order")
        return RadialBump(self.dim, self.radius, self.amplitude, axis,
                          self.center)


def test_bump_vanishes_outside_ball_with_flat_edge():
    g = GridSpec(2, 3.0, 64)
    form = ManufacturedForm(g, 0, {(): RadialBump(2, 1.0, -0.4)})
    e = form.field()
    outside = ~(g.radius_sq() < 1.0 ** 2)
    assert np.abs(e.data[0][outside]).max() == 0.0
    # near the edge the bump and its gradient both collapse
    r = np.sqrt(g.radius_sq())
    ring = (0.97 < r) & (r < 1.0)
    assert np.abs(e.data[0][ring]).max() <= 1e-9 * np.abs(e.data[0]).max()
    grad1 = form.partial(1).field()
    assert np.abs(grad1.data[0][ring]).max() <= 1e-6 * np.abs(grad1.data[0]).max()


def test_stokes_residual_refines_at_fourth_order():
    residuals = {}
    for n in (32, 64):
        g = GridSpec(2, 3.0, n)
        em = gaussian_form(g, 0, 5, decay=2.5)
        hm = gaussian_form(g, 1, 6, decay=2.5)
        residuals[n] = stokes_pairing_residual(
            restrict_to_half(em.field()), restrict_to_half(hm.field()),
            restrict_to_half(assemble_d(em.partials())),
            restrict_to_half(assemble_delta(hm.partials())))
    assert residuals[32] / residuals[64] >= 8.0


def test_stokes_residual_trace_free_members():
    g = GridSpec(2, 3.0, 32)
    e = gaussian_form(g, 0, 31, decay=2.5, trace_free=True).field()
    h = gaussian_form(g, 1, 32, decay=2.5, trace_free=True).field()
    res = stokes_pairing_residual(restrict_to_half(e), restrict_to_half(h),
                                  restrict_to_half(exterior_d(e)),
                                  restrict_to_half(coderivative_delta(h)),
                                  quadrature="trapezoid")
    assert res <= 1e-8 * norm(e) * norm(h)


def test_stokes_members_vanishing_near_plane():
    # supported strictly inside the open half-box: boundary pairing is zero
    # and the quadrature sees a compactly supported integrand
    g = GridSpec(2, 3.0, 128)
    center = (0.0, -1.5)
    e_m = ManufacturedForm(g, 0, {(): RadialBump(2, 1.0, 1.0, center=center)})
    h_m = ManufacturedForm(g, 1, {(1,): RadialBump(2, 1.0, 0.7, center=center),
                                  (2,): RadialBump(2, 1.0, -0.4, center=center)})
    e, h = e_m.field(), h_m.field()
    assert np.abs(e.data[..., g.points // 2 - 2:]).max() == 0.0
    res = stokes_pairing_residual(restrict_to_half(e), restrict_to_half(h),
                                  restrict_to_half(assemble_d(e_m.partials())),
                                  restrict_to_half(assemble_delta(h_m.partials())))
    assert res <= 1e-8 * max(norm(e) * norm(h), 1.0)


def test_stokes_warns_on_wrap_around():
    g = GridSpec(2, 3.0, 16)
    e = random_band_limited(g, 0, 3)   # no envelope: reaches the deep end
    h = random_band_limited(g, 1, 4)
    with pytest.warns(UserWarning):
        stokes_pairing_residual(restrict_to_half(e), restrict_to_half(h),
                                restrict_to_half(exterior_d(e)),
                                restrict_to_half(coderivative_delta(h)))


def test_stokes_rank_mismatch():
    g = GridSpec(2, 1.0, 8)
    z0 = restrict_to_half(FormField.zeros(g, 0))
    with pytest.raises(ValueError):
        stokes_pairing_residual(z0, z0, z0, z0)


# ---------------------------------------------------------------------------
# normal-derivative reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_identity_material_analytic_case():
    # E = sin(pi x_N / L) dx^1 in N=2: d_N E_1 comes from (dE)_12 alone
    g = GridSpec(2, 2.0, 32)
    xn = np.broadcast_to(g.coord_field(2), g.shape)
    e = FormField.from_components(g, 1, {(1,): np.sin(np.pi * xn / 2.0)})
    eps = make_transformation(g, None, "identity")
    parts = gradient(e)
    rec = normal_derivative_reconstruct(
        restrict_to_half(e), restrict_to_half(exterior_d(e)),
        restrict_to_half(coderivative_delta(e)), eps,
        {1: restrict_to_half(parts[1])})
    expected = (np.pi / 2.0) * np.cos(np.pi * xn / 2.0)[..., :g.points // 2 + 1]
    assert np.abs(rec[2].component((1,)) - expected).max() <= 1e-12


def test_reconstruction_field_independent_of_xn():
    g = GridSpec(2, 2.0, 16)
    x1 = np.broadcast_to(g.coord_field(1), g.shape)
    e = FormField.from_components(g, 1, {(1,): np.cos(np.pi * x1 / 2.0),
                                         (2,): np.sin(np.pi * x1 / 2.0)})
    eps = make_transformation(g, None, "identity")
    parts = gradient(e)
    rec = normal_derivative_reconstruct(
        restrict_to_half(e), restrict_to_half(exterior_d(e)),
        restrict_to_half(coderivative_delta(e)), eps,
        {1: restrict_to_half(parts[1])})
    assert max_abs(rec[2]) <= 1e-12


@pytest.mark.parametrize("rank", (0, 1, 2, 3))
def test_reconstruction_against_spectral_gradient(rank):
    g = GridSpec(3, 3.0, 16)
    e = random_band_limited(g, rank, 41 + rank, real=False)
    eps = random_dense_media(g, rank, 51 + rank, amplitude=0.4)
    parts = gradient(e)
    de = restrict_to_half(exterior_d(e)) if rank < 3 else None
    dl = restrict_to_half(coderivative_delta(eps.apply(e))) if rank > 0 else None
    rec = normal_derivative_reconstruct(
        restrict_to_half(e), de, dl, eps,
        {j: restrict_to_half(parts[j]) for j in (1, 2)})
    direct = restrict_to_half(parts[3])
    assert norm(rec[3] - direct) <= 1e-8 * max(norm(direct), 1e-300)


def test_reconstruction_transforms_material_entries_once(fft_calls):
    # a reflected dense material carries no stored partials
    g = GridSpec(3, 3.0, 16)
    e = random_band_limited(g, 1, 42, real=False)
    eps = reflected_transform(random_dense_media(g, 1, 52, amplitude=0.4))
    parts = gradient(e)
    args = (restrict_to_half(e), restrict_to_half(exterior_d(e)),
            restrict_to_half(coderivative_delta(eps.apply(e))), eps,
            {j: restrict_to_half(parts[j]) for j in (1, 2)})
    fft_calls.clear()
    rec = normal_derivative_reconstruct(*args)
    # one forward transform of the real entry stack, one inverse (its
    # passes) for all axes
    assert fft_calls == ["rfftn"] + inverse_passes(3, True)
    direct = restrict_to_half(parts[3])
    assert norm(rec[3] - direct) <= 1e-8 * norm(direct)


def test_reconstruction_scalar_material():
    # the member decays like exp(-3 |x|^2), so the material product stays
    # supported inside the box (its spectral derivative is then clean)
    g = GridSpec(2, 3.0, 48)
    e = gaussian_form(g, 1, 61, trace_free=True).field()
    eps = scalar_catalog(g, "gauss_well", amplitude=0.8, width=1.0)
    parts = gradient(e)
    rec = normal_derivative_reconstruct(
        restrict_to_half(e), restrict_to_half(exterior_d(e)),
        restrict_to_half(coderivative_delta(eps.apply(e))), eps,
        {1: restrict_to_half(parts[1])})
    direct = restrict_to_half(parts[2])
    assert norm(rec[2] - direct) <= 1e-8 * norm(direct)
