import numpy as np
import pytest

from formprobe.bridge import (VectorFieldN3, _spectral_partial,
                              bridge_residuals, curl, div, form_to_vector,
                              roundtrip_exact, vector_to_form)
from formprobe.fields import FormField, GridSpec, norm
from formprobe.manufactured import random_band_limited
from formprobe.spectral import coderivative_delta, exterior_d


def _random_vector(grid, seed):
    return VectorFieldN3(grid, np.stack(
        [random_band_limited(grid, 0, seed + j).data[0] for j in range(3)]))


def test_identifications_are_the_cyclic_area_elements():
    g = GridSpec(3, 1.0, 8)
    v = VectorFieldN3(g, np.stack([np.full(g.shape, 1.0 + 0j),
                                   np.full(g.shape, 2.0 + 0j),
                                   np.full(g.shape, 3.0 + 0j)]))
    e2 = vector_to_form(v, 2)
    assert np.all(e2.component((2, 3)) == 1.0)
    assert np.all(e2.component((1, 3)) == -2.0)
    assert np.all(e2.component((1, 2)) == 3.0)


def test_bridge_roundtrip_is_exact():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 3)
    assert roundtrip_exact(v)


def test_gradient_fields_are_curl_free():
    g = GridSpec(3, 2.0, 16)
    f = random_band_limited(g, 0, 5).data[0]
    # the classical gradient, by the bridge's own FFT route
    hat = np.fft.fftn(f, norm="ortho")
    v = VectorFieldN3(g, np.stack([_spectral_partial(g, hat, j) for j in (1, 2, 3)]))
    e1 = vector_to_form(v, 1)
    de = exterior_d(e1)
    assert norm(de) <= 1e-10 * max(norm(e1), 1e-300)


def test_d_on_one_forms_is_curl():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 7)
    lhs = form_to_vector(exterior_d(vector_to_form(v, 1)))
    rhs = curl(v)
    scale = np.abs(rhs.components).max()
    assert np.abs(lhs.components - rhs.components).max() <= 1e-10 * scale


def test_delta_on_one_forms_is_div():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 11)
    lhs = coderivative_delta(vector_to_form(v, 1)).data[0]
    rhs = div(v)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_d_on_two_forms_is_div():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 13)
    lhs = exterior_d(vector_to_form(v, 2)).data[0]
    rhs = div(v)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_delta_on_two_forms_is_minus_curl():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 17)
    lhs = form_to_vector(coderivative_delta(vector_to_form(v, 2)))
    rhs = curl(v)
    scale = np.abs(rhs.components).max()
    assert np.abs(lhs.components + rhs.components).max() <= 1e-10 * scale


def test_curl_and_div_transform_each_component_once(fft_calls):
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 23)
    fft_calls.clear()
    curl_v, div_v = curl(v).components, div(v)
    assert fft_calls.count("fftn") == 3

    # bitwise a fresh transform per partial
    def partial(j, axis):
        hat = np.fft.fftn(v.components[j - 1], norm="ortho")
        return np.fft.ifftn(1j * g.freq_field(axis) * hat, norm="ortho")

    assert np.array_equal(curl_v, np.stack([partial(3, 2) - partial(2, 3),
                                            partial(1, 3) - partial(3, 1),
                                            partial(2, 1) - partial(1, 2)]))
    assert np.array_equal(div_v, partial(1, 1) + partial(2, 2) + partial(3, 3))


def test_bridge_residuals_summary():
    g = GridSpec(3, 2.0, 16)
    v = _random_vector(g, 19)
    res = bridge_residuals(v)
    assert set(res) == {"d_is_curl", "delta_is_div", "d_is_div",
                        "delta_is_minus_curl"}
    assert max(res.values()) <= 1e-10


def test_dimension_guards():
    g2 = GridSpec(2, 1.0, 8)
    with pytest.raises(ValueError):
        VectorFieldN3(g2, np.zeros((3, 8, 8), complex))
    g3 = GridSpec(3, 1.0, 8)
    with pytest.raises(ValueError):
        vector_to_form(VectorFieldN3(g3, np.zeros((3, 8, 8, 8), complex)), 3)
    with pytest.raises(ValueError):
        form_to_vector(FormField.zeros(g3, 0))
