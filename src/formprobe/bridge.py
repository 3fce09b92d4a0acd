"""Classical grad/curl/div dictionary for N = 3.

A vector field identifies with a 1-form componentwise and with a 2-form
through the cyclic area elements.  Under these identifications d acts as
grad/curl/div down the ranks and delta as div/-curl/grad up; the check
routines compute the classical operators independently (plain FFT on the
scalar components) so the two routes stay separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import FormField, GridSpec, hodge_star


@dataclass(frozen=True)
class VectorFieldN3:
    """A vector field on an N = 3 grid; its components are not changed
    after construction, since ``spectra`` keeps their transforms."""

    grid: GridSpec
    components: np.ndarray = field(repr=False)   # shape (3, n, n, n)

    def __post_init__(self):
        if self.grid.dim != 3:
            raise ValueError("vector bridge requires N = 3")
        if self.components.shape != (3,) + self.grid.shape:
            raise ValueError("vector field needs shape (3, n, n, n)")
        if self.components.dtype != np.complex128:
            object.__setattr__(self, "components",
                               np.ascontiguousarray(self.components,
                                                    np.complex128))

    @cached_property
    def spectra(self) -> tuple:
        """The plain unitary FFT of each component, made on first use."""
        return tuple(np.fft.fftn(c, norm="ortho") for c in self.components)


def vector_to_form(v: VectorFieldN3, rank: int) -> FormField:
    """v as a 1-form (componentwise) or as its star, the 2-form
    v1 dx23 + v2 dx31 + v3 dx12 (cyclic area elements)."""
    if rank not in (1, 2):
        raise ValueError("bridge ranks are 1 and 2")
    e = FormField(v.grid, 1, v.components.copy())
    return e if rank == 1 else hodge_star(e)


def form_to_vector(e: FormField) -> VectorFieldN3:
    if e.grid.dim != 3:
        raise ValueError("vector bridge requires N = 3")
    if e.rank not in (1, 2):
        raise ValueError("bridge ranks are 1 and 2")
    # star is an involution at N = 3
    return VectorFieldN3(e.grid, (e if e.rank == 1 else hodge_star(e)).data.copy())


# ---------------------------------------------------------------------------
# independent classical operators (plain FFT route)
# ---------------------------------------------------------------------------

def _spectral_partial(grid: GridSpec, hat: np.ndarray, axis: int) -> np.ndarray:
    """d_axis of a component from its spectrum ``hat``."""
    return np.fft.ifftn(1j * grid.freq_field(axis) * hat, norm="ortho")


def curl(v: VectorFieldN3) -> VectorFieldN3:
    g = v.grid
    v1, v2, v3 = v.spectra
    return VectorFieldN3(g, np.stack([
        _spectral_partial(g, v3, 2) - _spectral_partial(g, v2, 3),
        _spectral_partial(g, v1, 3) - _spectral_partial(g, v3, 1),
        _spectral_partial(g, v2, 1) - _spectral_partial(g, v1, 2)]))


def div(v: VectorFieldN3) -> np.ndarray:
    g = v.grid
    return sum(_spectral_partial(g, v.spectra[j - 1], j) for j in (1, 2, 3))


# ---------------------------------------------------------------------------
# dictionary checks
# ---------------------------------------------------------------------------

def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b).max() / scale)


def bridge_residuals(v: VectorFieldN3) -> dict:
    """Residuals of the four dictionary rows on one vector field."""
    from .spectral import coderivative_delta, exterior_d
    e1 = vector_to_form(v, 1)
    e2 = vector_to_form(v, 2)
    curl_v = curl(v).components
    div_v = div(v)
    return {
        # d on 1-forms is curl, delta on 1-forms is div
        "d_is_curl": _rel(form_to_vector(exterior_d(e1)).components, curl_v),
        "delta_is_div": _rel(coderivative_delta(e1).data[0], div_v),
        # d on 2-forms is div (volume-form coefficient), delta is -curl
        "d_is_div": _rel(exterior_d(e2).data[0], div_v),
        "delta_is_minus_curl": _rel(
            form_to_vector(coderivative_delta(e2)).components, -curl_v)}


def roundtrip_exact(v: VectorFieldN3) -> bool:
    """bridge then inverse is the identity, bitwise."""
    for rank in (1, 2):
        back = form_to_vector(vector_to_form(v, rank))
        if not np.array_equal(back.components, v.components):
            return False
    return True
