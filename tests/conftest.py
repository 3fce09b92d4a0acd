"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from formprobe.fields import FormField, GridSpec, norm


def rel_gap(a: FormField, b: FormField) -> float:
    scale = max(norm(a), norm(b), 1e-300)
    return norm(a - b) / scale


def max_abs(e: FormField) -> float:
    return float(np.abs(e.data).max())


def grid2(n: int = 32, L: float = 3.0) -> GridSpec:
    return GridSpec(2, L, n)


def grid3(n: int = 24, L: float = 3.0) -> GridSpec:
    return GridSpec(3, L, n)


# every transform numpy.fft exports; numpy's n-dimensional transforms run
# their 1-D passes through private bindings, so each call is logged once
NUMPY_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                    "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


def inverse_passes(dim: int, real: bool) -> list:
    """The numpy transforms of one inverse over N node axes, in order: the
    complex passes, then the real pass from a half spectrum."""
    return ["ifft"] * (dim - 1) + ["irfft"] if real else ["ifft"] * dim


def numpy_inverse(data: np.ndarray, grid: GridSpec) -> np.ndarray:
    """numpy's n-d inverse of a spectrum on the frequency grid ``grid``,
    the reference for ``ifft_nodes``."""
    axes = tuple(range(-grid.dim, 0))
    if grid.half:
        return np.fft.irfftn(data, s=(grid.points,) * grid.dim, axes=axes,
                             norm="ortho")
    return np.fft.ifftn(data, axes=axes, norm="ortho")


class TransformLog(list):
    """Names of the numpy transforms called, in call order; ``points``
    holds the input size of each call."""

    def __init__(self):
        super().__init__()
        self.points = []

    def clear(self):
        super().clear()
        self.points.clear()


@pytest.fixture
def fft_calls(monkeypatch) -> TransformLog:
    """Every numpy transform called while the test runs, by name: the
    n-dimensional ones (fftn, rfftn, ...) and the 1-D passes (fft, irfft,
    ...) the package calls directly; clear the log to start a new count."""
    calls = TransformLog()
    for name in NUMPY_TRANSFORMS:
        def counted(data, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            calls.points.append(np.size(data))
            return _fn(data, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
