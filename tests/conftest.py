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


@pytest.fixture
def fft_calls(monkeypatch) -> list:
    """Names of the numpy transforms called while the test runs, complex
    (fftn, ifftn) and real (rfftn, irfftn); clear the list to start a new
    count."""
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls
