"""Output checks computed apart from the program.

Forms are arrays of shape (C(N, q),) + (n,) * N over strictly increasing
multi-indices in lexicographic order, on the periodic box [-L, L)^N.  The
derivatives here use their own FFT symbols (i xi_j with the Nyquist entry
zeroed, as for any real band-limited derivative) and nothing from
``formprobe.spectral``:

    (dE)_K     = sum_{j in K}     (-1)^{#(i in K, i < j)} d_j E_{K - j}
    (delta E)_J = sum_{j not in J} (-1)^{#(i in J, i < j)} d_j E_{J + j}

so delta is the contraction convention in which delta of a 1-form is its
divergence.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

GAFFNEY_RATIO_RANGE = (1.0 / math.sqrt(3.0), 1.0)
ROUNDING = 1e-12


def multi_indices(dim: int, rank: int) -> list:
    return list(combinations(range(1, dim + 1), rank))


def axis_freqs(points: int, half_length: float) -> np.ndarray:
    xi = 2.0 * np.pi * np.fft.fftfreq(points, d=2.0 * half_length / points)
    xi[points // 2] = 0.0
    return xi


def max_frequency(dim: int, points: int, half_length: float) -> float:
    """Largest |xi| on the grid, the bound of the derivative symbol."""
    return math.sqrt(dim) * float(np.abs(axis_freqs(points, half_length)).max())


def coordinates_sq(dim: int, points: int, half_length: float) -> np.ndarray:
    x = -half_length + (2.0 * half_length / points) * np.arange(points)
    r2 = np.zeros((points,) * dim)
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = points
        r2 = r2 + (x * x).reshape(shape)
    return r2


def _symbol(dim: int, axis: int, points: int, half_length: float) -> np.ndarray:
    shape = [1] * dim
    shape[axis - 1] = points
    return 1j * axis_freqs(points, half_length).reshape(shape)


def _transform(data: np.ndarray, dim: int) -> np.ndarray:
    return np.fft.fftn(data, axes=tuple(range(1, dim + 1)))


def _inverse(data: np.ndarray, dim: int) -> np.ndarray:
    return np.fft.ifftn(data, axes=tuple(range(1, dim + 1)))


def exterior_d(data: np.ndarray, rank: int, half_length: float) -> np.ndarray:
    dim = data.ndim - 1
    points = data.shape[1]
    hat = _transform(data, dim)
    position = {mi: p for p, mi in enumerate(multi_indices(dim, rank))}
    out_indices = multi_indices(dim, rank + 1)
    out = np.zeros((len(out_indices),) + data.shape[1:], np.complex128)
    for pos, k_mi in enumerate(out_indices):
        for place, j in enumerate(k_mi):
            rest = k_mi[:place] + k_mi[place + 1:]
            sign = -1.0 if place % 2 else 1.0
            out[pos] += sign * _symbol(dim, j, points, half_length) * hat[position[rest]]
    return _inverse(out, dim)


def codifferential(data: np.ndarray, rank: int, half_length: float) -> np.ndarray:
    dim = data.ndim - 1
    points = data.shape[1]
    hat = _transform(data, dim)
    position = {mi: p for p, mi in enumerate(multi_indices(dim, rank))}
    out_indices = multi_indices(dim, rank - 1)
    out = np.zeros((len(out_indices),) + data.shape[1:], np.complex128)
    for pos, j_mi in enumerate(out_indices):
        for j in range(1, dim + 1):
            if j in j_mi:
                continue
            below = sum(1 for i in j_mi if i < j)
            merged = tuple(sorted(j_mi + (j,)))
            sign = -1.0 if below % 2 else 1.0
            out[pos] += sign * _symbol(dim, j, points, half_length) * hat[position[merged]]
    return _inverse(out, dim)


def l2(data: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(data) ** 2)))


def check_solve(e: np.ndarray, h: np.ndarray, rank: int, half_length: float,
                tol: float = 1e-10) -> list:
    """delta H = E to a relative residual of ``tol``."""
    scale = l2(e)
    if scale == 0.0:
        return ["solve input is zero"]
    residual = l2(codifferential(h, rank + 1, half_length) - e) / scale
    return [] if residual <= tol else [f"solve residual {residual:.3e} > {tol:.1e}"]


def check_weighted_split(e: np.ndarray, exact: np.ndarray, coexact: np.ndarray,
                         mean: np.ndarray, rank: int, half_length: float,
                         eps: np.ndarray, split_tol: float) -> list:
    """Parts resum to E, d(exact) = 0 and delta(eps coexact) is small.

    The last bound is |xi|_max * max(eps) * split_tol * ||E||: the split
    stops when its update P_exact(eps C) / c is below split_tol ||E||, with
    reference medium c <= max(eps), and delta of that exact part is at most
    |xi|_max times its size.
    """
    dim = e.ndim - 1
    scale = l2(e)
    resum = l2(exact + coexact + mean - e) / scale
    curl = l2(exterior_d(exact, rank, half_length)) / scale
    div = l2(codifferential(eps * coexact, rank, half_length)) / scale
    div_tol = max_frequency(dim, e.shape[1], half_length) * float(eps.max()) * split_tol
    problems = []
    if resum > 1e-12:
        problems.append(f"split parts resum to {resum:.3e} > 1e-12")
    if curl > 1e-10:
        problems.append(f"exact part has ||dA||/||E|| = {curl:.3e} > 1e-10")
    if div > div_tol:
        problems.append(f"||delta(eps C)||/||E|| = {div:.3e} > {div_tol:.3e}")
    return problems


def check_gaffney_ratios(ratios: list) -> list:
    """Interior probe, id media, order 0, weight 0: ratio in [1/sqrt3, 1].

    The ratio is sqrt(a^2 + b^2 + c^2) / (a + b + c) with a = ||E||,
    b = ||dE||, c = ||delta E||, because the Gaffney identity makes the
    full gradient energy equal b^2 + c^2.
    """
    low, high = GAFFNEY_RATIO_RANGE
    bad = [r for r in ratios
           if not (low - ROUNDING <= r <= high + ROUNDING)]
    problems = [f"interior ratio {r!r} outside [1/sqrt3, 1]" for r in bad]
    if not ratios:
        problems.append("interior probe reported no samples")
    return problems
