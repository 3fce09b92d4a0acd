"""Hodge-Helmholtz splitting and the constructive co-derivative solver.

On the torus the frequency-side operator algebra produces the projectors
directly: R T / |xi|^2 fixes the exact range, T R / |xi|^2 the co-exact
range, and modes annihilated by every derivative (the mean mode, plus
pure Nyquist modes on non-band-limited data) form the discrete harmonic
remainder, reported separately.  Every symbol scaling runs in the
buffer of the fresh R or T output it scales, not in a temporary of its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (FormField, apply_R, apply_T, apply_table, l2_inner, norm,
                     sign_table, sum_of_squares)
from .media import Transformation
from .spectral import (_inverse_in_place, _scaled, fourier, fourier_inverse,
                       harmonic_mask)


def _inv_symbol(r2: np.ndarray) -> np.ndarray:
    """1 / |xi|^2 off the harmonic modes, 0 on them."""
    out = np.zeros_like(r2)
    nz = r2 != 0.0
    out[nz] = 1.0 / r2[nz]
    return out


@dataclass(frozen=True)
class HodgeSplit:
    exact_part: FormField
    coexact_part: FormField
    mean_part: FormField
    iterations: int = 0
    fixed_point_residual: float = 0.0
    update_history: tuple = ()     # update sizes, before and after each step

    def resum(self) -> FormField:
        return self.exact_part + self.coexact_part + self.mean_part


def _exact_projection(hat: FormField) -> FormField:
    """The exact part R T / |xi|^2 of a spectrum; harmonic modes go to 0."""
    if hat.rank == 0:
        return hat.with_data(np.zeros_like(hat.data))
    if hat.rank == hat.grid.dim:
        return hat.with_data(np.where(harmonic_mask(hat.grid), 0.0, hat.data))
    return _scaled(apply_R(apply_T(hat)), _inv_symbol(hat.grid.freq_radius_sq()))


def coexact_data(data: np.ndarray, rank: int, freqs: tuple) -> np.ndarray:
    """T R / |xi|^2 of the spectral data of a rank < N form, given at the
    frequencies ``freqs`` (xi_1 .. xi_N, broadcastable over its nodes): a
    whole frequency grid, or the index cube of a band-limited spectrum.
    Harmonic modes go to 0."""
    r2 = sum_of_squares(freqs)
    nonzero = np.where(r2 == 0.0, 0.0, data)
    if rank == 0:
        return nonzero
    dim = len(freqs)
    out = apply_table(sign_table("T", dim, rank + 1),
                      apply_table(sign_table("R", dim, rank), nonzero, freqs), freqs)
    return np.multiply(_inv_symbol(r2), out, out=out)


def _split_spectral(hat: FormField) -> tuple:
    kernel = harmonic_mask(hat.grid)
    mean_hat = hat.with_data(np.where(kernel, hat.data, 0.0))
    nonzero = hat.with_data(np.where(kernel, 0.0, hat.data))
    coexact = (np.zeros_like(hat.data) if hat.rank == hat.grid.dim else
               coexact_data(hat.data, hat.rank, hat.grid.freq_fields()))
    return _exact_projection(nonzero), hat.with_data(coexact), mean_hat


def hodge_decompose(e: FormField, eps: Transformation | None = None,
                    tol: float = 1e-8, max_iter: int = 200) -> HodgeSplit:
    """Split E into exact, co-exact and harmonic (mean) parts.

    With eps = None the split is the plain orthogonal one, built from the
    frequency-side projectors.  With a material eps the co-exact part is
    taken in the eps-weighted sense (delta(eps coexact) = 0): the exact
    part A solves P eps P A = P eps (E - mean) on the exact range (P the
    exact projector), by conjugate gradients on the frequency side with
    reference medium c = (lambda_min + lambda_max) / 2, about sqrt(kappa)
    steps for a material of contrast kappa.  The update size is
    ||P eps C|| / (c ||E||) for the co-exact part C, the Richardson update
    with medium c; the split stops below ``tol`` and raises RuntimeError
    when it reaches ``max_iter``, meets a NaN or a non-positive curvature.
    """
    if e.spectral:
        raise ValueError("decompose position-space fields")
    hat = fourier(e)
    exact_hat, coexact_hat, mean_hat = _split_spectral(hat)
    mean = fourier_inverse(mean_hat)
    if eps is None or eps.is_identity():
        return HodgeSplit(fourier_inverse(exact_hat),
                          fourier_inverse(coexact_hat), mean)

    c = 0.5 * (eps.report.min_rayleigh + eps.report.max_rayleigh)

    def operator(x_hat):  # P eps x / c; 2 transforms
        eps_x = eps.apply(fourier_inverse(x_hat))
        return _exact_projection(fourier(eps_x)) * (1.0 / c)

    scale = max(norm(e), 1e-300)
    a_hat = exact_hat
    r = operator(coexact_hat)  # P eps (E - mean - A) / c at A = P E
    rr = l2_inner(r, r).real
    history = [math.sqrt(rr) / scale]
    p = r
    it = 0
    while not history[-1] <= tol and it < max_iter:
        it += 1
        q = operator(p)
        curvature = l2_inner(q, p).real
        if not curvature > 0.0:  # also catches a NaN
            raise RuntimeError(
                f"weighted decomposition did not converge (curvature "
                f"{curvature:.3e} after {it} iterations; last updates "
                f"{_last_three(history)})")
        alpha = rr / curvature
        a_hat = a_hat + alpha * p
        r = r - alpha * q
        rr, rr_old = l2_inner(r, r).real, rr
        history.append(math.sqrt(rr) / scale)
        p = r + (rr / rr_old) * p
    if not history[-1] <= tol:  # also catches a NaN update
        raise RuntimeError(
            f"weighted decomposition did not converge (update "
            f"{history[-1]:.3e} > tol {tol:.1e} after {it} iterations; "
            f"last updates {_last_three(history)})")
    a = fourier_inverse(a_hat)
    return HodgeSplit(a, e - mean - a, mean, it, history[-1], tuple(history))


def _last_three(history: list) -> str:
    return ", ".join(f"{u:.3e}" for u in history[-3:])


def _check_zero_mean(hat: FormField, r2: np.ndarray, tol: float):
    """Reject a spectrum whose harmonic modes (r2 = |xi|^2 = 0) carry more
    than tol of its largest coefficient."""
    mean_mass = float(np.abs(hat.data[..., r2 == 0.0]).max())
    if mean_mass > tol * max(float(np.abs(hat.data).max()), 1e-300):
        raise ValueError(f"input has a harmonic component ({mean_mass:.3e}); "
                         "remove the mean mode first: zero-mean data needed")


def potential_for_exact(e_exact: FormField, tol: float = 1e-8) -> FormField:
    """Potential with d(potential) = E for a closed zero-mean E.

    Two transforms: E forward and the potential back, in the buffer of
    its spectrum; the closedness check ||d E|| = ||R F(E)|| is taken on
    the spectrum (Parseval).
    """
    if e_exact.rank < 1:
        raise ValueError("rank-0 fields have no potential")
    hat = fourier(e_exact)
    r2 = hat.grid.freq_radius_sq()
    _check_zero_mean(hat, r2, tol)
    if e_exact.rank < e_exact.grid.dim:
        closed_res = norm(apply_R(hat))
        if closed_res > tol * max(norm(e_exact), 1e-300):
            raise ValueError(f"input is not closed: ||d E|| = {closed_res:.3e}")
    return _inverse_in_place(_scaled(apply_T(hat), -1j * _inv_symbol(r2)))


@dataclass(frozen=True)
class CoderivativeSolution:
    potential: FormField           # H with delta H = E
    residual: float                # ||delta H - E|| / ||E||
    h1_ratio: float                # ||H||_{H^1} / ||E||_{L^2}
    l2_ratio: float                # ||H|| / ||E||
    gradient_ratio: float          # |||xi| F(H)|| / ||E||
    outside_lemma_hypothesis: bool  # True when N < 3


def solve_coderivative(e: FormField, tol: float = 1e-8) -> CoderivativeSolution:
    """Solve delta H = E for co-closed zero-mean E, H = -i F^-1(R F E / r^2).

    Two transforms: E forward and H back, in the buffer of its spectrum.
    The co-closedness check ||delta E|| = ||T F(E)||, the residual
    ||i T F(H) - F(E)|| (in the buffer of T F(H)) and the norms of H are
    taken on the spectrum (Parseval).  Stated for N >= 3;
    the periodic box has no issue at N = 2, which is permitted but flagged
    as outside the hypothesis.
    """
    if e.rank >= e.grid.dim:
        raise ValueError("co-derivative solve needs rank < N")
    hat = fourier(e)
    r2 = hat.grid.freq_radius_sq()
    _check_zero_mean(hat, r2, tol)
    scale = max(norm(e), 1e-300)
    if e.rank > 0:
        coclosed_res = norm(apply_T(hat)) / scale
        if coclosed_res > tol:
            raise ValueError(f"input is not co-closed: relative "
                             f"||delta E|| = {coclosed_res:.3e}")
    h_hat = _scaled(apply_R(hat), -1j * _inv_symbol(r2))
    misfit = apply_T(h_hat).take_data()  # i T F(H) - F(E), in one buffer
    np.multiply(misfit, 1j, out=misfit)
    residual = norm(hat.with_data(np.subtract(misfit, hat.data, out=misfit))) / scale
    del misfit
    l2_sq = norm(h_hat) ** 2
    grad_sq = l2_inner(h_hat.scale_pointwise(r2), h_hat).real
    return CoderivativeSolution(_inverse_in_place(h_hat), residual,
                                math.sqrt(l2_sq + grad_sq) / scale,
                                math.sqrt(l2_sq) / scale,
                                math.sqrt(grad_sq) / scale, e.grid.dim < 3)


def split_orthogonality(split: HodgeSplit) -> float:
    """|<exact, coexact>| normalized by the squared input size."""
    total = split.resum()
    scale = max(norm(total) ** 2, 1e-300)
    return abs(l2_inner(split.exact_part, split.coexact_part)) / scale
