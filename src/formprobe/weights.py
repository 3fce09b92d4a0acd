"""Polynomially weighted Sobolev norms and the annulus splitting bound.

Two scales share one weight rho = (1 + r^2)^(1/2): the plain scale uses
rho^s for every derivative order, the stronger scale raises the exponent
by one per derivative.  Partial derivatives are spectral; the weight is
applied in position space.  The Sobolev norm takes a field in either space
(``FormField.spectral``): it transforms forward at most once, takes every
term whose weight exponent is 0 on the frequency grid by Parseval (the
transform is unitary), and inverts only the terms with a nonzero weight
exponent, one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FormField, derivative_orders, norm
from .spectral import (_inverse_in_place, derivative_symbol, fourier,
                       fourier_inverse)

DEFAULT_MAX_ORDER = 3

ROMAN = "roman"   # weight rho^s for all |alpha| <= m
BOLD = "bold"     # weight rho^(s+|alpha|)


def rho_power(grid, exponent: float) -> np.ndarray:
    """rho^exponent = (1 + |x|^2)^(exponent/2) on the grid."""
    return (1.0 + grid.radius_sq()) ** (exponent / 2.0)


@dataclass(frozen=True)
class NormSpec:
    """Order m, weight exponent s and scale selector for weighted norms."""

    order: int
    weight: float
    scale: str = ROMAN

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("derivative order must be >= 0")
        if self.scale not in (ROMAN, BOLD):
            raise ValueError(f"scale must be '{ROMAN}' or '{BOLD}'")

    def exponent(self, alpha_order: int) -> float:
        return self.weight + alpha_order if self.scale == BOLD else self.weight


def weighted_sobolev_norm(e: FormField, spec: NormSpec,
                          max_order: int = DEFAULT_MAX_ORDER) -> float:
    """sqrt of sum over |alpha| <= m of ||rho^w(alpha) d^alpha E||^2.

    ``e`` may live in position or frequency space.  A term with weight
    exponent 0 is ||symbol F(E)|| on the frequency grid (Parseval).  A
    weighted term needs d^alpha E in position space and costs one inverse
    transform, except the alpha = 0 term of a position-space field.  The
    forward transform of a position-space field is made at most once, and
    only when some derivative term needs it.  Each term is freed before the
    next one is built, so the norm holds at most one term beside F(E).
    """
    if spec.order > max_order:
        raise ValueError(
            f"derivative order m={spec.order} exceeds the supported band-limit "
            f"order {max_order}; raise max_order explicitly if the grid resolves it")
    hat = e if e.spectral else None
    total = 0.0
    for alpha in derivative_orders(e.grid.dim, spec.order):
        k = sum(alpha)
        exponent = spec.exponent(k)
        if k == 0 and not e.spectral:
            total += norm(e, exponent) ** 2
            continue
        if hat is None:
            hat = fourier(e)
        deriv = hat.with_data(derivative_symbol(hat.grid, alpha) * hat.data) \
            if k else hat
        if exponent != 0.0:  # a fresh product is inverted in its own buffer
            deriv = _inverse_in_place(deriv) if k else fourier_inverse(deriv)
        total += norm(deriv, exponent) ** 2
        del deriv
    return math.sqrt(total)


def annulus_split_bound(f: FormField, weight: float, tau: float,
                        theta: float) -> dict:
    """Numbers entering the annulus splitting estimate.

    The left side is ||F||^2 with weight exponent s+1-tau; the right side
    is c_theta ||F||_s^2 + (1+theta^2)^(-tau) ||F||_{s+1}^2 where c_theta
    bounds (1+r^2)^(1-tau) on the inner ball.
    """
    if tau <= 0:
        raise ValueError("annulus splitting requires tau > 0")
    c_theta = max((1.0 + theta ** 2) ** (1.0 - tau), 1.0)
    lhs = norm(f, weight + 1.0 - tau) ** 2
    rhs = c_theta * norm(f, weight) ** 2 \
        + (1.0 + theta ** 2) ** (-tau) * norm(f, weight + 1.0) ** 2
    return {"lhs": lhs, "rhs": rhs, "c_theta": c_theta,
            "theta": theta, "tau": tau, "holds": bool(lhs <= rhs * (1 + 1e-12))}
