"""Chebyshev products and the even multiplier used for ball maximization.

The multiplier is assembled from the classical infinite products

    cos x = prod_i (1 - (2x/((2i-1)pi))^2),    sin x = x prod_i (1 - (x/(i pi))^2)

by dropping the leading factors; the finite analogue drops the same number
of leading factors from the product form of a scaled Chebyshev polynomial.
Closed forms (cos or sinc divided by the dropped factors) are used for the
infinite tails; within 1e-3 of a cancelled denominator root the 0/0 ratio is
evaluated by a local series to keep full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebMultiplier",
    "ConvergenceReport",
    "check_orders",
    "cheb_eval",
    "cheb_positive_zeros",
    "cheb_tail_product",
    "trig_tail_product",
    "ball_multiplier",
    "convergence_report",
]

_WINDOW = 1e-3


def cheb_eval(k, x):
    """First-kind Chebyshev value T_k(x), valid on all of R."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    X = np.atleast_1d(x)
    out = np.empty_like(X)
    inside = np.abs(X) <= 1.0
    out[inside] = np.cos(k * np.arccos(X[inside]))
    xo = X[~inside]
    sign = np.where(xo > 0, 1.0, (-1.0) ** k)
    out[~inside] = sign * np.cosh(k * np.arccosh(np.abs(xo)))
    return float(out[0]) if scalar else out


def cheb_positive_zeros(k):
    """Positive roots of T_k in increasing order, all inside (0, 1)."""
    if k < 2:
        raise ValueError("need k >= 2 for a positive zero")
    i = np.arange(1, k // 2 + 1)
    return np.cos(np.pi / (2 * k) + (k // 2 - i) * np.pi / k)


def check_orders(n, k):
    """Raise ValueError unless n >= 1, k > n and k - n is even."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if k <= n:
        raise ValueError(f"need k > n, got k={k}, n={n}")
    if (k - n) % 2 != 0:
        raise ValueError(f"k={k} and n={n} must have the same parity")


def cheb_tail_product(n, k, x):
    """Product of the Chebyshev factors above index floor(n/2), at x.

    This is the degree-(k-n) polynomial left of the scaled T_k(x/k) product
    after removing its floor(n/2) innermost factors (and the linear factor
    for odd degrees).
    """
    check_orders(n, k)
    t = cheb_positive_zeros(k)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    X = np.atleast_1d(x)
    roots = k * t[n // 2 :]
    facs = 1.0 - (X[:, None] / roots[None, :]) ** 2
    # multiply near-1 factors first to limit rounding growth
    order = np.argsort(np.abs(facs - 1.0), axis=1)
    facs = np.take_along_axis(facs, order, axis=1)
    out = np.prod(facs, axis=1)
    return float(out[0]) if scalar else out


def _sinc_series(u):
    u2 = u * u
    return 1 - u2 / 6 * (1 - u2 / 20 * (1 - u2 / 42 * (1 - u2 / 72 * (1 - u2 / 110))))


def trig_tail_product(n, x):
    """Tail of the cosine (n even) or sine (n odd) product from index floor(n/2)+1.

    Total function of x: removable 0/0 points are filled in by series, so the
    returned value is finite and smooth everywhere.  Even in x.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    X = np.abs(np.atleast_1d(x))

    if n % 2 == 0:
        cancelled = [(2 * i - 1) * math.pi / 2 for i in range(1, n // 2 + 1)]
        num = np.cos(X)
    else:
        cancelled = [i * math.pi for i in range(1, (n - 1) // 2 + 1)]
        small = X < _WINDOW
        num = np.where(small, _sinc_series(X), np.sin(X) / np.where(small, 1.0, X))

    den = np.ones_like(X)
    ratio = np.zeros_like(X)
    windowed = np.zeros(X.shape, dtype=bool)
    for x0 in cancelled:
        win = np.abs(X - x0) < _WINDOW
        rest = ~win
        den[rest] *= 1.0 - (X[rest] / x0) ** 2
        if np.any(win):
            u = X[win] - x0
            if n % 2 == 0:
                # cos x = -sin(x0) sin u;  1-(x/x0)^2 = -u(u+2x0)/x0^2
                ratio[win] = math.sin(x0) * x0 * x0 * _sinc_series(u) / (u + 2 * x0)
            else:
                # sin x = cos(x0) sin u and the numerator carries 1/x
                ratio[win] = -math.cos(x0) * x0 * x0 * _sinc_series(u) / (X[win] * (u + 2 * x0))
            windowed |= win
    out = np.where(windowed, ratio, num) / den
    return float(out[0]) if scalar else out


def ball_multiplier(n, x):
    """The even analytic multiplier: tail product evaluated at n*pi*x/2.

    Equal to 1 at x = 0, strictly nonzero for |x| < 1 + 1/n, first zero at
    exactly 1 + 1/n.
    """
    x = np.asarray(x, dtype=float)
    return trig_tail_product(n, n * math.pi * x / 2.0)


@dataclass(frozen=True)
class ChebMultiplier:
    """Descriptor of the degree-n multiplier's closed form.

    ``pole_locations`` lists, in multiplier coordinates, the points where the
    closed-form denominator vanishes (all cancelled by the numerator).
    """

    n: int
    parity: str
    pole_locations: tuple

    @classmethod
    def for_degree(cls, n):
        if n < 1:
            raise ValueError("n must be positive")
        if n % 2 == 0:
            poles = tuple((2 * i - 1) / n for i in range(1, n // 2 + 1))
            return cls(n, "even", poles)
        poles = tuple(2 * i / n for i in range(1, (n - 1) // 2 + 1))
        return cls(n, "odd", poles)

    def value(self, x):
        return ball_multiplier(self.n, x)


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between the finite products and their analytic limits."""

    n: int
    ks: tuple
    half_width: float
    scaled_cheb_errors: tuple  # sup |(-1)^floor(k/2) T_k(x/k) - cos or sin|
    tail_errors: tuple  # sup |finite tail - analytic tail|


def convergence_report(n, ks, half_width) -> ConvergenceReport:
    ks = tuple(int(k) for k in ks)
    for k in ks:
        check_orders(n, k)
    grid = np.linspace(-half_width, half_width, 2048)
    target = np.cos(grid) if n % 2 == 0 else np.sin(grid)
    e1, e2 = [], []
    for k in ks:
        sign = (-1.0) ** (k // 2)
        e1.append(float(np.max(np.abs(sign * cheb_eval(k, grid / k) - target))))
        e2.append(float(np.max(np.abs(cheb_tail_product(n, k, grid) - trig_tail_product(n, grid)))))
    return ConvergenceReport(n, ks, float(half_width), tuple(e1), tuple(e2))
