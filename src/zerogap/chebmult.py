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
    "ConvergenceReport",
    "check_orders",
    "cheb_eval",
    "cheb_positive_zeros",
    "cheb_tail_product",
    "trig_tail_product",
    "ball_multiplier",
    "ball_multiplier_log",
    "ball_multiplier_log_slope",
    "ball_multiplier_log_curvature",
    "convergence_report",
]

_WINDOW = 1e-3
# the log curvature's series window: outside it the two parts of size 1/e^2
# cancel to within 2 eps / e^2, inside it the series' first omitted term is
# below 3e-15
_CURVATURE_WINDOW = 0.1
# pi/2 as a 33-bit head plus a tail (fdlibm's pio2_1, pio2_1t): k * head is
# exact for k < 2^20, so u - k pi/2 is found to twice the working precision
_PIO2_HEAD, _PIO2_TAIL = 1.57079632673412561417e00, 6.07710050650619224932e-11


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


def _cancelled_halves(n):
    """The k of the cancelled zeros x0 = k pi / 2 of the degree-n tail: odd k for even n, even k for odd n."""
    return range(1 + n % 2, n, 2)


def _sinc_series(u):
    u2 = u * u
    return 1 - u2 / 6 * (1 - u2 / 20 * (1 - u2 / 42 * (1 - u2 / 72 * (1 - u2 / 110))))


def _tail_terms(n, X):
    """(top, factors) of the tail at X >= 0: the tail is top / prod(factors).

    One factor 1 - (X/x0)^2 per cancelled zero x0, in increasing x0, read as
    1 within ``_WINDOW`` of x0; there ``top`` holds the 0/0 ratio from its
    series in place of the cosine or sinc numerator.
    """
    if n % 2 == 0:
        num = np.cos(X)
    else:
        small = X < _WINDOW
        num = np.where(small, _sinc_series(X), np.sin(X) / np.where(small, 1.0, X))

    ratio = np.zeros_like(X)
    windowed = np.zeros(X.shape, dtype=bool)
    factors = []
    for x0 in (k * math.pi / 2 for k in _cancelled_halves(n)):
        win = np.abs(X - x0) < _WINDOW
        factors.append(np.where(win, 1.0, 1.0 - (X / x0) ** 2))
        if np.any(win):
            u = X[win] - x0
            if n % 2 == 0:
                # cos x = -sin(x0) sin u;  1-(x/x0)^2 = -u(u+2x0)/x0^2
                ratio[win] = math.sin(x0) * x0 * x0 * _sinc_series(u) / (u + 2 * x0)
            else:
                # sin x = cos(x0) sin u and the numerator carries 1/x
                ratio[win] = -math.cos(x0) * x0 * x0 * _sinc_series(u) / (X[win] * (u + 2 * x0))
            windowed |= win
    return np.where(windowed, ratio, num), factors


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
    top, factors = _tail_terms(n, X)
    den = np.ones_like(X)
    for factor in factors:
        den *= factor
    out = top / den
    return float(out[0]) if scalar else out


def _cot_series(u):
    """cot u - 1/u for small u, the log slope of :func:`_sinc_series`."""
    u2 = u * u
    return -u / 3 * (1 + u2 / 15 * (1 + 2 * u2 / 21 * (1 + u2 / 10 * (1 + 10 * u2 / 99))))


def _cot_series_slope(u):
    """1/u^2 - csc^2 u for small u, the derivative of :func:`_cot_series`."""
    u2 = u * u
    return -1 / 3 * (1 + u2 / 5 * (1 + 10 * u2 / 63 * (1 + 7 * u2 / 50 * (1 + 10 * u2 / 77))))


def ball_multiplier_log_slope(n, x):
    """d/dx log|ball_multiplier(n, x)| in closed form, odd in x.

    At u = n pi |x| / 2 the tail's log slope is -tan u (n even) or
    cot u - 1/u (n odd), plus -1/(u - x0) - 1/(u + x0) per cancelled x0.
    Within ``_WINDOW`` of x0, -tan u or cot u is cot e, e = u - x0, and the
    pair cot e - 1/e comes from its series, as in :func:`trig_tail_product`;
    so does cot u - 1/u near 0.  Outside, e is taken from x0 to twice the
    working precision (Cody and Waite's reduction), as tan u has its pole at
    the exact x0.
    """
    x = np.asarray(x, dtype=float)
    U = n * math.pi * np.abs(np.atleast_1d(x)) / 2.0
    small = (U < _WINDOW) & (n % 2 == 1)
    safe = np.where(small, 1.0, U)
    trig = np.where(small, 0.0, 1.0 / np.tan(safe) if n % 2 else -np.tan(U))
    slope = np.where(small, _cot_series(U), -1.0 / safe) if n % 2 else np.zeros_like(U)
    for k in _cancelled_halves(n):
        e = (U - k * _PIO2_HEAD) - k * _PIO2_TAIL
        win = np.abs(e) < _WINDOW
        slope += np.where(win, _cot_series(e), -1.0 / np.where(win, 1.0, e)) - 1.0 / (U + k * math.pi / 2)
        trig[win] = 0.0
    out = np.sign(np.atleast_1d(x)) * (n * math.pi / 2.0) * (slope + trig)
    return float(out[0]) if x.ndim == 0 else out


def ball_multiplier_log_curvature(n, x):
    """d^2/dx^2 log|ball_multiplier(n, x)| in closed form, even in x.

    The derivative of :func:`ball_multiplier_log_slope`, part by part: at
    u = n pi |x| / 2, -sec^2 u (n even) or 1/u^2 - csc^2 u (n odd), plus
    1/(u - x0)^2 + 1/(u + x0)^2 per cancelled x0, times (n pi / 2)^2.  Within
    ``_CURVATURE_WINDOW`` of x0 (and of 0 for odd n) the pair of the trig
    part and the pole's 1/e^2, e = u - x0, is 1/e^2 - csc^2 e, taken from its
    series, the derivative of the series of cot e - 1/e that the slope uses.
    """
    x = np.asarray(x, dtype=float)
    U = n * math.pi * np.abs(np.atleast_1d(x)) / 2.0
    small = (U < _CURVATURE_WINDOW) & (n % 2 == 1)
    safe = np.where(small, 1.0, U)
    trig = np.where(small, 0.0, -1.0 / np.sin(safe) ** 2 if n % 2 else -1.0 / np.cos(U) ** 2)
    curv = np.where(small, _cot_series_slope(U), 1.0 / safe**2) if n % 2 else np.zeros_like(U)
    for k in _cancelled_halves(n):
        e = (U - k * _PIO2_HEAD) - k * _PIO2_TAIL
        win = np.abs(e) < _CURVATURE_WINDOW
        curv += np.where(win, _cot_series_slope(e), np.where(win, 1.0, e) ** -2.0) + (U + k * math.pi / 2) ** -2.0
        trig[win] = 0.0
    out = (n * math.pi / 2.0) ** 2 * (curv + trig)
    return float(out[0]) if x.ndim == 0 else out


def ball_multiplier(n, x):
    """The even analytic multiplier: tail product evaluated at n*pi*x/2.

    Equal to 1 at x = 0, strictly nonzero for |x| < 1 + 1/n, first zero at
    exactly 1 + 1/n.
    """
    x = np.asarray(x, dtype=float)
    return trig_tail_product(n, n * math.pi * x / 2.0)


def ball_multiplier_log(n, x):
    """log|ball_multiplier(n, x)|, finite at every degree.

    Where :func:`ball_multiplier` is a normal float its log is taken, so the
    value is that of the product bit for bit.  Elsewhere (from degree about
    900 the denominator leaves the float range) it is the sum of the logs of
    the tail's terms.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        m = np.abs(ball_multiplier(n, x))
        out = np.log(m)
    outside = ~((m >= np.finfo(float).tiny) & (m < math.inf))
    if np.any(outside):
        # n pi x / 2 rounds the same for x and -x, and the tail is even
        top, factors = _tail_terms(n, n * math.pi * np.abs(x[outside]) / 2.0)
        out[outside] = np.log(np.abs(top)) - sum(np.log(np.abs(f)) for f in factors)
    return float(out[0]) if scalar else out


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
