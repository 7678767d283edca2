"""Two constructive ways to stand far from a zero set inside the unit ball.

The pair method maximizes |P(x)P(y)| over the sphere of the doubled space
and keeps the smaller-norm component: that point is at least 1/(8 deg P)
from the zero set; P(x)P(y) is never built, P is read on each half of a
row and measured through its lift to S^d.  The multiplier method maximizes
|P(x) M(|x|)| over the ball, where M is the even analytic multiplier of
matching degree parameter; a best-of-pool maximizer is at least 1/deg P
away.  The multiplier never vanishes inside the ball, so it adds no zeros
to dodge.  Its maximizers come from the multistart of ``sphereopt`` on the
sphere S^d that lifts the ball, a row y standing for the point x = y[:d],
with the exact Hessian of log|P(x) M(|x|)|; the equator of S^d is the rim.
This module alone reads the pool on S^d as points of the ball.  Each method
returns a certificate with its own verdict against its bound
(``PairCertificate``, ``MultiplierCertificate``).

Distances to Z(P) are taken in R^d: in closed form for tagged products, by
root clusters in one variable, and otherwise by the lockstep Newton search
of ``sphereopt`` on a sphere that lifts the ball of radius 2, which holds
every zero within distance 1 of the unit ball.

Lifted-sphere diagnostics expose the geometry behind the multiplier: on the
sphere of radius 2k/(n pi) the finite multiplier's zero latitudes cut two
polar caps of spherical radius exactly 1 + 1/n and equatorial bands of width
exactly 2/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebmult import (
    ball_multiplier_log,
    ball_multiplier_log_curvature,
    ball_multiplier_log_slope,
    cheb_positive_zeros,
    check_orders,
)
from .polycore import AffineForm, MultiPoly
from .sphereopt import (
    _SCREEN,
    _canonical_signs,
    _farthest,
    _log_objective,
    _normalize_rows,
    _zero_distance_search,
    angular_distance_to_zero_set,
    near_max_on_sphere,
    sphere_starts,
)
from .trigcircle import _checked_zeros, _root_clusters

__all__ = [
    "PairCertificate",
    "MultiplierCertificate",
    "LiftedDiagnostics",
    "euclidean_zero_distance",
    "pair_point",
    "multiplier_point",
    "lifted_diagnostics",
]

# nothing calls this name; it is kept only because bench/tracing.py wraps it
minimize = None


def euclidean_zero_distance(poly: MultiPoly, p, seed=0):
    """(distance, zero): Euclidean distance from p in the unit ball to Z(P) in R^d, and a zero at it.

    Exact per-factor for tagged affine products; in one variable, to the
    nearest real root cluster of ``trigcircle._root_clusters``, whose centres
    must be zeros of P (``trigcircle._checked_zeros``; VerificationError
    otherwise).  Otherwise an upper-bound estimate over the zeros in the ball
    of radius 2, which holds every zero within distance 1 of p, so a result
    above 1 (or +inf) only says that Z(P) is farther than 1; every bound
    checked is at most 1.  The lockstep search of ``sphereopt`` runs on S^d
    through the lift z = 2y, |y|^2 + t^2 = 1, where
    |z - p|^2 = 4 - 4(t^2 + <y, p>) + |p|^2.  ``zero`` is None exactly when
    no zero is found and the distance is +inf.
    """
    p = np.asarray(p, dtype=float)
    if poly.affine_factors is not None:
        best, form = min(((abs(float(f.normal @ p) - f.offset), f) for f in poly.affine_factors), key=lambda t: t[0])
        return best, p - (float(form.normal @ p) - form.offset) * form.normal

    if poly.dim == 1:
        coeffs = np.zeros(poly.degree + 1)
        coeffs[[e for (e,), _ in poly.terms]] = [c for _, c in poly.terms]
        centres, radii, _ = _root_clusters(coeffs[::-1])
        real = _checked_zeros(coeffs[::-1], centres.real[np.abs(centres.imag) <= radii])
        x = min(real, key=lambda x: abs(x - p[0]), default=None)
        return (math.inf, None) if x is None else (float(abs(x - p[0])), np.array([float(x)]))

    x = _zero_distance_search(_lift(poly, 2.0), np.append(p, 0), seed, np.diag(np.append(np.zeros(len(p)), 2.0)))
    if x is None:
        return math.inf, None
    zero = 2.0 * x[:-1]
    return float(np.linalg.norm(zero - p)), zero


def _lift(poly: MultiPoly, r):
    """P(r x) in the variables (x, t) of R^(d+1); for a tagged product, the forms ((a, 0), b / r)."""
    if poly.affine_factors is None:
        return MultiPoly(poly.dim + 1, {e + (0,): c * r ** sum(e) for e, c in poly.terms})
    return MultiPoly.from_affine_product([AffineForm([*a.normal, 0], a.offset / r) for a in poly.affine_factors])


def _pair_objective(poly: MultiPoly):
    """(value, grad) of log|P(x)| + log|P(y)| on rows (x, y): P's log objective on the halves x_0, y_0, x_1, ..."""
    d = poly.dim
    poly_log, poly_grad = _log_objective(((poly, 1.0),))

    def value(W):
        return poly_log(W.reshape(-1, d)).reshape(-1, 2).sum(axis=1)

    def grad(W, hessian=False):
        g = poly_grad(W.reshape(-1, d), hessian)
        if not hessian:
            return g.reshape(W.shape)
        H = np.zeros((len(W), 2 * d, 2 * d))
        H[:, :d, :d], H[:, d:, d:] = g[1][::2], g[1][1::2]
        return g[0].reshape(W.shape), H

    return value, grad


@dataclass(frozen=True)
class PairCertificate:
    """Audit record of the pair construction for one polynomial."""

    p: np.ndarray
    q: np.ndarray
    chosen: np.ndarray
    sphere_distance: float
    sphere_bound: float  # pi/(4n)
    ball_distance: float
    ball_bound: float  # 1/(8n)
    nearest_zero: np.ndarray | None
    lift_t: float | None
    lift_point: np.ndarray | None
    lift_t_bound: float  # (sqrt(2)-1)/(2 sqrt(2) n)
    passed: bool


def pair_point(poly: MultiPoly, seed=0, starts=64, tol=1e-6) -> PairCertificate:
    """Maximize |P(x)P(y)| on the doubled sphere; keep the small half.

    Each near-maximizer (x, y) of :func:`_pair_objective` is split into its
    small half p and large half q.  Each distinct p is measured once, in its
    canonical sign when P(-x) = +-P(x) (rows (p, q) and (p, -q) share it),
    and the p farthest from Z(P) is kept with the q of its first row.  Where
    P(x) = 0, <(p, q), (x, y)> is at most <p, x> + |q| sqrt(1 - |x|^2), the
    cosine of the angle from (p, |q|) to (x, sqrt(1 - |x|^2)), a zero of the
    lift P(x) on S^d; so the gap of (p, q) to Z(P(x)P(y)) is the least of the
    lift's gaps at (p, |q|) and (q, |p|).  Also recorded: the Euclidean gap of
    p, and the lift (z, t q) of the nearest zero z, none when |z| > 1.
    """
    n, d = poly.degree, poly.dim
    if n < 1:
        raise ValueError("degree must be at least 1")
    pool = near_max_on_sphere(*_pair_objective(poly), sphere_starts(2 * d, _SCREEN * starts, seed), starts)[1]

    # (small half, large half) of each row, the halves kept in row order on a tie
    halves = [sorted((w[:d], w[d:]), key=np.linalg.norm) for w in pool]
    smalls = _canonical_signs(poly, [small for small, _ in halves])
    (ball_dist, nearest), p = _farthest(smalls, lambda x: euclidean_zero_distance(poly, x, seed=seed))
    q = next(large for small, (_, large) in zip(smalls, halves) if small is p)
    lift = _lift(poly, 1.0)
    sphere_dist = min(
        angular_distance_to_zero_set(lift, np.append(a, np.linalg.norm(b)), seed)[0] for a, b in ((p, q), (q, p))
    )

    lift_t = lift_point = None
    if nearest is not None and nearest @ nearest <= 1.0:
        lift_t = math.sqrt((1.0 - float(nearest @ nearest)) / float(q @ q))
        lift_point = np.concatenate([nearest, lift_t * q])
    return PairCertificate(
        p=p,
        q=q,
        chosen=p,
        sphere_distance=sphere_dist,
        sphere_bound=math.pi / (4 * n),
        ball_distance=ball_dist,
        ball_bound=1.0 / (8 * n),
        nearest_zero=nearest,
        lift_t=lift_t,
        lift_point=lift_point,
        lift_t_bound=(math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0) * n),
        passed=bool(ball_dist >= 1.0 / (8 * n) - tol),
    )


def _multiplier_objective(poly: MultiPoly):
    """(value, grad) of F(y) = log|P(x)| + log|M(|x|)| on row batches of S^d,
    each row y read as the point x = y[:d] of the ball that it lifts.  F does
    not depend on t = y[d]: its gradients and Hessians have a zero entry, row
    and column for t.  ``grad(Y, True)`` also returns the Hessians, from the
    same evaluation of P."""
    n, d = poly.degree, poly.dim
    poly_log, poly_grad = _log_objective(((poly, 1.0),))

    def value(Y):
        return poly_log(Y[:, :d]) + ball_multiplier_log(n, np.linalg.norm(Y[:, :d], axis=1))

    def grad(Y, hessian=False):
        X = Y[:, :d]
        r = np.linalg.norm(X, axis=1)
        slope = ball_multiplier_log_slope(n, r) / np.maximum(r, 1e-12)
        G = np.zeros_like(Y)
        if not hessian:
            G[:, :d] = poly_grad(X) + slope[:, None] * X
            return G
        GP, HP = poly_grad(X, hessian=True)
        G[:, :d] = GP + slope[:, None] * X
        # log|M(r)| has Hessian l''(r) uu' + (l'(r)/r)(I - uu') with u = x/r,
        # and l''(0) I at the centre, where u is read as 0
        curv = ball_multiplier_log_curvature(n, r)
        tangential = np.where(r > 0.0, slope, curv)
        u = X / np.where(r > 0.0, r, 1.0)[:, None]
        H = np.zeros((len(Y), d + 1, d + 1))
        H[:, :d, :d] = HP + tangential[:, None, None] * np.eye(d)
        H[:, :d, :d] += (curv - tangential)[:, None, None] * u[:, :, None] * u[:, None, :]
        return G, H

    return value, grad


def _multiplier_pool(poly, seed, starts):
    """The near-maximal pool of |P(x) M(|x|)| over the ball, from :func:`near_max_on_sphere`.

    The search runs on S^d, the sphere that lifts the ball: a row y stands
    for x = y[:d], and F of :func:`_multiplier_objective` is even in t = y[d].
    In every dimension :func:`near_max_on_sphere` screens 2 ``starts`` rows
    of :func:`sphere_starts` folded into the upper hemisphere (t -> |t|),
    and the same rows moved to the equator t = 0, which holds the rim of the
    ball, each distinct one once (in one variable the rim rows are just the
    two ends +-1 of the interval).  F's gradient has no t part, so a row on
    the equator stays on it, and a maximum on the rim is found exactly.
    Returns the points x of the pool, the rows on the equator first: a rim
    maximum where d/dr log|P M| vanishes is flat to fourth order in t, so
    rows that climb to it stop short (t about 3e-5, |x| about 1 - 5e-10), at
    the rim's value up to rounding, and only the equator rows sit on it
    exactly.  Near-copies in x are left for :func:`_farthest` to drop.
    """
    value, grad = _multiplier_objective(poly)
    d = poly.dim
    Y = sphere_starts(d + 1, 2 * starts, seed)
    Y[:, d] = np.abs(Y[:, d])
    rim = _normalize_rows(np.column_stack([Y[:, :d], np.zeros(len(Y))]))
    rim = rim[np.sort(np.unique(rim, axis=0, return_index=True)[1])]
    pool = near_max_on_sphere(value, grad, np.vstack([Y, rim]), starts)[1]
    return [y[:d] for y in sorted(pool, key=lambda y: y[d] != 0.0)]


@dataclass(frozen=True)
class MultiplierCertificate:
    """Audit record of the multiplier construction for one polynomial."""

    point: np.ndarray
    distance: float
    bound: float  # 1/n
    passed: bool


def multiplier_point(poly: MultiPoly, seed=0, starts=64, tol=1e-6) -> MultiplierCertificate:
    """Point of B^d maximizing |P(x) M(|x|)|, tie-broken by zero-set distance.

    The candidates are Newton-polished maxima of the multiplier objective,
    and the distance is measured from the returned point itself.  Each
    distinct point of the near-maximal pool of :func:`_multiplier_pool` is
    measured once, and the one farthest from Z(P) is returned, matching the
    existential form of the guarantee; it passes when its distance is at
    least 1/deg P - ``tol``.  M is even, so when P(-x) = +-P(x), x and -x
    tie, and each candidate is first taken in its canonical sign
    (largest-modulus coordinate positive), so that the pair is measured once.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    pool = _canonical_signs(poly, _multiplier_pool(poly, seed, starts))
    (dist, _), point = _farthest(pool, lambda c: euclidean_zero_distance(poly, c, seed=seed))
    return MultiplierCertificate(point=point, distance=float(dist), bound=1.0 / n, passed=bool(dist >= 1.0 / n - tol))


@dataclass(frozen=True)
class LiftedDiagnostics:
    """Finite-degree geometry of the multiplier on its lifted sphere."""

    n: int
    k: int
    radius: float  # 2k/(n pi)
    latitudes: tuple  # heights of the zero hyperplanes, ascending
    count: int  # k - n
    spacing: float  # spherical gap between consecutive zero circles
    cap_radius: float  # spherical radius of each polar cap


def lifted_diagnostics(n, k) -> LiftedDiagnostics:
    """Zero latitudes, band spacing, and cap radius of the degree-k lift."""
    check_orders(n, k)
    r_k = 2.0 * k / (n * math.pi)
    t = cheb_positive_zeros(k)[n // 2 :]
    heights = sorted(
        [r_k * math.sqrt(1.0 - ti * ti) for ti in t] + [-r_k * math.sqrt(1.0 - ti * ti) for ti in t]
    )
    lats = [math.asin(max(-1.0, min(1.0, z / r_k))) for z in heights]
    gaps = [r_k * (b - a) for a, b in zip(lats, lats[1:])]
    spacing = gaps[0] if gaps else math.nan
    t_min = float(t[0])
    cap_radius = r_k * math.asin(t_min)
    return LiftedDiagnostics(
        n=n,
        k=k,
        radius=r_k,
        latitudes=tuple(heights),
        count=len(heights),
        spacing=spacing,
        cap_radius=cap_radius,
    )
