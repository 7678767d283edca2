"""Two constructive ways to stand far from a zero set inside the unit ball.

The pair method maximizes |P(x)P(y)| over the sphere of the doubled space
and keeps the smaller-norm component: that point is at least 1/(8 deg P)
from the zero set.  The multiplier method maximizes |P(x) M(|x|)| over the
ball, where M is the even analytic multiplier of matching degree parameter;
a best-of-pool maximizer is at least 1/deg P away.  The multiplier never
vanishes inside the ball, so it adds no zeros to dodge.  Its maximizers come
from a short seeded ascent in the ball whose best rows are polished by the
lockstep Newton steps of ``sphereopt``, with the exact Hessian of
log|P(x) M(|x|)|.

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
    _ASCENT_ITERS,
    _STEP_CAP,
    _batch_ascent,
    _canonical_signs,
    _farthest,
    _log_objective,
    _near_max,
    _newton_polish,
    _newton_step,
    _sobol,
    _sphere_tangent,
    _zero_distance_search,
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    sphere_starts,
)
from .trigcircle import _root_clusters

__all__ = [
    "PairCertificate",
    "LiftedDiagnostics",
    "euclidean_zero_distance",
    "pair_point",
    "multiplier_point",
    "lifted_diagnostics",
    "product_with_itself",
]

# nothing calls this name; it is kept only because bench/tracing.py wraps it
minimize = None

# entries of the power table that one block of the one-dimensional grid builds
_GRID_BLOCK = 1 << 21


def _clip_to_ball(X):
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    return np.where(norms > 1.0, X / np.maximum(norms, 1e-300), X)


def euclidean_zero_distance(poly: MultiPoly, p, seed=0):
    """(distance, zero): Euclidean distance from p in the unit ball to Z(P) in R^d, and a zero at it.

    Exact per-factor for tagged affine products; in one variable, to the
    nearest real root cluster of ``trigcircle._root_clusters``.  Otherwise an
    upper-bound estimate over the zeros in the ball of radius 2, which holds
    every zero within distance 1 of p, so a result above 1 (or +inf) only
    says that Z(P) is farther than 1; every bound checked is at most 1.  The
    lockstep search of ``sphereopt`` runs on S^d through the lift z = 2y,
    |y|^2 + t^2 = 1, where |z - p|^2 = 4 - 4(t^2 + <y, p>) + |p|^2.  ``zero``
    is None exactly when no zero is found and the distance is +inf.
    """
    p = np.asarray(p, dtype=float)
    if poly.affine_factors is not None:
        best, form = min(((abs(float(f.normal @ p) - f.offset), f) for f in poly.affine_factors), key=lambda t: t[0])
        return best, p - (float(form.normal @ p) - form.offset) * form.normal

    if poly.dim == 1:
        coeffs = np.zeros(poly.degree + 1)
        coeffs[[e for (e,), _ in poly.terms]] = [c for _, c in poly.terms]
        centres, radii, _ = _root_clusters(coeffs[::-1])
        x = min(centres.real[np.abs(centres.imag) <= radii], key=lambda x: abs(x - p[0]), default=None)
        return (math.inf, None) if x is None else (float(abs(x - p[0])), np.array([float(x)]))

    d = poly.dim
    lifted = MultiPoly(d + 1, {e + (0,): c * 2.0 ** sum(e) for e, c in poly.terms})
    x = _zero_distance_search(lifted, np.append(p, 0.0), seed, np.diag(np.append(np.zeros(d), 2.0)))
    if x is None:
        return math.inf, None
    zero = 2.0 * x[:d]
    return float(np.linalg.norm(zero - p)), zero


def product_with_itself(poly: MultiPoly) -> MultiPoly:
    """R(x, y) = P(x) P(y) as a polynomial in 2d variables."""
    d = poly.dim
    if poly.affine_factors is not None:
        zeros = np.zeros(d)
        forms = []
        for f in poly.affine_factors:
            forms.append(AffineForm(np.concatenate([f.normal, zeros]), f.offset))
            forms.append(AffineForm(np.concatenate([zeros, f.normal]), f.offset))
        return MultiPoly.from_affine_product(forms)
    terms = {}
    for e1, c1 in poly.terms:
        for e2, c2 in poly.terms:
            key = e1 + e2
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return MultiPoly(2 * d, terms)


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

    Each near-maximizer (x, y) is split into its small half p and large half
    q.  Each distinct p is measured once (rows (p, q) and (p, -q) share it),
    and the p farthest from Z(P) is kept, with the q of its first row.  When
    P(-x) = +-P(x), p and -p are equally far from Z(P), and each p is first
    taken in its canonical sign, so that the pair is measured once; its q
    stays the large half of the same row.  The certificate records the
    angular gap of that pair on the doubled sphere, the Euclidean gap of p
    inside the ball, and the lift of the nearest zero for auditing the
    distance argument.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    R = product_with_itself(poly)
    res = maximize_abs_on_sphere(R, starts=starts, seed=seed)
    d = poly.dim

    # (small half, large half) of each row, the halves kept in row order on a tie
    halves = [sorted((w[:d], w[d:]), key=np.linalg.norm) for w in res.near_maximizers]
    smalls = _canonical_signs(poly, [small for small, _ in halves])
    (ball_dist, nearest), p = _farthest(smalls, lambda x: euclidean_zero_distance(poly, x, seed=seed))
    q = next(large for small, (_, large) in zip(smalls, halves) if small is p)
    sphere_dist, _ = angular_distance_to_zero_set(R, np.concatenate([p, q]), seed=seed)

    lift_t = None
    lift_point = None
    if nearest is not None:
        qq = float(q @ q)
        if qq > 1e-15:
            t_sq = (1.0 - float(nearest @ nearest)) / qq
            lift_t = math.sqrt(max(0.0, t_sq))
            lift_point = np.concatenate([nearest, lift_t * q])
    ball_bound = 1.0 / (8 * n)
    return PairCertificate(
        p=p,
        q=q,
        chosen=p,
        sphere_distance=sphere_dist,
        sphere_bound=math.pi / (4 * n),
        ball_distance=ball_dist,
        ball_bound=ball_bound,
        nearest_zero=nearest,
        lift_t=lift_t,
        lift_point=lift_point,
        lift_t_bound=(math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0) * n),
        passed=bool(ball_dist >= ball_bound - tol),
    )


def _multiplier_objective(poly: MultiPoly):
    """(value, grad) of log|P(x)| + log|M(|x|)| on row batches in the ball;
    ``grad(X, True)`` also returns the Hessians, from the same evaluation of P."""
    n = poly.degree
    poly_log, poly_grad = _log_objective(((poly, 1.0),))

    def value(X):
        return poly_log(X) + ball_multiplier_log(n, np.linalg.norm(X, axis=1))

    def grad(X, hessian=False):
        r = np.linalg.norm(X, axis=1)
        slope = ball_multiplier_log_slope(n, r) / np.maximum(r, 1e-12)
        if not hessian:
            return poly_grad(X) + slope[:, None] * X
        G, H = poly_grad(X, hessian=True)
        # log|M(r)| has Hessian l''(r) uu' + (l'(r)/r)(I - uu') with u = x/r,
        # and l''(0) I at the centre, where u is read as 0
        curv = ball_multiplier_log_curvature(n, r)
        tangential = np.where(r > 0.0, slope, curv)
        u = X / np.where(r > 0.0, r, 1.0)[:, None]
        H = H + tangential[:, None, None] * np.eye(X.shape[1])
        H += (curv - tangential)[:, None, None] * u[:, :, None] * u[:, None, :]
        return G + slope[:, None] * X, H

    return value, grad


def _ball_newton(X, G, H):
    """The polish step in the ball, per row.

    A row on |x| = 1 whose gradient points out of the ball takes the
    :func:`_newton_step` of the sphere.  Any other row takes Newton's step in
    R^d where its Hessian is negative definite and its gradient step
    elsewhere, capped at length ``_STEP_CAP``.  Returns the steps, their
    lengths before the cap and the norms of the gradients they follow (on
    the sphere, the tangent gradients).
    """
    rim = (np.linalg.norm(X, axis=1) >= 1.0 - 1e-12) & (np.sum(G * X, axis=1) > 0.0)
    w, V = np.linalg.eigh(H)
    newton = np.all(w < 0.0, axis=1)
    coef = np.einsum("nji,nj->ni", V, G) / np.where(newton[:, None], w, 1.0)
    S = np.where(newton[:, None], -np.einsum("nij,nj->ni", V, coef), G)
    length = np.linalg.norm(S, axis=1)
    S *= (_STEP_CAP / np.maximum(length, _STEP_CAP))[:, None]
    if np.any(rim):
        S[rim], length[rim] = _newton_step(X[rim], G[rim], H[rim])
    return S, length, np.linalg.norm(np.where(rim[:, None], _sphere_tangent(G, X), G), axis=1)


def _ball_starts(d, count, seed):
    dirs = sphere_starts(d, count, seed)
    u = _sobol(1, count, seed + 17)[:, 0]
    interior = dirs * (u ** (1.0 / d))[:, None]
    return np.vstack([interior, dirs * 0.999])


def _multiplier_pool(poly, seed, starts):
    """The near-maximal pool of |P(x) M(|x|)| over the ball, from :func:`_near_max`.

    The candidates are the best ``max(8, min(24, starts))`` rows of
    ``_ASCENT_ITERS`` iterations of the seeded ascent in the ball (in one
    dimension, the interior local maxima of a dense grid), polished in one
    batch by :func:`_newton_polish` with the step of :func:`_ball_newton`,
    and in one dimension the two ends of [-1, 1].
    """
    value, grad = _multiplier_objective(poly)
    if poly.dim == 1:
        grid = np.linspace(-1.0, 1.0, 4096 * poly.degree + 1)[:, None]
        # blocks of rows whose power tables hold about _GRID_BLOCK entries each
        rows = max(1, _GRID_BLOCK // (poly.degree + 1))
        vals = np.concatenate([value(grid[i : i + rows]) for i in range(0, len(grid), rows)])
        interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
        X, ends = grid[interior], np.array([[-1.0], [1.0]])
    else:
        X = _ball_starts(poly.dim, starts, seed)
        X, f = _batch_ascent(value, grad, X, lambda G, X: G, _clip_to_ball, _ASCENT_ITERS, 0.25, 25)
        X, ends = X[np.argsort(-f)[: max(8, min(24, starts))]], np.empty((0, poly.dim))
    return _near_max(value, np.vstack([ends, _newton_polish(value, grad, X, _ball_newton, _clip_to_ball)]))[1]


def multiplier_point(poly: MultiPoly, seed=0, starts=64):
    """Point of B^d maximizing |P(x) M(|x|)|, tie-broken by zero-set distance.

    Returns (point, distance).  The candidates are Newton-polished maxima of
    the multiplier objective, and the distance is measured from the returned
    point itself.  Each distinct point of the near-maximal pool of
    :func:`_multiplier_pool` is measured once, and the one farthest from Z(P)
    is returned, matching the existential form of the guarantee.  M is even,
    so when P(-x) = +-P(x), x and -x tie, and each candidate is first taken
    in its canonical sign (largest-modulus coordinate positive), so that the
    pair is measured once.
    """
    if poly.degree < 1:
        raise ValueError("degree must be at least 1")
    pool = _canonical_signs(poly, _multiplier_pool(poly, seed, starts))
    (dist, _), point = _farthest(pool, lambda c: euclidean_zero_distance(poly, c, seed=seed))
    return point, float(dist)


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
