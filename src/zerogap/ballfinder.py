"""Two constructive ways to stand far from a zero set inside the unit ball.

The pair method maximizes |P(x)P(y)| over the sphere of the doubled space
and keeps the smaller-norm component: that point is at least 1/(8 deg P)
from the zero set.  The multiplier method maximizes |P(x) M(|x|)| over the
ball, where M is the even analytic multiplier of matching degree parameter;
a best-of-pool maximizer is at least 1/deg P away.  The multiplier never
vanishes inside the ball, so it adds no zeros to dodge.

Distances to Z(P) are taken in R^d: in closed form for tagged products, by
root isolation in one variable, and otherwise by the lockstep Newton search
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
from scipy.optimize import minimize  # noqa: F401  unused; bench/tracing.py wraps ballfinder.minimize
from scipy.optimize import minimize_scalar
from scipy.stats import qmc

from .chebmult import ball_multiplier, ball_multiplier_log_slope, cheb_positive_zeros, check_orders
from .polycore import AffineForm, MultiPoly
from .sphereopt import (
    LOG_FLOOR,
    NEAR_MAX_REL,
    _batch_ascent,
    _log_abs_objective,
    _zero_distance_search,
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    sphere_starts,
)

__all__ = [
    "PairCertificate",
    "LiftedDiagnostics",
    "euclidean_zero_distance",
    "pair_point",
    "multiplier_point",
    "lifted_diagnostics",
    "product_with_itself",
]


def _clip_to_ball(X):
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    return np.where(norms > 1.0, X / np.maximum(norms, 1e-300), X)


def euclidean_zero_distance(poly: MultiPoly, p, seed=0):
    """(distance, zero): Euclidean distance from p in the unit ball to Z(P) in R^d, and a zero at it.

    Exact per-factor for tagged affine products and by root isolation in one
    variable.  Otherwise an upper-bound estimate over the zeros in the ball
    of radius 2, which holds every zero within distance 1 of p, so a result
    above 1 (or +inf) only says that Z(P) is farther than 1; every bound
    checked is at most 1.  The lockstep search of ``sphereopt`` runs on S^d
    through the lift z = 2y, |y|^2 + t^2 = 1, where |z - p|^2 =
    4 - 4(t^2 + <y, p>) + |p|^2.  ``zero`` is None exactly when no zero is
    found and the distance is +inf.
    """
    p = np.asarray(p, dtype=float)
    if poly.affine_factors is not None:
        best, best_form = math.inf, None
        for f in poly.affine_factors:
            dist = abs(float(f.normal @ p) - f.offset)
            if dist < best:
                best, best_form = dist, f
        return best, p - (float(best_form.normal @ p) - best_form.offset) * best_form.normal

    if poly.dim == 1:
        deg = poly.degree
        coeffs = np.zeros(deg + 1)
        for (e,), c in poly.terms:
            coeffs[e] = c
        roots = np.roots(coeffs[::-1]) if deg >= 1 else np.array([])
        best, best_zero = math.inf, None
        for r in roots:
            if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
                continue
            x = float(r.real)
            dist = float(abs(x - p[0]))
            if dist < best:
                best, best_zero = dist, np.array([x])
        return best, best_zero

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

    def to_json(self):
        return {
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "chosen": self.chosen.tolist(),
            "sphere_distance": self.sphere_distance,
            "sphere_bound": self.sphere_bound,
            "ball_distance": self.ball_distance,
            "ball_bound": self.ball_bound,
            "nearest_zero": None if self.nearest_zero is None else self.nearest_zero.tolist(),
            "lift_t": self.lift_t,
            "lift_point": None if self.lift_point is None else self.lift_point.tolist(),
            "lift_t_bound": self.lift_t_bound,
            "passed": self.passed,
        }


def pair_point(poly: MultiPoly, seed=0, starts=64, tol=1e-6) -> PairCertificate:
    """Maximize |P(x)P(y)| on the doubled sphere; keep the small half.

    The certificate records the angular gap of the pair on the doubled
    sphere, the Euclidean gap of the chosen point inside the ball, and the
    lift of the nearest zero for auditing the distance argument.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    R = product_with_itself(poly)
    res = maximize_abs_on_sphere(R, starts=starts, seed=seed)
    d = poly.dim

    def split(w):
        return w[:d], w[d:]

    best = None
    for w in res.all_near_max:
        p, q = split(w)
        if np.linalg.norm(p) > np.linalg.norm(q):
            p, q = q, p
            w = np.concatenate([p, q])
        ball_dist, nearest = euclidean_zero_distance(poly, p, seed=seed)
        if best is None or ball_dist > best[0]:
            best = (ball_dist, nearest, p, q, w)
    ball_dist, nearest, p, q, w = best
    sphere_dist, _ = angular_distance_to_zero_set(R, w, seed=seed)

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
    """(value, grad) of log|P(x)| + log|M(|x|)| on row batches in the ball."""
    n = poly.degree
    poly_log, poly_grad = _log_abs_objective(poly)

    def value(X):
        g = ball_multiplier(n, np.linalg.norm(X, axis=1))
        with np.errstate(divide="ignore"):
            return poly_log(X) + np.where(g != 0.0, np.log(np.abs(g)), LOG_FLOOR)

    def grad(X):
        r = np.linalg.norm(X, axis=1)
        return poly_grad(X) + (ball_multiplier_log_slope(n, r) / np.maximum(r, 1e-12))[:, None] * X

    return value, grad


def _ball_starts(d, count, seed):
    dirs = sphere_starts(d, count, seed)
    m = max(1, math.ceil(math.log2(count)))
    u = qmc.Sobol(d=1, scramble=True, seed=seed + 17).random_base2(m)[:count, 0]
    interior = dirs * (u ** (1.0 / d))[:, None]
    return np.vstack([interior, dirs * 0.999])


def _multiplier_point_1d(poly, value):
    """Dense scan plus bounded refinement; one dimension only."""
    n = max(poly.degree, 1)
    grid = np.linspace(-1.0, 1.0, 4096 * n + 1)
    vals = value(grid[:, None])
    cands = [np.array([-1.0]), np.array([1.0])]
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    for i in interior:
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(
            lambda t: -value(np.array([[t]]))[0],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        cands.append(np.array([float(res.x)]))
    return cands


def multiplier_point(poly: MultiPoly, seed=0, starts=64):
    """Point of B^d maximizing |P(x) M(|x|)|, tie-broken by zero-set distance.

    Returns (point, distance).  In two or more dimensions the candidates are
    the best rows of the seeded batched ascent in the ball as they stand,
    unpolished; the distance is measured from the returned point itself.
    Among candidates within relative 1e-9 of the best value, the one farthest
    from Z(P) is returned, matching the existential form of the guarantee.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    d = poly.dim
    value, grad = _multiplier_objective(poly)

    if d == 1:
        cands = _multiplier_point_1d(poly, value)
    else:
        X = _ball_starts(d, starts, seed)
        X, f = _batch_ascent(value, grad, X, lambda G, X: G, _clip_to_ball, 200, 0.25, 25)
        cands = [X[i] for i in np.argsort(-f)[: max(8, min(24, starts))]]

    logs = [float(value(np.atleast_2d(c))[0]) for c in cands]
    best = max(logs)
    if best <= LOG_FLOOR / 2:
        raise ValueError("objective vanished at every candidate")
    pool = [c for lv, c in zip(logs, cands) if lv >= best + math.log1p(-NEAR_MAX_REL)]
    scored = [(euclidean_zero_distance(poly, c, seed=seed)[0], c) for c in pool]
    dist, point = max(scored, key=lambda t: t[0])
    return np.atleast_1d(point), float(dist)


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

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "radius": self.radius,
            "latitudes": list(self.latitudes),
            "count": self.count,
            "spacing": self.spacing,
            "cap_radius": self.cap_radius,
        }


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
