"""Maximizing |P| on the unit sphere and measuring angular gaps to zero sets.

One log objective, sum_k delta_k^2 log|P_k|, serves real, factored, complex
and weighted P.  Every search runs on a unit sphere.  It ascends the
objective with tangent-projected gradients from the best of the caller's
candidate rows for a few iterations, into the basins of the maxima, then
polishes the leading rows in one batch by Riemannian Newton steps (Absil,
Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008) from
the exact gradients and Hessians that the objective gives with one
evaluation of each P; Newton does the climbing.  This module alone carries a
point of C^d as 2d real coordinates, real parts then imaginary parts
(``_real``, ``_from_real``), so the same engine serves the sphere of C^d
(``complexproj``) and the sphere S^d that lifts the ball, whose rows
``ballfinder`` alone reads as points of the ball.  For expanded P in two
dimensions no search is needed: the restriction to the circle is a
trigonometric polynomial whose critical points are found exactly, so
results there are certified by root isolation rather than iteration; P
keeps that one restriction, and the restriction its zeros and maxima
(``_on_circle``).  A factored product keeps the search there, since its
expansion on the circle can lose every digit.  A row of an untagged P has
the same bits in any batch (``polycore._row_products``).

Angular distances to zero sets, all measured by
``angular_distance_to_zero_set``, are exact (closed form) for products of
affine forms and for any polynomial in two variables.  For other polynomials
in higher dimension they come from a seeded lockstep Newton search on
Z(P) intersected with the sphere: every seed is restored onto P = 0 and then
climbs <p, x> along the zero set by reduced Newton steps, all seeds in one
batch, until the row nearest p on the zero set has converged and no row is
still off it.  The search runs on P scaled by the power of two that puts
its largest coefficient modulus in [0.5, 1), an exact scaling that keeps
Z(P), so a distance is the same for every nonzero multiple of P.  The result
is the angle to a zero actually found, so it is an upper-bound estimate of
the distance, not a certified value.  The same
search, with an objective made of a linear term and a constant-Hessian term
and with the two real equations Re P = Im P = 0 for complex P, measures the
Euclidean distances of ``ballfinder`` (on a sphere that lifts a ball) and the
Hermitian distances of ``complexproj`` (on the sphere of C^d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trigcircle
from .polycore import AffineForm, CirclePlane, MultiPoly, _row_products, _term_jet, restrict_to_circle

__all__ = [
    "SphereMaxResult",
    "SphereGapReport",
    "unit_vector",
    "sphere_starts",
    "near_max_on_sphere",
    "maximize_abs_on_sphere",
    "slice_distance",
    "angular_distance_to_zero_set",
    "verify_sphere_gap",
]

# nothing calls this name; it is kept only because bench/tracing.py wraps it
minimize = None

RNG_NAME = "pcg64-gauss/1"

# log-objective value where the function vanishes, and the relative width of
# the near-maximal pool that the gap verifiers choose from
LOG_FLOOR = -1e30
NEAR_MAX_REL = 1e-9
# pool points within this distance of one kept before them are near-copies
_NEAR_COPY = 1e-7
# a trial of the ascent whose first-order gain step |G|^2 is at most this many
# units of rounding of max(1, |f|) cannot show as a strict increase of f
GAIN_FLOOR = 4.0 * np.finfo(float).eps
# stands in for an exact zero of P (or of a factor) in the gradient of log|P|:
# the gradient is then large enough that the ascent's step step0 g / (1 + |g|)
# is step0 long, and its squared norm stays finite
ZERO_STANDIN = 1e-100

# zero-distance search: lockstep iterations, restoration steps per iteration,
# the |P| / scale below which a row counts as on Z(P), and the step caps
_SEARCH_ITERS = 30
_RESTORE_STEPS = 3
_ON_ZERO_REL = 1e-12
_STEP_CAP = 0.2
_RESTORE_CAP = 0.5
_STEP_TOL = 1e-13
# seeds of the zero-distance search
_ZERO_SEARCH_SEEDS = 64
# the ascent of near_max_on_sphere starts from the best of _SCREEN times as
# many seeded points as it has starts: independent points clump and leave
# gaps, and 64 of them miss a basin of the maximum that 6% of uniform points
# reach (12 forms in R^6) for about 2% of seeds; the best 64 of 256 miss it
# for none of 1000
_SCREEN = 4
# ascent iterations before the Newton polish of near_max_on_sphere, and the
# polish's iterations: the ascent only reaches the basins, and Newton climbs
_ASCENT_ITERS = 6
_POLISH_ITERS = 20


def unit_vector(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def sphere_starts(dim, count, seed):
    """Deterministic start points on S^(dim-1), uniformly distributed: the generator
    ``RNG_NAME``, rows of standard normal deviates from ``np.random.default_rng(seed)``,
    each divided by its norm (Muller, Comm. ACM 2, 1959).  The first k of ``count``
    points are the k points of a call with k."""
    g = np.random.default_rng(seed).standard_normal((count, dim))
    return _normalize_rows(g)


def _real(Z):
    """Real coordinates of rows: the rows themselves, or their real parts then their imaginary parts."""
    return np.concatenate([Z.real, Z.imag], axis=-1) if np.iscomplexobj(Z) else Z


def _from_real(X, dim):
    """The inverse of :func:`_real` for points of dimension ``dim``: X when its rows are
    ``dim`` wide, otherwise the complex rows whose real then imaginary parts it holds."""
    if X.shape[-1] == dim:
        return X
    Z = np.empty(X.shape[:-1] + (dim,), dtype=complex)
    Z.real, Z.imag = X[..., :dim], X[..., dim:]
    return Z


def _cauchy_riemann(M):
    """The Hessians of Re F in the real coordinates of :func:`_real`, from the
    Hessians M of F: M itself for real F, the Cauchy-Riemann block for holomorphic F."""
    if not np.iscomplexobj(M):
        return M
    d = M.shape[-1]
    out = np.empty(M.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d], out[..., d:, d:] = M.real, -M.real
    out[..., :d, d:] = out[..., d:, :d] = -M.imag
    return out


def _log_objective(items):
    """(value, grad) of sum_k delta_k^2 log|P_k| over (P_k, delta_k) pairs, on row batches.

    Rows hold real coordinates (:func:`_real`): complex P is read on rows
    twice as wide as its dimension, where log|P| = Re log P.  A factored real
    product goes through its forms, never expanded, by the batch products
    X A' and (1/L) A: its distances are closed forms, so no factored row is
    compared across batches (on a 59,238-factor split, products per row took
    as long, and einsum 1.7 times as long).  Any other P takes one
    :func:`_term_jet` call per gradient, on 2^e P of :func:`_unit_scaled`:
    off Z(P), grad P / P and Hess P / P are those of P bit for bit on
    normal-range P, and subnormal P keeps its digits.  ``grad(X, True)``
    also returns the Euclidean Hessians.  The value is ``LOG_FLOOR`` where
    some P_k vanishes, and ``ZERO_STANDIN`` stands in for that zero of 2^e P
    (or of the form) in the gradient, so on an exact zero the ratios are
    2^e times those of P itself.  Each sum starts from the first item, and an
    item is multiplied by delta^2 only when delta^2 != 1; complex rows add
    +0.0 to the summed gradients and Hessians, which turns each -0.0 into
    +0.0.
    """

    def factor_rows(poly):  # (A, b), the rows (a_i, b_i) of a factored real product's forms, or None
        f = getattr(poly, "affine_factors", None)
        return f and (np.array([form.normal for form in f]), np.array([form.offset for form in f]))

    items = [(poly, delta * delta, factor_rows(poly)) for poly, delta in items]

    def value(X):
        total = dead = None
        with np.errstate(divide="ignore", invalid="ignore"):
            for poly, w, forms in items:
                if forms is None:
                    logs = np.log(np.abs(poly.eval(_from_real(X, poly.dim))))
                else:
                    logs = np.sum(np.log(np.abs(X @ forms[0].T - forms[1])), axis=1)
                hit = logs == -np.inf
                if w != 1.0:
                    logs = w * logs
                total, dead = (logs, hit) if total is None else (total + logs, dead | hit)
        return np.where(dead, LOG_FLOOR, total)

    def grad(X, hessian=False):
        G = H = None
        for poly, w, forms in items:
            if forms is not None:
                A, b = forms
                L = X @ A.T - b
                L = np.where(L == 0.0, ZERO_STANDIN, L)
                g = (1.0 / L) @ A
                # sum_i log|L_i| has Hessian -A' diag(1/L^2) A
                h = -(A.T * L[:, None, :] ** -2.0) @ A if hessian else None
            else:
                v, g, h = _term_jet(_unit_scaled(poly), _from_real(X, poly.dim), "vgh" if hessian else "vg")
                v = np.where(v == 0.0, ZERO_STANDIN, v)
                g = g / v[:, None]
                # log|P| = Re log P, and (log P)'' = Hess P / P - g g' with g = grad P / P
                if hessian:
                    h = _cauchy_riemann(h / v[:, None, None] - g[:, :, None] * g[:, None, :])
                g = _real(np.conj(g))
            if w != 1.0:
                g, h = w * g, w * h if hessian else None
            G, H = (g, h) if G is None else (G + g, H + h if hessian else None)
        if X.shape[1] != items[0][0].dim:
            # conj and the Cauchy-Riemann block make -0.0 of the zeros of complex P's parts
            G, H = G + 0.0, H + 0.0 if hessian else None
        return (G, H) if hessian else G

    return value, grad


def _sphere_tangent(G, X):
    """Rows of G projected off the unit rows of X: onto the tangent spaces of
    the sphere for real rows, onto the Hermitian complements for complex rows."""
    return G - np.sum(G * (np.conj(X) if np.iscomplexobj(X) else X), axis=1, keepdims=True) * X


def _norms(X):
    """The Euclidean norm of each row, as np.linalg.norm(X, axis=1) sums it:
    sqrt of the sum of Re(conj(x) x), which is x x for real rows."""
    return np.sqrt(np.add.reduce((np.conj(X) * X).real if np.iscomplexobj(X) else X * X, axis=1))


def _normalize_rows(X):
    return X / _norms(X)[:, None]


def _batch_ascent(value, grad, X):
    """Gradient ascent on the unit sphere with backtracking, all rows in lockstep.

    Each of ``_ASCENT_ITERS`` iterations steps along the tangent gradients G
    (:func:`_sphere_tangent`), by 0.5 / (1 + |G|) and then a quarter of the
    last trial up to 30 trials, and normalises each trial row.  A trial is
    accepted when it raises f strictly.

    Before each trial a row leaves the backtracking once the first-order gain
    of that trial, step |G|^2, is at most ``GAIN_FLOOR`` max(1, |f|) (with
    |f| read as 1 at ``LOG_FLOOR``, so a row on the zero set still steps off
    it): the rounding of f would hide the gain, and the shorter trials after
    it gain less still.  Near a maximum this ends the row after a few trials
    instead of 30.

    Only rows that improved in the previous iteration take trial steps.  A
    row that failed its backtracks, left them at the gain floor, or whose
    gradient vanished, kept its X and f; it stays in the batch, in place, as
    a factored P's batch products may round a row by its place, and both the
    gain test and the trials read only the row's own X, f and G, so the row
    would fail or leave again in every later iteration.  Freezing such rows
    therefore changes no result, and the loop ends when no row moved.
    """
    f = value(X)
    moving = np.ones(len(X), dtype=bool)
    for _ in range(_ASCENT_ITERS):
        G = _sphere_tangent(grad(X), X)
        gnorm = _norms(G)
        live = moving & (gnorm >= 1e-12)
        if not live.any():
            break
        step, gsq = 0.5 / (1.0 + gnorm), gnorm**2
        floor = GAIN_FLOOR * np.where(f == LOG_FLOOR, 1.0, np.maximum(1.0, np.abs(f)))
        moving = np.zeros_like(live)
        for _ in range(30):
            live &= step * gsq > floor
            if not live.any():
                break
            trial = _normalize_rows(X + step[:, None] * G)
            ft = value(trial)
            better = live & (ft > f)
            X = np.where(better[:, None], trial, X)
            f = np.where(better, ft, f)
            moving |= better
            live &= ~better
            step = step * 0.25
        if not moving.any():
            break
    return X, f


def _newton_polish(value, grad, X):
    """Riemannian Newton steps for a log objective on the unit sphere, all rows in lockstep.

    A row stops when its tangent gradient norm is below 1e-13; the others,
    the stepping rows, take the :func:`_newton_step` of the sphere from the
    objective's Euclidean gradient and Hessian, and each trial row is
    normalised.  A step is halved up to ten times until f drops by at most
    1e-14 (1 + |f|) below the best value of the row.  A stepping row also
    stops when no halving is accepted, or after a step below 1e-14.  The
    loop ends when no row steps.  The eigensolve and the products of
    :func:`_newton_step` work matrix by matrix and row by row, so a row's
    step has the same bits whichever other rows step with it.  Returns the
    unit rows.
    """
    X = _normalize_rows(X)
    top = value(X)
    live = np.ones(len(X), dtype=bool)
    for _ in range(_POLISH_ITERS):
        idx = np.flatnonzero(live)
        if len(idx) == 0:
            break
        G, H = grad(X[idx], hessian=True)
        stepping = _norms(_sphere_tangent(G, X[idx])) >= 1e-13
        if not stepping.any():
            break
        live[idx[~stepping]] = False
        idx = idx[stepping]
        S, length = _newton_step(X[idx], G[stepping], H[stepping])
        pending = np.ones(len(idx), dtype=bool)
        for t in 0.5 ** np.arange(10):
            if not pending.any():
                break
            rows = idx[pending]
            trial = _normalize_rows(X[rows] + t * S[pending])
            ft = value(trial)
            ok = ft >= top[rows] - 1e-14 * (1.0 + np.abs(top[rows]))
            X[rows[ok]], top[rows[ok]] = trial[ok], np.maximum(top[rows[ok]], ft[ok])
            pending[np.flatnonzero(pending)[ok]] = False
        live[idx] = ~pending & (length >= 1e-14)
    return X


@dataclass(frozen=True)
class SphereMaxResult:
    point: np.ndarray
    value: float
    log_value: float
    near_maximizers: tuple


def _dedupe_points(points):
    """The points in order, each unless it lies within ``_NEAR_COPY`` of one
    kept before it: in one pass, each kept point strikes the later points
    within ``_NEAR_COPY`` of it."""
    P = np.asarray(points)
    kept, left = [], np.arange(len(P))
    while len(left):
        kept.append(left[0])
        left = left[1:][~(_norms(P[left[1:]] - P[left[0]]) <= _NEAR_COPY)]
    return [points[i] for i in kept]


def _farthest(pool, score):
    """(score(p), p) for the first point p of ``pool`` whose ``score(p)[0]`` is largest.

    Near-copies (within 1e-7, in pool order) are dropped first, so each
    distinct candidate is measured once.  Every gap bound holds at every true
    maximizer, so keeping the best of the near-maximal pool is sound.
    """
    best = None
    for p in _dedupe_points(pool):
        s = score(p)
        if best is None or s[0] > best[0][0]:
            best = (s, p)
    return best


def _near_max(value, X):
    """(best log value, pool) of the polished rows X: the rows within relative
    ``NEAR_MAX_REL`` of the best value, ordered by decreasing value and then
    by coordinates, each unless it lies within 1e-7 of one kept before it.
    One stable ``np.lexsort`` orders them, as a stable sort on (-value,
    coordinates as a tuple) does, with -0.0 and 0.0 equal.  Raises
    ValueError when the objective vanishes at every row."""
    logs = value(X)
    best = np.max(logs)
    if best <= LOG_FLOOR / 2:
        raise ValueError("the objective vanishes at every candidate")
    near = np.flatnonzero(logs >= best + math.log1p(-NEAR_MAX_REL))
    order = near[np.lexsort(np.vstack([X[near, ::-1].T, -logs[near]]))]
    return float(best), _dedupe_points(X[order])


def near_max_on_sphere(value, grad, X, starts):
    """Multi-start maximization of a log objective on the unit sphere: (best log value, pool).

    The ``starts`` best of the candidate rows X take ``_ASCENT_ITERS`` (6)
    iterations of the lockstep ascent, into the basins of the maxima, the
    best ``max(8, min(32, starts))`` rows are polished in one batch by
    :func:`_newton_polish`, which climbs the rest of the way, and
    :func:`_near_max` keeps the near-maximal pool.  The screen reads X in
    blocks of ``starts`` rows, the last up to 2 ``starts`` - 1, so it holds
    under 2 ``starts`` rows' values at once, however many candidates there
    are.  An objective constant on orbits (the phase of C^d) hands over
    Hessians without the orbit direction (``complexproj``).
    """
    blocks = np.split(X, range(starts, len(X) - starts + 1, starts))
    X = X[np.argsort(-np.concatenate([value(B) for B in blocks]), kind="stable")[:starts]]
    X, f = _batch_ascent(value, grad, X)
    return _near_max(value, _newton_polish(value, grad, X[np.argsort(-f)[: max(8, min(32, starts))]]))


def maximize_abs_on_sphere(poly: MultiPoly, starts=64, seed=0) -> SphereMaxResult:
    """Global maximum of |P| over the unit sphere, deterministic per seed.

    For expanded P in dimension two the answer comes from exact circle root
    isolation; otherwise from seeded multi-start ascent with Newton polish.
    ValueError when max |P| exceeds the largest double, and when P vanishes
    on the sphere: in dimension two exactly, otherwise up to rounding (an
    expanded P whose best |P| is within the rounding bound of P there).
    """
    d = poly.dim
    if d < 2:
        raise ValueError("sphere maximization needs dimension >= 2")
    T = _on_circle(poly)
    if T is not None:
        M, thetas = (0.0, ()) if T.is_trivially_zero() else trigcircle.trig_max_points(T)
        if M == 0.0:
            raise ValueError("polynomial vanishes identically on the unit sphere")
        pts = [np.array([math.cos(t), math.sin(t)]) for t in thetas]
        return SphereMaxResult(pts[0], M, math.log(M), tuple(pts))
    best, pts = near_max_on_sphere(*_log_objective(((poly, 1.0),)), sphere_starts(d, _SCREEN * starts, seed), starts)
    if poly.affine_factors is None:
        # the best |P| against the rounding bound (deg P + #terms) eps sum |c_k| of P
        # on the sphere, both on 2^e P, where the bound cannot underflow
        U = _unit_scaled(poly)
        top = abs(float(U.eval(pts[0])))
        noise = (poly.degree + len(U.terms)) * np.finfo(float).eps * sum(abs(c) for _, c in U.terms)
        if top <= noise:
            raise ValueError(f"polynomial vanishes on the unit sphere up to rounding: |2^e P| {top:.3g} <= {noise:.3g}")
    try:
        return SphereMaxResult(pts[0], math.exp(best), best, tuple(pts))
    except OverflowError:
        raise ValueError(f"max |P| exceeds the largest double: log_value {best:.6g}") from None


def slice_distance(form: AffineForm, p) -> float:
    """Intrinsic spherical distance from p to {x on sphere : <a,x> = b}."""
    if abs(form.offset) > 1.0:
        return math.inf
    p = unit_vector(p)
    s = float(np.clip(form.normal @ p, -1.0, 1.0))
    return abs(math.asin(s) - math.asin(form.offset))


def _nearest_slice_point(form: AffineForm, p):
    a, b = form.normal, form.offset
    alpha = float(np.clip(a @ p, -1.0, 1.0))
    w = p - alpha * a
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        w = np.zeros_like(a)
        w[int(np.argmin(np.abs(a)))] = 1.0
        w -= (w @ a) * a
        nw = np.linalg.norm(w)
    return b * a + math.sqrt(max(0.0, 1.0 - b * b)) * w / nw


def _restore_to_zero_set(poly, Y, steps):
    """Damped Newton steps toward P = 0 along the projected conj grad P, renormalised.

    Each step solves u = P / P' = 0 on the complex line through the row in the
    direction w of conj grad P projected off the row (for real P and rows, the
    great circle along the tangent gradient), where ' is the derivative along
    that line and P' = |w|.  Newton's step for u is Newton's step for P
    divided by 1 - P P'' / P'^2, so it is Newton's near a simple zero and
    stays quadratic at a zero of P of any multiplicity, where Newton for P
    only halves the distance per step on a double zero.  The divisor's real
    part is clipped to [0.1, 1] and a step is at most ``_RESTORE_CAP`` long.
    A row keeps a step only if it lowers |P|, otherwise its next step is half
    as long, so rounding noise in P at the zero set cannot throw a row off
    it.  grad P and Hess P come from one :func:`_term_jet` per step, for
    real and complex P alike.  Returns the rows and their values of P.
    """
    v = poly.eval(Y)
    damp = np.ones(len(Y))
    for _ in range(steps):
        _, G, H = _term_jet(poly, Y, "gh")
        W = _sphere_tangent(np.conj(G), Y)
        gn = _norms(W)
        nonzero = gn > 0.0
        w = W / np.where(nonzero, gn, 1.0)[:, None]
        curv = np.einsum("ni,nij,nj->n", w, H, w) - np.sum(G * Y, axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            div = 1.0 - v * curv / gn**2
            # div - div.real is 0 for real P and i Im(div) for complex P
            tau = v / gn / (div - div.real + np.clip(div.real, 0.1, 1.0))
            size = np.abs(tau)
            tau = np.where(nonzero & np.isfinite(size), tau * np.minimum(1.0, _RESTORE_CAP / size), 0.0)
        trial = _normalize_rows(Y - (damp * tau)[:, None] * w)
        vt = poly.eval(trial)
        better = np.abs(vt) < np.abs(v)
        Y = np.where(better[:, None], trial, Y)
        v = np.where(better, vt, v)
        damp = np.where(better, 1.0, 0.5 * damp)
    return Y, v


def _newton_step(X, q, W):
    """Riemannian Newton step that raises f on {|x| = 1}, per row.

    ``X`` holds the real coordinates of the rows, ``q`` and ``W`` the
    gradients and Hessians of f there.  The step is solved in the ambient
    space: with nu = <x, q> / |x|^2 and P = I - x x' / |x|^2, it is Newton's
    for P(W - nu I)P s = -Pq, as a least-squares solve takes it, from one
    eigensolve.  The eigenvector along x (|<v, x>| > |x| / 2) is left out,
    and of the D - 1 tangent eigenvalues those within 1e-10 of the largest
    in modulus (symmetry orbits, such as the torus of a complex monomial's
    maximizers) count as zero.  Returns the steps, capped at length
    ``_STEP_CAP``, and their lengths before the cap.
    """
    D = X.shape[1]
    sq = np.add.reduce(X * X, axis=1)
    nu = np.add.reduce(X * q, axis=1) / sq
    P = np.eye(D) - X[:, :, None] * (X / sq[:, None])[:, None, :]
    w, V = np.linalg.eigh(P @ (W - nu[:, None, None] * np.eye(D)) @ P)
    along_x = np.abs(np.add.reduce(V * X[:, :, None], axis=1)) > 0.5 * np.sqrt(sq)[:, None]
    size = np.where(along_x, 0.0, np.abs(w))
    null = along_x | (size <= 1e-10 * size.max(axis=1, keepdims=True))
    coef = np.add.reduce(V * (q - nu[:, None] * X)[:, :, None], axis=1)
    coef = np.divide(coef, w, out=np.zeros_like(w), where=~null)
    return _capped(-np.add.reduce(V * coef[:, None, :], axis=2))


def _zero_set_step(X, q, W, G, H):
    """Reduced Newton step that raises f on {|x| = 1, P = 0}, per row, from
    P's gradients G and Hessians H.

    ``X`` holds the real coordinates of the rows, ``q`` and ``W`` the
    gradients and Hessians of f there.  Complex P gives two equations,
    Re P = Re(-i P) = 0, with normals conj G and i conj G.  One QR of
    [x, normals, I] gives the least-squares multipliers of
    grad f = nu x + sum lam_i normal_i (by back substitution; a zero pivot
    gives a zero multiplier) and, in its last columns, a basis B of the
    tangent space.  Where the reduced Hessian
    B'(W - sum lam_i Hess F_i - nu I)B is negative definite the step is
    Newton's, elsewhere the tangent gradient B B' q.  Returns the steps,
    capped at length ``_STEP_CAP``, and their lengths before the cap.
    """
    n, D = X.shape
    units = np.array([1.0, -1j] if np.iscomplexobj(G) else [1.0])
    m = 1 + len(units)
    eye = np.broadcast_to(np.eye(D), (n, D, D))
    normals = [_real(np.conj(u * G))[:, :, None] for u in units]
    U, R = np.linalg.qr(np.concatenate([X[:, :, None], *normals, eye], axis=2))
    b = np.einsum("nji,nj->ni", U[:, :, :m], q)
    mult = np.zeros((n, m))
    for i in reversed(range(m)):
        rest = b[:, i] - np.einsum("nj,nj->n", R[:, i, i + 1 : m], mult[:, i + 1 :])
        mult[:, i] = np.divide(rest, R[:, i, i], out=np.zeros(n), where=R[:, i, i] != 0.0)
    nu, mu = mult[:, 0], mult[:, 1:] @ units
    W = W - _cauchy_riemann(mu[:, None, None] * H)  # the Hessian of Re(mu P)
    B = U[:, :, m:]
    r = np.einsum("nji,nj->ni", B, q)
    w, V = np.linalg.eigh(np.swapaxes(B, 1, 2) @ (W - nu[:, None, None] * eye) @ B)
    newton = np.all(w < 0.0, axis=1)
    coef = np.einsum("nji,nj->ni", V, r) / np.where(newton[:, None], w, -1.0)
    s = np.where(newton[:, None], -np.einsum("nij,nj->ni", V, coef), r)
    return _capped(np.einsum("nij,nj->ni", B, s))


def _capped(S):
    """(S with each row capped at length ``_STEP_CAP``, the row lengths before the cap)."""
    norm = _norms(S)
    return S * (_STEP_CAP / np.maximum(norm, _STEP_CAP))[:, None], norm


def _unit_scaled(poly):
    """2^e P for the e that puts the largest coefficient modulus of P in
    [0.5, 1), or P itself when e = 0; built once per P and kept on it, as
    its term tables are.

    The scaling is exact (math.ldexp reaches 2^+-1074 with no overflowing
    factor) and leaves Z(P) as it is, so on normal-range input every step of
    the search is the unscaled one with P times 2^e, bit for bit, while huge
    P no longer overflows grad P and Hess P, and tiny P keeps its digits.
    """
    if poly._scaled is None:
        e = -math.frexp(max(abs(c) for _, c in poly.terms))[1]

        def scaled(c):
            return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) if isinstance(c, complex) else math.ldexp(c, e)

        poly._scaled = poly if e == 0 else type(poly)(poly.dim, [(x, scaled(c)) for x, c in poly.terms])
        poly._scaled._scaled = poly._scaled
    return poly._scaled


def _on_circle(poly):
    """T, P on the unit circle of R^2 as a trigonometric polynomial of the
    angle from e1, for expanded P in dimension two; None for any other P.
    P keeps T, as it keeps its term tables, and T keeps its zeros and maxima
    (``trigcircle.trig_zeros``, ``trigcircle.trig_max_points``); a factored
    product keeps the search, as its expansion on the circle can lose every
    digit."""
    if poly.dim != 2 or poly.affine_factors is not None:
        return None
    if poly._circle is None:
        poly._circle = restrict_to_circle(poly, CirclePlane(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    return poly._circle


def _zero_distance_search(poly, c, seed, Q=None):
    """The zero of P on the unit sphere with the largest f found from seeded starts, or None.

    f(x) = <c, x> + x'Qx/2 in the real coordinates x of a row (Q = 0 by
    default).  Complex ``c`` searches the sphere of C^d, where <c, x> is
    Re<z, c>.  The search runs on :func:`_unit_scaled` P, which has the zero
    set of P, so the zero found is the same for every nonzero multiple of P.
    All ``_ZERO_SEARCH_SEEDS`` seeds step in lockstep.  A row off Z(P) takes
    ``_RESTORE_STEPS`` restoration steps and keeps them when |P| drops.  A
    row on Z(P) (|P| <= ``_ON_ZERO_REL`` * scale) takes a reduced Newton step
    for f, from grad P and Hess P of one :func:`_term_jet` call, restored
    onto Z(P), and keeps it when it stays on Z(P) and f does not drop;
    otherwise its next step is ten times shorter.  A row on Z(P) freezes once
    its step falls below ``_STEP_TOL``, a row off it once its restoration
    stalls, and only the other rows are evaluated.  The loop ends once no
    live row is off Z(P) and the row with the largest f on Z(P) is frozen,
    or after ``_SEARCH_ITERS`` iterations, so the number of polynomial calls
    is at most a fixed count, whatever the number of seeds.  At the end
    every row takes ``_RESTORE_STEPS`` more restoration steps, and the best
    of the rows with |P| <= 1e-8 * scale is returned.
    """
    poly = _unit_scaled(poly)
    d = len(c)
    c = _real(np.asarray(c))
    D = len(c)
    Q = np.zeros((D, D)) if Q is None else Q

    def objective(Z):
        X = _real(Z)
        return _row_products(X, c) + 0.5 * np.sum(X * _row_products(X, Q), axis=1)

    Z = _from_real(sphere_starts(D, _ZERO_SEARCH_SEEDS, seed + 1), d)
    scale = max(float(np.max(np.abs(poly.eval(_from_real(sphere_starts(D, 256, seed + 3), d))))), 1e-300)
    tol = _ON_ZERO_REL * scale

    v = poly.eval(Z)
    f = objective(Z)
    shrink = np.ones(len(Z))
    live = np.ones(len(Z), dtype=bool)
    for _ in range(_SEARCH_ITERS):
        on = np.abs(v) <= tol
        # stop once the row with the largest f on Z(P) has converged and no
        # row is still being restored onto Z(P); with no row on Z(P), that
        # holds exactly when no row is live
        best = int(np.argmax(np.where(on, f, -np.inf)))
        if not (live[best] or (live & ~on).any()):
            break
        idx = np.flatnonzero(live)
        Zi, vi, on = Z[idx], v[idx], on[idx]
        Xi = _real(Zi)
        S = _from_real(_zero_set_step(Xi, c + _row_products(Xi, Q), Q, *_term_jet(poly, Zi, "gh")[1:])[0], d)
        S = np.where(on[:, None], shrink[idx, None] * S, 0.0)
        Y, vy = _restore_to_zero_set(poly, _normalize_rows(Zi + S), _RESTORE_STEPS)
        fy = objective(Y)
        stepping = on & (_norms(S) > _STEP_TOL)
        ok = np.where(on, stepping & (np.abs(vy) <= tol) & (fy >= f[idx]), np.abs(vy) < np.abs(vi))
        # a row whose step became negligible has converged; an off-zero row
        # whose restoration did not lower |P| would retry the same trial
        live[idx] = ok | stepping
        moved = idx[ok]
        Z[moved], v[moved], f[moved] = Y[ok], vy[ok], fy[ok]
        shrink[idx] = np.where(ok, 1.0, 0.1 * shrink[idx])

    # a row may have climbed to the edge of |P| <= tol, which lies about
    # tol**(1/m) off a zero of multiplicity m: project every row back
    Z, v = _restore_to_zero_set(poly, Z, _RESTORE_STEPS)
    f = objective(Z)
    found = np.abs(v) <= 1e-8 * scale
    if not found.any():
        return None
    return Z[int(np.argmax(np.where(found, f, -np.inf)))]


def angular_distance_to_zero_set(poly: MultiPoly, p, seed=0):
    """(distance, zero): angular distance from p to Z(P) on the sphere and a zero at it.

    Exact for tagged affine-form products, and for expanded P in dimension
    two, from the zeros of its restriction to the circle (:func:`_on_circle`),
    which that restriction keeps.  Otherwise it is the angle from p to the
    nearest zero found by a seeded lockstep Newton search on Z(P) intersected
    with the sphere from ``_ZERO_SEARCH_SEEDS`` seeds, which stops once its
    nearest zero has converged and no seed is left off Z(P): an upper-bound
    estimate, not certified.  The search runs on an exact power-of-two
    multiple of P, so the result is the same for every nonzero multiple of
    P.  ``zero`` is None exactly when no zero is found on the sphere and the
    distance is +inf.
    """
    p = unit_vector(p)
    if poly.affine_factors is not None:
        best, form = min(((slice_distance(f, p), f) for f in poly.affine_factors), key=lambda t: t[0])
        return best, None if best == math.inf else _nearest_slice_point(form, p)
    T = _on_circle(poly)
    if T is not None:
        zeros = trigcircle.trig_zeros(T)
        if not zeros:
            return math.inf, None
        theta = math.atan2(p[1], p[0])
        best = min(zeros, key=lambda z: trigcircle.circle_distance(theta, z.theta)).theta
        return trigcircle.circle_distance(theta, best), np.array([math.cos(best), math.sin(best)])
    x = _zero_distance_search(poly, p, seed)
    if x is None:
        return math.inf, None
    return math.acos(float(np.clip(p @ x, -1.0, 1.0))), x


def _sign_symmetric(poly: MultiPoly):
    """Whether P(-x) = +-P(x): every term degree has the parity of deg P, or,
    for a factored product, the forms <a, x> - b are, each up to sign, the
    forms <a, x> + b (forms through the origin, the two sides of a slab
    centred at the origin)."""
    if poly.affine_factors is None:
        return all((sum(e) - poly.degree) % 2 == 0 for e, _ in poly.terms)

    def up_to_sign(a, b):
        s = math.copysign(1.0, a[np.flatnonzero(a)[0]])
        return (*(s * a), s * b)

    forms = [(f.normal, f.offset) for f in poly.affine_factors]
    return sorted(up_to_sign(a, b) for a, b in forms) == sorted(up_to_sign(a, -b) for a, b in forms)


def _canonical_signs(poly: MultiPoly, pool):
    """The pool, each point x taken as the one of x and -x whose largest-modulus
    coordinate is positive when P(-x) = +-P(x), where the two tie; otherwise the
    pool as it is.  Moduli within relative 1e-9 of the largest count as tied,
    and the lowest index of them decides, so that x and a rounded copy of -x
    take the same sign."""
    if not _sign_symmetric(poly):
        return pool
    return [-x if x[np.argmax(np.abs(x) >= (1.0 - 1e-9) * np.max(np.abs(x)))] < 0 else x for x in pool]


@dataclass(frozen=True)
class EqualityCase:
    """The great circle through a maximizer and its nearest zero, attached when
    the gap meets the bound, with the interlacing diagnostic of P on it."""

    circle: CirclePlane
    interlacing: bool


@dataclass(frozen=True)
class SphereGapReport:
    degree: int
    maximizer: np.ndarray
    value: float
    distance: float
    bound: float
    passed: bool
    equality: EqualityCase | None


def verify_sphere_gap(poly: MultiPoly, seed=0, starts=64, tol=1e-6) -> SphereGapReport:
    """Check that a maximizer of |P| keeps angular distance >= pi/(2 deg P).

    Each distinct near-maximizer is measured once and the one farthest from
    Z(P) is reported (:func:`_farthest`); the bound holds at every true
    maximizer, so preferring the farthest is sound.  When P(-x) = +-P(x), x
    and -x tie, and each candidate is first taken in its canonical sign
    (largest-modulus coordinate positive), so that the pair is measured once.
    When the measured distance sits at the bound within tolerance, the circle
    through the maximizer and its nearest zero is attached along with the
    interlacing diagnostic of the restriction; in dimension two that is the
    restriction P keeps, with the zeros and maxima it keeps (:func:`_on_circle`).
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    res = maximize_abs_on_sphere(poly, starts=starts, seed=seed)
    pool = _canonical_signs(poly, res.near_maximizers)
    (dist, zero), p = _farthest(pool, lambda x: angular_distance_to_zero_set(poly, x, seed))
    bound = math.pi / (2 * n)
    passed = dist >= bound - tol
    equality = None
    if zero is not None and abs(dist - bound) < tol:
        v = zero - (zero @ p) * p
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            circle = CirclePlane(p, v / nv)
            # in d = 2 the circle is the one P keeps, and the arcs do not
            # depend on its start angle or orientation
            T = _on_circle(poly) or restrict_to_circle(poly, circle)
            equality = EqualityCase(circle, trigcircle.interlacing_check(T)[0])
    return SphereGapReport(
        degree=n,
        maximizer=p,
        value=res.value,
        distance=dist,
        bound=bound,
        passed=passed,
        equality=equality,
    )
