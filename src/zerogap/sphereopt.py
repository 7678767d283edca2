"""Maximizing |P| on the unit sphere and measuring angular gaps to zero sets.

The search ascends log|P| with tangent-projected gradients from a seeded
low-discrepancy batch of starts, then polishes the leading candidates by
Newton steps in a tangent chart.  The same engine serves the sphere of C^d
(``complexproj``), and its ascent loop, given the identity projection and a
clip to the ball, serves the multiplier search (``ballfinder``), whose
candidates are the best ascent rows as they stand: only points on a sphere
are polished.  In two dimensions no search is needed: the restriction to the
circle is a trigonometric polynomial whose critical points are found exactly,
so results there are certified by root isolation rather than iteration.

Angular distances to zero sets are exact (closed form) for products of
affine forms and for any polynomial in two variables.  For other polynomials
in higher dimension they come from a seeded lockstep Newton search on
Z(P) intersected with the sphere: every seed is restored onto P = 0 and then
climbs <p, x> along the zero set by reduced Newton steps, all seeds in one
batch.  The result is the angle to a zero actually found, so it is an
upper-bound estimate of the distance, not a certified value.  The same
search, with an objective made of a linear term and a constant-Hessian term
and with the two real equations Re P = Im P = 0 for complex P, measures the
Euclidean distances of ``ballfinder`` (on a sphere that lifts a ball) and the
Hermitian distances of ``complexproj`` (on the sphere of C^d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  unused; bench/tracing.py wraps sphereopt.minimize
from scipy.special import ndtri
from scipy.stats import qmc

from . import trigcircle
from .polycore import AffineForm, CirclePlane, MultiPoly, restrict_to_circle

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

RNG_NAME = "sobol-gauss/1"

# log-objective value where the function vanishes, and the relative width of
# the near-maximal pool that the gap verifiers choose from
LOG_FLOOR = -1e30
NEAR_MAX_REL = 1e-9
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


def unit_vector(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def sphere_starts(dim, count, seed):
    """Deterministic low-discrepancy start points on S^(dim-1)."""
    eng = qmc.Sobol(d=dim, scramble=True, seed=int(seed))
    m = max(1, math.ceil(math.log2(count)))
    u = eng.random_base2(m)[:count]
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


def _log_abs_objective(poly: MultiPoly):
    """(values, gradients) of log|P| on row batches, factored when possible."""
    if poly.affine_factors is not None:
        A = np.array([f.normal for f in poly.affine_factors])
        b = np.array([f.offset for f in poly.affine_factors])

        def value(X):
            L = X @ A.T - b
            with np.errstate(divide="ignore"):
                return np.where(
                    np.all(L != 0.0, axis=1), np.sum(np.log(np.abs(L)), axis=1), LOG_FLOOR
                )

        def grad(X):
            L = X @ A.T - b
            L = np.where(L == 0.0, ZERO_STANDIN, L)
            return (1.0 / L) @ A

    else:

        def value(X):
            v = poly.eval(X)
            with np.errstate(divide="ignore"):
                return np.where(v != 0.0, np.log(np.abs(v)), LOG_FLOOR)

        def grad(X):
            v = poly.eval(X)
            v = np.where(v == 0.0, ZERO_STANDIN, v)
            return poly.gradient(X) / v[:, None]

    return value, grad


def _sphere_tangent(G, X):
    """Rows of G projected off the unit rows of X: onto the tangent spaces of
    the sphere for real rows, onto the Hermitian complements for complex rows."""
    return G - np.sum(G * np.conj(X), axis=1, keepdims=True) * X


def _normalize_rows(X):
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _batch_ascent(value, grad, X, tangent, retract, iters, step0, backtracks):
    """Projected gradient ascent with backtracking, all rows in lockstep.

    ``tangent(G, X)`` projects the gradients onto the manifold's tangent
    spaces and ``retract`` maps the trial rows back onto the manifold.  A
    trial is accepted when it raises f strictly.

    Before each trial a row leaves the backtracking once the first-order gain
    of that trial, step |G|^2, is at most ``GAIN_FLOOR`` max(1, |f|) (with
    |f| read as 1 at ``LOG_FLOOR``, so a row on the zero set still steps off
    it): the rounding of f would hide the gain, and the shorter trials after
    it gain less still.  Near a maximum this ends the row after a few trials
    instead of ``backtracks``.

    Only rows that improved in the previous iteration take trial steps.  A
    row that failed its backtracks, left them at the gain floor, or whose
    gradient vanished, kept its X and f; the batch keeps its shape and every
    row its position, and both the gain test and the trials read only the
    row's own X, f and G, so the row would fail or leave again in every later
    iteration.  Freezing such settled rows therefore changes no result, and
    the loop ends when no row moved, as it would when no row improved.
    """
    f = value(X)
    moving = np.ones(len(X), dtype=bool)
    for _ in range(iters):
        G = tangent(grad(X), X)
        gnorm = np.linalg.norm(G, axis=1)
        live = moving & (gnorm >= 1e-12)
        if not np.any(live):
            break
        step = step0 / (1.0 + gnorm)
        floor = GAIN_FLOOR * np.where(f == LOG_FLOOR, 1.0, np.maximum(1.0, np.abs(f)))
        moving = np.zeros_like(live)
        for _ in range(backtracks):
            live &= step * gnorm**2 > floor
            if not np.any(live):
                break
            trial = retract(X + step[:, None] * G)
            ft = value(trial)
            better = live & (ft > f)
            X = np.where(better[:, None], trial, X)
            f = np.where(better, ft, f)
            moving |= better
            live &= ~better
            step = step * 0.25
        if not np.any(moving):
            break
    return X, f


def _tangent_basis(x):
    d = len(x)
    k = int(np.argmax(np.abs(x)))
    cols = [x] + [np.eye(d)[:, j] for j in range(d) if j != k]
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q[:, 1:]


def _polish_on_sphere(value, grad, x, iters=20):
    """Newton in a tangent chart; Hessian by differencing the chart gradient.

    Degenerate directions (orbits of symmetries) make the Hessian singular;
    a least-squares solve moves only along the determined directions.  A step
    is halved up to ten times until the value drops by at most 1e-14
    relative; when no halving is accepted the polish stops at its current
    point.
    """
    x = unit_vector(x)
    h = 1e-6
    f0 = float(value(x[None, :])[0])
    for _ in range(iters):
        B = _tangent_basis(x)
        d1 = B.shape[1]

        def chart_grad(xi):
            y = x + B @ xi
            ny = np.linalg.norm(y)
            p = y / ny
            g = grad(p[None, :])[0]
            return B.T @ (g - (g @ p) * p) / ny

        g0 = chart_grad(np.zeros(d1))
        if np.linalg.norm(g0) < 1e-13:
            break
        H = np.empty((d1, d1))
        for j in range(d1):
            e = np.zeros(d1)
            e[j] = h
            H[:, j] = (chart_grad(e) - chart_grad(-e)) / (2 * h)
        H = (H + H.T) / 2
        s, *_ = np.linalg.lstsq(H, -g0, rcond=1e-10)
        norm_s = np.linalg.norm(s)
        if norm_s > 0.2:
            s *= 0.2 / norm_s
        t = 1.0
        for _ in range(10):
            x_new = unit_vector(x + B @ (t * s))
            f_new = float(value(x_new[None, :])[0])
            if f_new >= f0 - 1e-14 * (1.0 + abs(f0)):
                x, f0 = x_new, max(f_new, f0)
                break
            t *= 0.5
        else:
            break
        if norm_s < 1e-14:
            break
    return x


@dataclass(frozen=True)
class SphereMaxResult:
    point: np.ndarray
    value: float
    log_value: float
    all_near_max: tuple


def _dedupe_points(points, tol=1e-7):
    out = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in out):
            out.append(p)
    return out


def near_max_on_sphere(value, grad, dim, starts, seed):
    """Multi-start maximization of a log objective on S^(dim-1).

    Seeded starts ascend in lockstep, the best ``max(8, min(32, starts))``
    are polished by tangent Newton steps, and the (log value, point) pairs
    within relative ``NEAR_MAX_REL`` of the best polished value are returned
    in polish order.
    """
    X = sphere_starts(dim, starts, seed)
    X, f = _batch_ascent(value, grad, X, _sphere_tangent, _normalize_rows, 160, 0.5, 30)
    if np.max(f) <= LOG_FLOOR / 2:
        raise ValueError("the objective vanishes at every start on the unit sphere")
    order = np.argsort(-f)
    top = [X[i] for i in order[: max(8, min(32, starts))]]
    polished = [_polish_on_sphere(value, grad, p) for p in top]
    logs = [float(value(p[None, :])[0]) for p in polished]
    best = max(logs)
    return [(lv, p) for lv, p in zip(logs, polished) if lv >= best + math.log1p(-NEAR_MAX_REL)]


def maximize_abs_on_sphere(poly: MultiPoly, starts=64, seed=0) -> SphereMaxResult:
    """Global maximum of |P| over the unit sphere, deterministic per seed.

    In dimension two the answer comes from exact circle root isolation; in
    higher dimension from seeded multi-start ascent with Newton polish.
    """
    d = poly.dim
    if d < 2:
        raise ValueError("sphere maximization needs dimension >= 2")
    if d == 2:
        plane = CirclePlane(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        T = restrict_to_circle(poly, plane)
        if T.is_trivially_zero():
            raise ValueError("polynomial vanishes identically on the unit sphere")
        M, thetas = trigcircle.trig_max_points(T)
        if M == 0.0:
            raise ValueError("polynomial vanishes identically on the unit sphere")
        pts = [np.array([math.cos(t), math.sin(t)]) for t in thetas]
        return SphereMaxResult(pts[0], M, math.log(M), tuple(pts))

    value, grad = _log_abs_objective(poly)
    keep = near_max_on_sphere(value, grad, d, starts, seed)
    best = max(lv for lv, _ in keep)
    pts = _dedupe_points([p for _, p in sorted(keep, key=lambda t: (-t[0], tuple(t[1])))])
    return SphereMaxResult(pts[0], math.exp(best), best, tuple(pts))


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


def _zero_distance_d2(poly, p):
    plane = CirclePlane(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    T = restrict_to_circle(poly, plane)
    zeros = trigcircle.trig_zeros(T)
    if len(zeros) == 0:
        return math.inf, None
    theta_p = math.atan2(p[1], p[0])
    best = min(zeros, key=lambda z: trigcircle.circle_distance(theta_p, z.theta))
    return (
        trigcircle.circle_distance(theta_p, best.theta),
        np.array([math.cos(best.theta), math.sin(best.theta)]),
    )


def _real(Z):
    """Real coordinates of rows: the rows themselves, or their real parts then their imaginary parts."""
    return np.concatenate([Z.real, Z.imag], axis=-1) if np.iscomplexobj(Z) else Z


def _restore_to_zero_set(poly, grad, Y, steps):
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
    it.  Returns the rows and their values of P.
    """
    v = poly.eval(Y)
    damp = np.ones(len(Y))
    for _ in range(steps):
        G = grad(Y)
        W = _sphere_tangent(np.conj(G), Y)
        gn = np.linalg.norm(W, axis=1)
        nonzero = gn > 0.0
        w = W / np.where(nonzero, gn, 1.0)[:, None]
        curv = np.einsum("ni,nij,nj->n", w, poly._hessian(Y), w) - np.sum(G * Y, axis=1)
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


def _zero_set_step(G, H, X, c, Q):
    """Reduced Newton step that raises f(x) = <c, x> + x'Qx/2 on {|x| = 1, P = 0}, per row.

    ``X`` holds the real coordinates of the rows, ``G`` and ``H`` the
    gradients and Hessians of P there.  Complex P gives two equations,
    Re P = Re(-i P) = 0, with normals conj G and i conj G.  One QR of
    [x, normals, I] gives the least-squares multipliers of
    grad f = nu x + sum lam_i normal_i (by back substitution; a zero pivot
    gives a zero multiplier) and, in its last columns, a basis B of the
    tangent space of the zero set.  Where the reduced Hessian
    B'(Q - sum lam_i Hess F_i - nu I)B is negative definite the step is
    Newton's, elsewhere the tangent gradient B B' grad f; either is capped
    at length ``_STEP_CAP``.
    """
    n, D = X.shape
    units = np.array([1.0, -1j] if np.iscomplexobj(G) else [1.0])
    m = 1 + len(units)
    eye = np.broadcast_to(np.eye(D), (n, D, D))
    normals = np.stack([_real(np.conj(u * G)) for u in units], axis=2)
    U, R = np.linalg.qr(np.concatenate([X[:, :, None], normals, eye], axis=2))
    q = c + X @ Q
    b = np.einsum("nji,nj->ni", U[:, :, :m], q)
    mult = np.zeros((n, m))
    for i in reversed(range(m)):
        rest = b[:, i] - np.einsum("nj,nj->n", R[:, i, i + 1 : m], mult[:, i + 1 :])
        mult[:, i] = np.divide(rest, R[:, i, i], out=np.zeros(n), where=R[:, i, i] != 0.0)
    nu, mu = mult[:, 0], mult[:, 1:] @ units
    M = mu[:, None, None] * H
    if np.iscomplexobj(M):  # the Hessian of Re(mu P) in real coordinates, by Cauchy-Riemann
        M = np.block([[M.real, -M.imag], [-M.imag, -M.real]])
    W = Q - M - nu[:, None, None] * eye
    B = U[:, :, m:]
    Bt = np.swapaxes(B, 1, 2)
    r = np.einsum("nji,nj->ni", B, q)
    w, V = np.linalg.eigh(Bt @ W @ B)
    newton = np.all(w < 0.0, axis=1)
    w = np.where(newton[:, None], w, -1.0)
    coef = np.einsum("nji,nj->ni", V, r) / w
    s = np.where(newton[:, None], -np.einsum("nij,nj->ni", V, coef), r)
    S = np.einsum("nij,nj->ni", B, s)
    norm = np.linalg.norm(S, axis=1)
    return S * (_STEP_CAP / np.maximum(norm, _STEP_CAP))[:, None]


def _zero_distance_search(poly, c, seed, Q=None):
    """The zero of P on the unit sphere with the largest f found from seeded starts, or None.

    f(x) = <c, x> + x'Qx/2 in the real coordinates x of a row (Q = 0 by
    default).  Complex ``c`` searches the sphere of C^d, where <c, x> is
    Re<z, c>.  All ``_ZERO_SEARCH_SEEDS`` seeds step in lockstep for a fixed
    number of iterations.  A row off Z(P) takes ``_RESTORE_STEPS``
    restoration steps and keeps them when |P| drops.  A row on Z(P)
    (|P| <= ``_ON_ZERO_REL`` * scale) takes a reduced Newton step for f,
    restored onto Z(P), and keeps it when it stays on Z(P) and f does not
    drop; otherwise its next step is ten times shorter.  Rows whose step fell
    below ``_STEP_TOL`` or whose restoration stalled are frozen, and only the
    other rows are evaluated.  At the end every row takes ``_RESTORE_STEPS``
    more restoration steps, and the best of the rows with
    |P| <= 1e-8 * scale is returned.  The number of polynomial calls is
    fixed, whatever the number of seeds.
    """
    cplx = np.iscomplexobj(c)
    grad = poly.holomorphic_gradient if cplx else poly.gradient
    d = len(c)
    D = 2 * d if cplx else d
    c = _real(np.asarray(c))
    Q = np.zeros((D, D)) if Q is None else Q

    def native(X):
        return X[:, :d] + 1j * X[:, d:] if cplx else X

    def objective(Z):
        X = _real(Z)
        return X @ c + 0.5 * np.sum(X * (X @ Q), axis=1)

    Z = native(sphere_starts(D, _ZERO_SEARCH_SEEDS, seed + 1))
    scale = max(float(np.max(np.abs(poly.eval(native(sphere_starts(D, 256, seed + 3)))))), 1e-300)
    tol = _ON_ZERO_REL * scale

    v = poly.eval(Z)
    f = objective(Z)
    shrink = np.ones(len(Z))
    live = np.ones(len(Z), dtype=bool)
    for _ in range(_SEARCH_ITERS):
        idx = np.flatnonzero(live)
        Zi, vi = Z[idx], v[idx]
        on = np.abs(vi) <= tol
        S = native(_zero_set_step(grad(Zi), poly._hessian(Zi), _real(Zi), c, Q))
        S = np.where(on[:, None], shrink[idx, None] * S, 0.0)
        Y, vy = _restore_to_zero_set(poly, grad, _normalize_rows(Zi + S), _RESTORE_STEPS)
        fy = objective(Y)
        stepping = on & (np.linalg.norm(S, axis=1) > _STEP_TOL)
        ok = np.where(on, stepping & (np.abs(vy) <= tol) & (fy >= f[idx]), np.abs(vy) < np.abs(vi))
        # a row whose step became negligible has converged; an off-zero row
        # whose restoration did not lower |P| would retry the same trial
        live[idx] = ok | stepping
        moved = idx[ok]
        Z[moved], v[moved], f[moved] = Y[ok], vy[ok], fy[ok]
        shrink[idx] = np.where(ok, 1.0, 0.1 * shrink[idx])

    # a row may have climbed to the edge of |P| <= tol, which lies about
    # tol**(1/m) off a zero of multiplicity m: project every row back
    Z, v = _restore_to_zero_set(poly, grad, Z, _RESTORE_STEPS)
    f = objective(Z)
    found = np.abs(v) <= 1e-8 * scale
    if not np.any(found):
        return None
    return Z[int(np.argmax(np.where(found, f, -np.inf)))]


def angular_distance_to_zero_set(poly: MultiPoly, p, seed=0):
    """(distance, zero): angular distance from p to Z(P) on the sphere and a zero at it.

    Exact for tagged affine-form products and in dimension two.  Otherwise it
    is the angle from p to the nearest zero found by a seeded lockstep Newton
    search on Z(P) intersected with the sphere from ``_ZERO_SEARCH_SEEDS``
    seeds: an upper-bound estimate, not certified.  ``zero`` is None exactly
    when no zero is found on the sphere and the distance is +inf.
    """
    p = unit_vector(p)
    if poly.affine_factors is not None:
        best = math.inf
        best_form = None
        for f in poly.affine_factors:
            dist = slice_distance(f, p)
            if dist < best:
                best, best_form = dist, f
        return best, None if best_form is None else _nearest_slice_point(best_form, p)
    if poly.dim == 2:
        return _zero_distance_d2(poly, p)
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


@dataclass(frozen=True)
class SphereGapReport:
    degree: int
    maximizer: np.ndarray
    value: float
    distance: float
    bound: float
    passed: bool
    equality_circle: CirclePlane | None
    interlacing: bool | None

    def to_json(self):
        eq = None
        if self.equality_circle is not None:
            eq = {
                "circle": {
                    "u": self.equality_circle.u.tolist(),
                    "v": self.equality_circle.v.tolist(),
                },
                "interlacing": self.interlacing,
            }
        return {
            "degree": self.degree,
            "maximizer": self.maximizer.tolist(),
            "value": self.value,
            "distance": self.distance,
            "bound": self.bound,
            "passed": self.passed,
            "equality": eq,
        }


def verify_sphere_gap(poly: MultiPoly, seed=0, starts=64, tol=1e-6) -> SphereGapReport:
    """Check that a maximizer of |P| keeps angular distance >= pi/(2 deg P).

    Among near-equal maximizers the one with the largest zero-set distance is
    reported; the bound holds at every true maximizer, so preferring the
    farthest is sound.  When P(-x) = +-P(x), x and -x tie, and each candidate
    is taken in the sign that makes its largest-modulus coordinate positive;
    candidates that then coincide are measured once.
    When the measured distance sits at the bound within tolerance, the circle
    through the maximizer and its nearest zero is attached along with the
    interlacing diagnostic of the restriction.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be at least 1")
    res = maximize_abs_on_sphere(poly, starts=starts, seed=seed)
    pool = res.all_near_max
    if _sign_symmetric(poly):
        pool = _dedupe_points([-c if c[int(np.argmax(np.abs(c)))] < 0 else c for c in pool])
    scored = [(*angular_distance_to_zero_set(poly, cand, seed=seed), cand) for cand in pool]
    dist, zero, p = max(scored, key=lambda t: t[0])
    bound = math.pi / (2 * n)
    passed = dist >= bound - tol
    circle = None
    interlacing = None
    if zero is not None and abs(dist - bound) < tol:
        v = zero - (zero @ p) * p
        nv = np.linalg.norm(v)
        if nv > 1e-9:
            circle = CirclePlane(p, v / nv)
            T = restrict_to_circle(poly, circle)
            interlacing, _ = trigcircle.interlacing_check(T)
    return SphereGapReport(
        degree=n,
        maximizer=p,
        value=res.value,
        distance=dist,
        bound=bound,
        passed=passed,
        equality_circle=circle,
        interlacing=interlacing,
    )
