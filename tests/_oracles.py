"""Independent oracles used to compute expected values for the tests.

Everything here deliberately avoids the code paths under test: zeros come
from dense grids and bisection instead of companion matrices, gradients from
finite differences, products from naive term-by-term loops, tails from
truncated infinite products with an analytic remainder estimate, and
distances to zero sets from serial SLSQP solves, one per seed.
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import zeta
from scipy.stats import qmc

from zerogap.sphereopt import sphere_starts

TWO_PI = 2.0 * math.pi


def naive_poly_eval(terms, point):
    """Plain nested-loop polynomial evaluation."""
    total = 0.0
    for exps, coeff in terms:
        v = coeff
        for x, e in zip(point, exps):
            for _ in range(e):
                v *= x
        total += v
    return total


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def grid_zeros(f, samples=200_001):
    """Zeros of a periodic function on [0, 2pi) located by sign changes."""
    ts = np.linspace(0.0, TWO_PI, samples)
    vs = f(ts)
    zeros = []
    for i in range(samples - 1):
        a, b = vs[i], vs[i + 1]
        if a == 0.0:
            zeros.append(ts[i])
        elif a * b < 0:
            zeros.append(brentq(f, ts[i], ts[i + 1], xtol=1e-14))
    return [z % TWO_PI for z in zeros]


def grid_abs_max(f, samples=200_001):
    """(max |f|, maximizers) on the circle by dense scan plus refinement."""
    ts = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    vs = np.abs(f(ts))
    step = TWO_PI / samples
    raw = []
    for i in range(samples):
        if vs[i] >= vs[(i - 1) % samples] and vs[i] >= vs[(i + 1) % samples]:
            res = minimize_scalar(
                lambda t: -abs(float(f(t))), bounds=(ts[i] - step, ts[i] + step),
                method="bounded", options={"xatol": 1e-14},
            )
            raw.append((float(res.x) % TWO_PI, -res.fun))
    M = max(v for _, v in raw)
    out = []
    for t, v in sorted(raw):
        if v < M * (1 - 1e-9):
            continue
        if not any(abs(t - u) < 1e-8 or abs(abs(t - u) - TWO_PI) < 1e-8 for u in out):
            out.append(t)
    return M, out


def circle_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def cheb_recurrence(k, x):
    """Three-term recurrence for T_k."""
    if k == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    t_prev = np.ones_like(np.asarray(x, dtype=float))
    t_cur = np.asarray(x, dtype=float).copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2 * np.asarray(x) * t_cur - t_prev
    return t_cur


def truncated_tail_product(n, x, terms=10_000):
    """Tail of the cos/sin product by direct truncation plus a zeta remainder.

    Raw truncation converges like 1/terms, far short of 1e-8; the remainder
    of sum log(1 - (x/r_i)^2) over the omitted roots is added through Hurwitz
    zeta values, which brings the estimate to near machine precision.
    """
    x = np.asarray(x, dtype=float)
    if n % 2 == 0:
        i = np.arange(n // 2 + 1, n // 2 + 1 + terms)
        roots = (2 * i - 1) * math.pi / 2
        i0 = n // 2 + 1 + terms
        t2 = (2 / math.pi) ** 2 * zeta(2.0, i0 - 0.5) / 4
        t4 = (2 / math.pi) ** 4 * zeta(4.0, i0 - 0.5) / 16
        t6 = (2 / math.pi) ** 6 * zeta(6.0, i0 - 0.5) / 64
    else:
        i = np.arange((n + 1) // 2, (n + 1) // 2 + terms)
        roots = i * math.pi
        i0 = (n + 1) // 2 + terms
        t2 = zeta(2.0, float(i0)) / math.pi**2
        t4 = zeta(4.0, float(i0)) / math.pi**4
        t6 = zeta(6.0, float(i0)) / math.pi**6
    facs = 1 - (x[..., None] / roots) ** 2
    sign = np.prod(np.sign(facs), axis=-1)
    logp = np.sum(np.log(np.abs(facs)), axis=-1)
    corr = -(x**2) * t2 - (x**4) * t4 / 2 - (x**6) * t6 / 3
    return sign * np.exp(logp + corr)


def slice_min_angle_bruteforce(a, b, p, samples=400_000, seed=0):
    """Min angular distance from p to {x : <a,x> = b} by sampling the slice."""
    a = np.asarray(a, dtype=float)
    a = a / np.linalg.norm(a)
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    d = len(a)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((samples, d))
    w -= np.outer(w @ a, a)
    norms = np.linalg.norm(w, axis=1)
    w = w[norms > 1e-8] / norms[norms > 1e-8, None]
    pts = b * a + math.sqrt(max(0.0, 1 - b * b)) * w
    dots = np.clip(pts @ p, -1.0, 1.0)
    return float(np.min(np.arccos(dots)))


def slsqp_ball_zero_distance(poly, p, seeds=64, seed=0):
    """(distance, zero): min |x - p| over zeros x of P with |x| <= 2, by one
    SLSQP solve from each of ``seeds`` interior and ``seeds`` unit-sphere
    starts; a solve whose end point has |P| > 1e-8 * scale is dropped."""
    p = np.asarray(p, dtype=float)
    d = poly.dim
    dirs = sphere_starts(d, seeds, seed + 11)
    radii = qmc.Sobol(d=1, scramble=True, seed=seed + 13).random_base2(max(1, math.ceil(math.log2(seeds))))
    starts = np.vstack([dirs * radii[:seeds] ** (1.0 / d), dirs])
    scale = max(float(np.max(np.abs(poly.eval(np.vstack([starts, np.zeros((1, d))]))))), 1e-300)
    cons = [
        {"type": "eq", "fun": lambda x: poly.eval(x) / scale, "jac": lambda x: poly.gradient(x) / scale},
        {"type": "ineq", "fun": lambda x: 4.0 - x @ x, "jac": lambda x: -2.0 * x},
    ]
    best, best_zero = math.inf, None
    for x0 in starts:
        res = minimize(
            lambda x: (x - p) @ (x - p),
            x0,
            jac=lambda x: 2.0 * (x - p),
            method="SLSQP",
            constraints=cons,
            options={"maxiter": 120, "ftol": 1e-14},
        )
        x = res.x / max(1.0, np.linalg.norm(res.x) / 2.0)
        if abs(poly.eval(x)) > 1e-8 * scale:
            continue
        dist = float(np.linalg.norm(x - p))
        if dist < best:
            best, best_zero = dist, x
    return best, best_zero


def slsqp_complex_zero_distance(poly, p, seeds=48, seed=0):
    """(distance, zero): min arccos |<p, z>| over zeros z of P on the sphere
    of C^d, by one SLSQP solve of max |<p, z>|^2 on Re P = Im P = 0, |z| = 1
    from each of ``seeds`` starts; a solve whose end point has
    |P| > 1e-8 * scale is dropped."""
    p = np.asarray(p, dtype=complex)
    p = p / np.linalg.norm(p)
    d = poly.dim

    def z_of(x):
        return x[:d] + 1j * x[d:]

    sample = sphere_starts(2 * d, 128, seed + 5)
    scale = max(float(np.max(np.abs(poly.eval(sample[:, :d] + 1j * sample[:, d:])))), 1e-300)

    def obj(x):
        return -abs(np.sum(z_of(x) * np.conj(p))) ** 2

    def obj_jac(x):
        w = np.conj(np.sum(z_of(x) * np.conj(p))) * np.conj(p)
        return -2.0 * np.concatenate([w.real, -w.imag])

    def jac(x, unit):
        g = unit * poly.holomorphic_gradient(z_of(x))
        return np.concatenate([g.real, -g.imag]) / scale

    cons = [
        {"type": "eq", "fun": lambda x: poly.eval(z_of(x)).real / scale, "jac": lambda x: jac(x, 1.0)},
        {"type": "eq", "fun": lambda x: poly.eval(z_of(x)).imag / scale, "jac": lambda x: jac(x, -1j)},
        {"type": "eq", "fun": lambda x: x @ x - 1.0, "jac": lambda x: 2.0 * x},
    ]
    best, best_zero = math.inf, None
    for x0 in sphere_starts(2 * d, seeds, seed + 7):
        res = minimize(obj, x0, jac=obj_jac, method="SLSQP", constraints=cons, options={"maxiter": 150, "ftol": 1e-14})
        z = z_of(res.x) / np.linalg.norm(res.x)
        if abs(poly.eval(z)) > 1e-8 * scale:
            continue
        dist = math.acos(min(1.0, abs(np.sum(p * np.conj(z)))))
        if dist < best:
            best, best_zero = dist, z
    return best, best_zero
