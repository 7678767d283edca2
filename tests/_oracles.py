"""Independent oracles used to compute expected values for the tests.

Everything here deliberately avoids the code paths under test: zeros come
from dense grids and bisection instead of companion matrices, gradients from
finite differences, products from naive term-by-term loops, tails from
truncated infinite products with an analytic remainder estimate,
distances to zero sets from serial SLSQP solves, one per seed, or from the
nearest sign change on a few hundred random great circles or rays, maxima on
the sphere from a per-point Newton polish whose Hessian differences the
gradient, the polish's Newton step from a QR tangent basis rather than in
the ambient space, maxima in the ball from a long ascent in the ball itself,
clipped to it, with no polish, maxima on [-1, 1] from a dense grid read with numpy's
Horner sum, near-copies in a pool
from one distance per pair of points,
trigonometric coefficient maps from plain loops over the frequency k,
restrictions to a circle from one convolution chain per term, the
extremal flag of the circle certificate from the comparison polynomial Q
rather than from T's harmonics, start points from one Gaussian row at a time
divided by an exactly rounded norm, the Chebyshev tail from each point's
factors sorted by their distance from 1, the multistart's pool from one
screen call on every candidate, the pair construction from the expanded
product R(x, y) = P(x) P(y) in 2d variables, its maximum on the doubled sphere and its zero set there,
refutation grids from a scalar scan over every denominator N,
plank refutations from exact rational arithmetic on the floats as stored, the
maxima on the circle from every critical point rather than those that can be
maxima, merged polynomial terms from a dict filled one term at a time, and
JSON reports
from the hand-written dicts that the report classes and the CLI built key by key before one
serializer wrote every report from its dataclass fields.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import zeta
from scipy.stats import qmc

from zerogap import ballfinder, covering, sphereopt
from zerogap.chebmult import ball_multiplier, cheb_positive_zeros
from zerogap.polycore import AffineForm, MultiPoly, _whole
from zerogap.sphereopt import GAIN_FLOOR, LOG_FLOOR, sphere_starts, unit_vector
from zerogap.trigcircle import TrigPoly, interlacing_check, trig_zeros

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


def merge_terms_loop(dim, terms, zero):
    """polycore._merge_terms one term at a time: each exponent read by _whole
    and checked, each coefficient converted by type(zero) and checked, equal
    exponents summed in a dict in the order given, then sorted."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    merged = {}
    for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
        e = tuple(_whole(x, "e") for x in exps)
        if len(e) != dim:
            raise ValueError(f"exponent vector {e} does not match dim {dim}")
        if any(x < 0 for x in e):
            raise ValueError(f"negative exponent in {e}")
        coeff = type(zero)(coeff)
        if not cmath.isfinite(coeff):
            raise ValueError(f"coefficient of exponents {e} must be finite, got {coeff}")
        merged[e] = merged.get(e, zero) + coeff
    merged = {e: c for e, c in merged.items() if c != 0}
    if not merged:
        raise ValueError("the identically-zero polynomial is not accepted")
    return tuple(sorted(merged.items()))


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


def derivative_loop(T):
    """Coefficient pairs (k b_k, -k a_k) of T', one frequency at a time."""
    return [(k * b, -k * a) for k, (a, b) in enumerate(T.coeffs.tolist(), start=1)]


def shift_loop(T, s):
    """Coefficient pairs of T(theta + s), one frequency at a time."""
    pairs = []
    for k, (a, b) in enumerate(T.coeffs.tolist(), start=1):
        c, sn = math.cos(k * s), math.sin(k * s)
        pairs.append((a * c + b * sn, -a * sn + b * c))
    return pairs


def comparison_flag_loop(T, p0):
    """The extremal flag as the comparison polynomial gives it.

    T is first scaled by a power of two so that its largest coefficient lies
    in [0.5, 1).  Q(theta) = T(theta + p0) - T(p0) cos(n theta) takes its
    coefficients from shift_loop, and the flag is whether max |Q| < 1e-10
    max |T|, both maxima over 4096 equally spaced angles (or 4n, if more),
    each value summed one frequency at a time.
    """
    n = T.degree
    pairs = T.coeffs.tolist()
    e = -math.frexp(max([abs(T.a0)] + [abs(x) for pair in pairs for x in pair]))[1]
    a0 = math.ldexp(T.a0, e)
    scaled = [(math.ldexp(a, e), math.ldexp(b, e)) for a, b in pairs]
    shifted = shift_loop(type(T)(a0, scaled), p0)
    value = a0 + sum(a for a, _ in shifted)
    q = shifted[:-1] + [(shifted[-1][0] - value, shifted[-1][1])]
    samples = max(4096, 4 * n)
    theta = np.arange(samples) * (TWO_PI / samples)

    def grid_max(pairs):
        out = np.full(samples, a0)
        for k, (a, b) in enumerate(pairs, start=1):
            out = out + a * np.cos(k * theta) + b * np.sin(k * theta)
        return float(np.max(np.abs(out)))

    return n > 0 and grid_max(q) < 1e-10 * grid_max(scaled)


def companion_series_loop(T):
    """Series of z^n T(theta(z)) in powers z^0 .. z^2n: (a_k + i b_k) / 2 at
    n - k, a0 at n and (a_k - i b_k) / 2 at n + k, one frequency at a time."""
    n = T.degree
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = T.a0
    for k, (a, b) in enumerate(T.coeffs.tolist(), start=1):
        c[n + k] = (a - 1j * b) / 2.0
        c[n - k] = (a + 1j * b) / 2.0
    return c


def circle_series_loop(poly, plane):
    """Centered Fourier series (powers -n .. n) of poly on the circle, one
    convolution chain per expanded term (or per factor of a factored
    product), each term's series added in term order."""
    base = []
    for i in range(poly.dim):
        cp = (plane.u[i] - 1j * plane.v[i]) / 2.0
        base.append(np.array([np.conj(cp), 0.0, cp], dtype=complex))
    if poly.affine_factors is not None:
        acc = np.array([1.0 + 0j])
        for f in poly.affine_factors:
            fac = np.array([0.0 + 0j, -f.offset, 0.0 + 0j], dtype=complex)
            for i in range(poly.dim):
                if f.normal[i] != 0.0:
                    fac = fac + f.normal[i] * base[i]
            acc = np.convolve(acc, fac)
        return acc
    max_exp = np.max([e for e, _ in poly.terms], axis=0)
    powers = []
    for i in range(poly.dim):
        ps = [np.array([1.0 + 0j])]
        for _ in range(max_exp[i]):
            ps.append(np.convolve(ps[-1], base[i]))
        powers.append(ps)
    deg = poly.degree
    series = np.zeros(2 * deg + 1, dtype=complex)
    for e, c in poly.terms:
        mono = np.array([complex(c)])
        for i, ei in enumerate(e):
            if ei:
                mono = np.convolve(mono, powers[i][ei])
        k = (len(mono) - 1) // 2
        series[deg - k : deg + k + 1] += mono
    return series


def series_pairs_loop(series):
    """(a0, pairs) of the trigonometric polynomial whose centered series (powers
    -n .. n) is ``series``, one frequency at a time."""
    n = (len(series) - 1) // 2
    pairs = [(2.0 * series[n + k].real, -2.0 * series[n + k].imag) for k in range(1, n + 1)]
    return float(series[n].real), pairs


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


def sorted_tail_product(n, k, x):
    """chebmult.cheb_tail_product with each point's factors 1 - (x/(k t_i))^2
    sorted by |factor - 1| (``argsort``) before their product."""
    X = np.atleast_1d(np.asarray(x, dtype=float))
    facs = 1.0 - (X[:, None] / (k * cheb_positive_zeros(k)[n // 2 :])[None, :]) ** 2
    return np.prod(np.take_along_axis(facs, np.argsort(np.abs(facs - 1.0), axis=1), axis=1), axis=1)


def row_by_row_sphere_starts(dim, count, seed):
    """sphere_starts from one row of PCG64 standard normal deviates at a time,
    each divided by sqrt(math.fsum) of its squares."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for _ in range(count):
        g = rng.standard_normal(dim)
        rows.append(g / math.sqrt(math.fsum(g * g)))
    return np.array(rows).reshape(count, dim)


def row_by_row_lifted_starts(d, count, seed):
    """The candidate rows of the multiplier search on S^d: ``count`` rows of
    row_by_row_sphere_starts in R^(d+1), each with its last coordinate t
    replaced by |t|, then the same rows with t = 0, divided by the
    sqrt(math.fsum) of their squares."""
    upper = row_by_row_sphere_starts(d + 1, count, seed)
    upper[:, d] = np.abs(upper[:, d])
    rim = [np.append(y[:d], 0.0) / math.sqrt(math.fsum(y[:d] * y[:d])) for y in upper]
    return np.vstack([upper, np.array(rim).reshape(count, d + 1)])


def grid_scan(widths, budget, margin, unit, name):
    """covering._grid as one scalar loop over N = 1, 2, ...: (N, half width, shifts)."""
    total = sum(widths)
    if margin is None:
        margin = 0.01 * (budget - total)
    if total + margin >= budget:
        raise ValueError(f"total width {total} plus margin {margin} reaches {name}; nothing to refute")
    for N in range(1, covering._MAX_GRID_N):
        counts = [math.ceil(w * N / unit - 1e-12) for w in widths]
        excess = sum(c * unit / N - w for c, w in zip(counts, widths))
        if excess <= margin + 1e-12:
            if sum(counts) * unit / N >= budget:
                raise ValueError("rounded total width reaches the budget; infeasible margin")
            sub_half = unit / (2 * N)
            return N, sub_half, [[(2 * j + 1 - M) * sub_half for j in range(M)] for M in counts]
    raise ValueError(
        f"splitting needs a width grid finer than {unit:g}/{covering._MAX_GRID_N}: "
        f"slack {budget - total:.6g} below {name}"
    )


def exact_plank_refutation(planks, x):
    """(indices of the planks that contain x, whether |x|^2 > 1), both decided
    in exact rationals: |<a, x> - c| <= h with a, c, h and x the stored floats."""
    X = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    inside = []
    for i, p in enumerate(planks):
        dot = sum(Fraction(a) * v for a, v in zip(p.normal.tolist(), X))
        if abs(dot - Fraction(p.offset)) <= Fraction(p.half_width):
            inside.append(i)
    return inside, sum(v * v for v in X) > 1


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


def _nearest_sign_change(terms, curve, U, span, samples, bisections=60):
    """Smallest t in [0, span] at which P changes sign on any of the curves
    t -> curve(t, u), one per row u of U, from a dense grid of t and
    bisection of the first bracket on each curve; +inf when P keeps its sign
    on every curve."""
    ts = np.linspace(0.0, span, samples)
    signs = np.sign(naive_poly_eval(terms, np.moveaxis(curve(ts[:, None], U), -1, 0)))
    change = (signs[:-1] == 0.0) | (signs[:-1] * signs[1:] < 0.0)
    hit = np.flatnonzero(np.any(change, axis=0))
    if len(hit) == 0:
        return math.inf
    first = np.argmax(change[:, hit], axis=0)
    lo, hi, s_lo, U = ts[first], ts[first + 1], signs[first, hit], U[hit]
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        s_mid = np.sign(naive_poly_eval(terms, curve(mid, U).T))
        left = (s_lo == 0.0) | (s_lo * s_mid <= 0.0)
        hi = np.where(left, mid, hi)
        lo, s_lo = np.where(left, lo, mid), np.where(left, s_lo, s_mid)
    return float(np.min(np.where(s_lo == 0.0, lo, hi)))


def _directions(d, count, seed, normal=None):
    """Up to ``count`` random unit vectors in R^d, orthogonal to ``normal``
    if given; a draw that the projection leaves at rounding level (a draw
    parallel to ``normal``) is dropped."""
    U = np.random.default_rng(seed).standard_normal((count, d))
    if normal is not None:
        U -= np.outer(U @ normal, normal)
    norms = np.linalg.norm(U, axis=1)
    keep = norms > 1e-8
    return U[keep] / norms[keep, None]


def great_circle_zero_distance(terms, p, directions=300, samples=2001, seed=0):
    """Angle from the unit vector p to the nearest sign change of P on
    ``directions`` great circles p cos t + u sin t, u a random unit vector
    orthogonal to p.  Each sign change brackets a true zero, so this is an
    upper bound on the angular distance from p to Z(P)."""
    p = np.asarray(p, dtype=float)

    def circle(t, U):
        return np.cos(t)[..., None] * p + np.sin(t)[..., None] * U

    return _nearest_sign_change(terms, circle, _directions(len(p), directions, seed, p), math.pi, samples)


def ray_zero_distance(terms, p, reach=1.0, directions=300, samples=2001, seed=0):
    """Euclidean distance from p to the nearest sign change of P on
    ``directions`` random rays p + s u, 0 <= s <= ``reach``: an upper bound
    on the distance from p to Z(P), or +inf when P keeps its sign on every
    ray."""
    p = np.asarray(p, dtype=float)

    def ray(s, U):
        return p + s[..., None] * U

    return _nearest_sign_change(terms, ray, _directions(len(p), directions, seed), reach, samples)


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


def tangent_basis(x):
    """Orthonormal basis of the tangent space at the unit vector x, by one QR."""
    d = len(x)
    k = int(np.argmax(np.abs(x)))
    cols = [x] + [np.eye(d)[:, j] for j in range(d) if j != k]
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q[:, 1:]


def polish_on_sphere(value, grad, x, iters=20):
    """Newton in a tangent chart, one point at a time; Hessian by differencing
    the chart gradient.

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
        B = tangent_basis(x)
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


def qr_newton_step(X, q, W):
    """The polish's Newton step on the sphere in a tangent basis, as it was
    taken before it was solved in the ambient space: one QR of [x, I] gives
    nu = <x, q> / |x|^2 by back substitution and a basis B of the tangent
    space, and the step is B s for B'(W - nu I)B s = -B'q, with the
    eigenvalues within 1e-10 of the largest in modulus taken as zero; each
    row capped at length 0.2.  Returns the steps and their lengths before
    the cap."""
    n, D = X.shape
    eye = np.broadcast_to(np.eye(D), (n, D, D))
    U, R = np.linalg.qr(np.concatenate([X[:, :, None], eye], axis=2))
    b = np.einsum("nj,nj->n", U[:, :, 0], q)
    nu = np.divide(b, R[:, 0, 0], out=np.zeros(n), where=R[:, 0, 0] != 0.0)
    B = U[:, :, 1:]
    r = np.einsum("nji,nj->ni", B, q)
    w, V = np.linalg.eigh(np.swapaxes(B, 1, 2) @ (W - nu[:, None, None] * eye) @ B)
    null = np.abs(w) <= 1e-10 * np.max(np.abs(w), axis=1, keepdims=True)
    coef = np.einsum("nji,nj->ni", V, r)
    S = np.einsum("nij,nj->ni", B, -np.einsum("nij,nj->ni", V, np.divide(coef, w, out=np.zeros_like(w), where=~null)))
    norm = np.linalg.norm(S, axis=1)
    return S * (0.2 / np.maximum(norm, 0.2))[:, None], norm


def ball_ascent_pool(value, grad, d, count, seed, keep=24, iters=200):
    """The near-maximal pool of the multiplier objective over the ball B^d as
    the search took it in the ball, before it ran on the sphere that lifts the
    ball: ``iters`` iterations of gradient ascent in R^d from ``count`` points
    uniform in the ball and the same directions at radius 0.999, each trial
    clipped to the ball, with steps 0.25 / (1 + |G|) shrunk by 4 up to 25 times
    until f rises, and no polish; the best ``keep`` rows that lie within
    relative 1e-9 of the best value of those rows.  ``value`` and ``grad``
    are read on rows lifted by t = 0, as the objective reads only x."""
    lift = lambda X: np.hstack([X, np.zeros((len(X), 1))])  # noqa: E731
    dirs = row_by_row_sphere_starts(d, count, seed)
    radii = np.random.default_rng(seed + 17).random(count) ** (1.0 / d)
    X = np.vstack([dirs * radii[:, None], 0.999 * dirs])
    f = value(lift(X))
    for _ in range(iters):
        G = grad(lift(X))[:, :d]
        gnorm = np.linalg.norm(G, axis=1)
        step = 0.25 / (1.0 + gnorm)
        live, moved = gnorm >= 1e-12, False
        for _ in range(25):
            # a trial whose first-order gain is below the rounding of f cannot show
            live &= step * gnorm**2 > GAIN_FLOOR * np.where(f == LOG_FLOOR, 1.0, np.maximum(1.0, np.abs(f)))
            if not np.any(live):
                break
            trial = X + step[:, None] * G
            norms = np.linalg.norm(trial, axis=1)
            trial[norms > 1.0] /= norms[norms > 1.0, None]
            ft = value(lift(trial))
            better = live & (ft > f)
            X[better], f[better] = trial[better], ft[better]
            moved |= np.any(better)
            live &= ~better
            step = step * 0.25
        if not moved:
            break
    X = X[np.argsort(-f)[:keep]]
    logs = value(lift(X))
    return X[logs >= np.max(logs) + math.log1p(-1e-9)]


def whole_batch_near_max(value, grad, X, starts):
    """sphereopt.near_max_on_sphere with its screen read in one ``value`` call
    on every candidate row."""
    X = X[np.argsort(-value(X), kind="stable")[:starts]]
    X, f = sphereopt._batch_ascent(value, grad, X)
    X = sphereopt._newton_polish(value, grad, X[np.argsort(-f)[: max(8, min(32, starts))]])
    return sphereopt._near_max(value, X)


def multiplier_log(coeffs, x):
    """log|P(x) M(|x|)| at the points x of [-1, 1]: P from its coefficients,
    x^0 first, by numpy's Horner sum, and M of degree len(coeffs) - 1 from
    ``chebmult.ball_multiplier``."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.polynomial.polynomial.polyval(x, coeffs))) + np.log(
            np.abs(ball_multiplier(len(coeffs) - 1, np.abs(x)))
        )


def grid_multiplier_max(coeffs, block=1 << 16):
    """The largest :func:`multiplier_log` over 4096 n + 1 equally spaced
    points of [-1, 1], n = len(coeffs) - 1, read ``block`` points at a time
    so that the multiplier's per-zero factor arrays stay small."""
    xs = np.linspace(-1.0, 1.0, 4096 * (len(coeffs) - 1) + 1)
    return max(float(np.max(multiplier_log(coeffs, xs[i : i + block]))) for i in range(0, len(xs), block))


def dedupe_points_loop(points, tol=1e-7):
    """sphereopt._dedupe_points as one norm per pair of points: the points in
    order, each unless it lies within ``tol`` of one kept before it."""
    out = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in out):
            out.append(p)
    return out


def all_critical_max_points(T):
    """(M, points) of |T| from every zero of T' that trig_zeros reports: each
    critical point polished, then the values within 1e-9 of the largest.  T
    is first scaled by the power of two that puts its largest coefficient in
    [0.5, 1), and M scaled back; None where trig_zeros places no zero of T'."""
    e = -math.frexp(float(np.max(np.abs(T.coeffs), initial=abs(T.a0))))[1]
    T = TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e))
    crit = [z.theta for z in trig_zeros(T.derivative())]
    if not crit:
        return None
    vals = np.abs(T.eval(np.array(crit)))
    M = float(np.max(vals))
    return math.ldexp(M, -e), sorted(float(t) for t, v in zip(crit, vals) if v >= M * (1.0 - 1e-9))


def legacy_trig_verify_json(T, report):
    """The JSON object of ``trig-verify``, with the interlacing check run here
    on the zeros and maxima T keeps or finds."""
    interlaces, _ = interlacing_check(T)
    return {
        "degree": T.degree,
        "max_value": report.max_value,
        "max_points": list(report.max_points),
        "zeros": [{"theta": z.theta, "multiplicity": z.multiplicity} for z in report.zeros],
        "min_distance": report.min_distance,
        "bound": report.bound,
        "passed": report.passed,
        "q_identically_zero": report.q_identically_zero,
        "interlacing": interlaces,
    }


def legacy_sphere_max_json(res):
    return {
        "value": res.value,
        "log_value": res.log_value,
        "point": res.point.tolist(),
        "near_maximizers": [p.tolist() for p in res.near_maximizers],
    }


def legacy_sphere_gap_json(rep):
    eq = None
    if rep.equality is not None:
        eq = {
            "circle": {"u": rep.equality.circle.u.tolist(), "v": rep.equality.circle.v.tolist()},
            "interlacing": rep.equality.interlacing,
        }
    return {
        "degree": rep.degree,
        "maximizer": rep.maximizer.tolist(),
        "value": rep.value,
        "distance": rep.distance,
        "bound": rep.bound,
        "passed": rep.passed,
        "equality": eq,
    }


def legacy_complex_gap_json(rep):
    return {
        "maximizer": {"re": rep.maximizer.real.tolist(), "im": rep.maximizer.imag.tolist()},
        "distances": list(rep.distances),
        "bounds": list(rep.bounds),
        "passed": list(rep.passed),
        "euclidean_distances": list(rep.euclidean_distances),
        "cp1_radius": rep.cp1_radius,
    }


def product_with_itself(poly):
    """R(x, y) = P(x) P(y) as a polynomial in 2d variables: a tagged product's
    forms on each block of variables, otherwise every product of two terms."""
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
            terms[e1 + e2] = terms.get(e1 + e2, 0.0) + c1 * c2
    return MultiPoly(2 * d, terms)


def pair_via_product(poly, seed=0, starts=64, tol=1e-6, seeds=3):
    """The pair construction on the expanded R of :func:`product_with_itself`:
    |R| maximized on S^(2d-1) by ``maximize_abs_on_sphere`` (exact on the
    circle for expanded P in one variable), the small half p and large half q
    chosen as ``pair_point`` chooses them, and the angular distance from
    (p, q) to Z(R) measured in 2d variables, the least of the zero searches
    from ``seeds`` seeds: each is an upper-bound estimate, and one of them
    can miss the nearest zero (0.972 from seed 32 against 0.954 from seeds
    0-5, on a perturbed product of three forms in R^3).  Returns the fields
    of the certificate that do not depend on how the maximum was found."""
    n, d = poly.degree, poly.dim
    R = product_with_itself(poly)
    res = sphereopt.maximize_abs_on_sphere(R, starts=starts, seed=seed)
    halves = [sorted((w[:d], w[d:]), key=np.linalg.norm) for w in res.near_maximizers]
    smalls = sphereopt._canonical_signs(poly, [small for small, _ in halves])
    (ball, _), p = sphereopt._farthest(smalls, lambda x: ballfinder.euclidean_zero_distance(poly, x, seed=seed))
    q = next(large for small, (_, large) in zip(smalls, halves) if small is p)
    w = np.concatenate([p, q])
    sphere = min(sphereopt.angular_distance_to_zero_set(R, w, seed=seed + k)[0] for k in range(seeds))
    return {
        "passed": bool(ball >= 1.0 / (8 * n) - tol),
        "ball_distance": ball,
        "ball_bound": 1.0 / (8 * n),
        "sphere_distance": sphere,
        "sphere_bound": math.pi / (4 * n),
    }


def legacy_pair_json(cert):
    return {
        "p": cert.p.tolist(),
        "q": cert.q.tolist(),
        "chosen": cert.chosen.tolist(),
        "sphere_distance": cert.sphere_distance,
        "sphere_bound": cert.sphere_bound,
        "ball_distance": cert.ball_distance,
        "ball_bound": cert.ball_bound,
        "nearest_zero": None if cert.nearest_zero is None else cert.nearest_zero.tolist(),
        "lift_t": cert.lift_t,
        "lift_point": None if cert.lift_point is None else cert.lift_point.tolist(),
        "lift_t_bound": cert.lift_t_bound,
        "passed": cert.passed,
    }


def legacy_ball_multiplier_json(point, distance, bound, passed):
    return {"point": point.tolist(), "distance": distance, "bound": bound, "passed": passed}


def legacy_refutation_json(res):
    return {
        "point": res.point.tolist(),
        "clearances": list(res.clearances),
        "total_width": res.total_width,
        "budget": res.budget,
        "split_N": res.split_N,
    }


def legacy_lifted_json(diag):
    return {
        "n": diag.n,
        "k": diag.k,
        "radius": diag.radius,
        "latitudes": list(diag.latitudes),
        "count": diag.count,
        "spacing": diag.spacing,
        "cap_radius": diag.cap_radius,
    }


def legacy_convergence_json(rep):
    return {
        "n": rep.n,
        "ks": list(rep.ks),
        "half_width": rep.half_width,
        "scaled_cheb_errors": list(rep.scaled_cheb_errors),
        "tail_errors": list(rep.tail_errors),
    }
