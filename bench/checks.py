"""Independent checks of CLI outputs, computed with plain numpy.

Nothing here calls zerogap or trusts an optimizer.  Every check recomputes a
claim from the generated input: bounds from the input degree (and ``passed``
against them), closed-form distances from the input forms, zero sets on the
circle by grid sign changes and bisection, clearances by direct membership,
and maxima against dense grids or seeded samples.  ``check`` returns None for
an accepted output and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-6  # the CLI's default --tol, used for every gap command
REL = 1e-9
SAMPLES = 1024  # random points for the "no better point than a sample" checks


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(a, b, tol, what):
    a, b = float(a), float(b)
    _require(
        a == b or abs(a - b) <= tol * max(1.0, abs(b)),
        f"{what}: reported {a!r}, recomputed {b!r}",
    )


# ---------------------------------------------------------------- polynomials


def _form_arrays(payload):
    A = np.array([f["a"] for f in payload["forms"]], dtype=float)
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    b = np.array([f["b"] for f in payload["forms"]], dtype=float)
    return A, b


def _real_poly(payload):
    """(evaluate on row batches, degree, dimension) of a generated polynomial."""
    if "forms" in payload:
        A, b = _form_arrays(payload)
        return (lambda X: np.prod(X @ A.T - b, axis=1)), len(b), A.shape[1]
    E = np.array([t["e"] for t in payload["terms"]], dtype=int)
    C = np.array([t["c"] for t in payload["terms"]], dtype=float)
    n, d = int(E.sum(axis=1).max()), E.shape[1]
    k = np.arange(n + 1)

    def value(X):
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], 512):
            pw = X[lo : lo + 512, :, None] ** k  # pw[row, var, power]
            mono = np.prod([pw[:, j, E[:, j]] for j in range(d)], axis=0)
            out[lo : lo + 512] = mono @ C
        return out

    return value, n, d


def _complex_poly(payload):
    terms = [(np.array(t["e"]), complex(t["re"], t.get("im", 0.0))) for t in payload["terms"]]

    def value(Z):
        out = np.zeros(Z.shape[0], dtype=complex)
        for e, c in terms:
            out += c * np.prod(Z**e, axis=1)
        return out

    return value, int(terms[0][0].sum()), payload["dim"]


def _sphere_sample(d, count, seed=12345):
    g = np.random.default_rng(seed).standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _ball_sample(d, count, seed=12345):
    rng = np.random.default_rng(seed)
    dirs = _sphere_sample(d, count, seed + 1)
    return dirs * rng.uniform(0.0, 1.0, count)[:, None] ** (1.0 / d)


def _unit(x, what):
    _require(abs(np.linalg.norm(x) - 1.0) <= 1e-9, f"{what} is not a unit vector")


def _in_ball(x, what):
    _require(np.linalg.norm(x) <= 1.0 + 1e-9, f"{what} lies outside the unit ball")


# ---------------------------------------------------------------- the circle


def _trig_eval(a0, C, theta):
    k = np.arange(1, C.shape[0] + 1)
    kt = np.multiply.outer(theta, k)
    return a0 + np.cos(kt) @ C[:, 0] + np.sin(kt) @ C[:, 1]


def _grid_zeros(f, samples):
    """Zeros of a periodic function at its grid sign changes, by bisection."""
    ts = np.linspace(0.0, 2 * math.pi, samples + 1)
    vs = f(ts)
    idx = np.flatnonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0)
    lo, hi = ts[idx], ts[idx + 1]
    flo = vs[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = np.sign(fm) == np.sign(flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
        hi = np.where(left, hi, mid)
    exact = ts[:-1][vs[:-1] == 0.0]
    return np.sort(np.concatenate([0.5 * (lo + hi), exact]) % (2 * math.pi))


def _arc(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % (2 * math.pi)
    return np.minimum(d, 2 * math.pi - d)


def _circle_grid(n):
    return 64 * max(n, 8)


def _check_trig(payload, out):
    a0 = float(payload["a0"])
    C = np.array(payload["c"], dtype=float).reshape(-1, 2)
    n = C.shape[0]
    _require(out["degree"] == n, f"degree {out['degree']} != input degree {n}")
    bound = math.pi / (2 * n)
    _close(out["bound"], bound, 1e-12, "bound")
    f = lambda t: _trig_eval(a0, C, t)
    G = _circle_grid(n)
    grid = np.linspace(0.0, 2 * math.pi, G, endpoint=False)
    grid_max = float(np.max(np.abs(f(grid))))
    M = out["max_value"]
    # Bernstein: |T''| <= n^2 max|T|, so a grid of step h sees at least M(1 - (nh)^2/8)
    h = 2 * math.pi / G
    _require(grid_max <= M * (1 + REL), f"grid value {grid_max} exceeds reported max {M}")
    _require(grid_max >= M * (1 - (n * h) ** 2 / 8) - 1e-12, f"reported max {M} unreachable on grid")
    maxima = np.array(out["max_points"], dtype=float)
    _require(maxima.size > 0, "no maximizer reported")
    _require(np.all(np.abs(f(maxima)) >= M * (1 - REL)), "a reported maximizer is not a maximum")
    zeros = np.array([z["theta"] for z in out["zeros"]], dtype=float)
    mine = _grid_zeros(f, G)
    if mine.size:
        _require(zeros.size > 0, "zeros missed")
        gap = np.min(_arc(mine[:, None], zeros[None, :]), axis=1)
        _require(np.all(gap <= 1e-7), f"a sign change at {mine[np.argmax(gap)]} has no reported zero")
    if zeros.size:
        _require(np.all(np.abs(f(zeros)) <= 1e-7 * max(M, 1e-300)), "a reported zero is not a zero")
        dist = float(np.min(_arc(maxima[:, None], zeros[None, :])))
    else:
        dist = math.inf
    _close(out["min_distance"], dist, 1e-9, "min_distance")
    return out["passed"], out["min_distance"], bound


def _circle_nearest_zero(f, theta_p, n):
    zeros = _grid_zeros(f, _circle_grid(n))
    return float(np.min(_arc(theta_p, zeros))) if zeros.size else math.inf


# ---------------------------------------------------------------- sphere


def _slice_distance(A, b, p):
    s = np.clip(A @ p, -1.0, 1.0)
    return float(np.min(np.abs(np.arcsin(s) - np.arcsin(b))))


def _no_zero_within_sphere(f, p, radius, what):
    """Sampled check that f keeps its sign on the cap of angle ``radius``."""
    d = p.shape[0]
    U = np.random.default_rng(7).standard_normal((256, d))
    U -= np.outer(U @ p, p)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    t = np.linspace(0.0, radius, 65)[1:]
    X = np.cos(t)[:, None, None] * p + np.sin(t)[:, None, None] * U[None, :, :]
    vals = f(X.reshape(-1, d)) * np.sign(f(p[None, :])[0])
    _require(np.all(vals > 0), f"{what}: a sign change lies closer than the reported distance")


def _check_sphere_max_value(f, d, n, point, value):
    _unit(point, "maximizer")
    _close(value, abs(f(point[None, :])[0]), 1e-9, "value at the maximizer")
    if d == 2:
        theta = np.linspace(0.0, 2 * math.pi, _circle_grid(n), endpoint=False)
        X = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        X = _sphere_sample(d, SAMPLES)
    best = float(np.max(np.abs(f(X))))
    _require(value >= best * (1 - REL), f"sampled |P| {best} beats the reported max {value}")


def _check_sphere_verify(payload, out):
    f, n, d = _real_poly(payload)
    bound = math.pi / (2 * n)
    _require(out["degree"] == n, f"degree {out['degree']} != {n}")
    _close(out["bound"], bound, 1e-12, "bound")
    p = np.array(out["maximizer"], dtype=float)
    _check_sphere_max_value(f, d, n, p, out["value"])
    D = out["distance"]
    if "forms" in payload:
        A, b = _form_arrays(payload)
        _close(D, _slice_distance(A, b, p), 1e-9, "slice distance")
    elif d == 2:
        g = lambda t: f(np.column_stack([np.cos(t), np.sin(t)]))
        _close(D, _circle_nearest_zero(g, math.atan2(p[1], p[0]), n), 1e-7, "circle zero distance")
    else:
        # an infinite distance claims no zero at all: sample the whole sphere
        _no_zero_within_sphere(f, p, min(D, math.pi) * (1 - 1e-6), "sphere distance")
    return out["passed"], D, bound


def _check_sphere_max(payload, out):
    f, n, d = _real_poly(payload)
    p = np.array(out["point"], dtype=float)
    _check_sphere_max_value(f, d, n, p, out["value"])
    _close(out["log_value"], math.log(out["value"]), 1e-12, "log_value")
    for q in out["near_maximizers"]:
        q = np.array(q, dtype=float)
        _unit(q, "near maximizer")
        _require(abs(f(q[None, :])[0]) >= out["value"] * (1 - 1e-8), "a near maximizer is not near the max")
    return None


# ---------------------------------------------------------------- C^d


def _complex_point(obj):
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _binary_form_zeros(payload):
    """Unit representatives of the zeros of a binary form, by numpy roots."""
    n = payload["deg"]
    coeffs = np.zeros(n + 1, dtype=complex)  # coefficient of z1^j z2^(n-j)
    for t in payload["terms"]:
        coeffs[t["e"][0]] += complex(t["re"], t.get("im", 0.0))
    top = max(j for j in range(n + 1) if coeffs[j] != 0)
    reps = [np.array([1.0, 0.0], dtype=complex)] if top < n else []
    for r in np.roots(coeffs[: top + 1][::-1]):
        v = np.array([r, 1.0])
        reps.append(v / np.linalg.norm(v))
    return reps


def _hermitian_distance(p, zeros):
    return min(math.acos(min(1.0, abs(np.vdot(z, p)))) for z in zeros)


def _complex_sample(d):
    X = _sphere_sample(2 * d, SAMPLES)
    return X[:, :d] + 1j * X[:, d:]


def _check_complex_verify(payload, out):
    f, n, d = _complex_poly(payload)
    z = _complex_point(out["maximizer"])
    _unit(z, "maximizer")
    best = float(np.max(np.abs(f(_complex_sample(d)))))
    _require(abs(f(z[None, :])[0]) >= best * (1 - REL), f"sampled |P| {best} beats the maximizer")
    bound = math.asin(1.0 / math.sqrt(n))
    _close(out["bounds"][0], bound, 1e-12, "bound")
    D = out["distances"][0]
    _close(out["euclidean_distances"][0], math.sin(D), 1e-12, "euclidean distance")
    if d == 2:
        _close(D, _hermitian_distance(z, _binary_form_zeros(payload)), 1e-7, "hermitian distance")
        _close(out["cp1_radius"], math.tan(D), 1e-9, "cp1 radius")
    return out["passed"][0], D, bound


def _check_weighted_verify(payload, out):
    items = payload["items"]
    z = _complex_point(out["maximizer"])
    _unit(z, "maximizer")
    polys = [_complex_poly(it["poly"]) for it in items]
    weights = [it["delta"] ** 2 for it in items]
    d = polys[0][2]
    S = _complex_sample(d)
    obj = lambda Z: sum(w * np.log(np.abs(f(Z))) for (f, _, _), w in zip(polys, weights))
    best = float(np.max(obj(S)))
    got = float(obj(z[None, :])[0])
    _require(got >= best - 1e-9 * max(1.0, abs(best)), f"sampled objective {best} beats the maximizer {got}")
    verdicts = []
    for i, (it, (f, n, _)) in enumerate(zip(items, polys)):
        bound = math.asin(min(1.0, it["delta"]))
        _close(out["bounds"][i], bound, 1e-12, f"bound {i}")
        D = out["distances"][i]
        _close(D, _hermitian_distance(z, _binary_form_zeros(it["poly"])), 1e-7, f"distance {i}")
        verdicts.append((out["passed"][i], D, bound))
    return verdicts


# ---------------------------------------------------------------- ball


def _ball_distance_check(payload, p, D, what):
    """Ball distances of tagged products: the nearest hyperplane, per factor."""
    A, b = _form_arrays(payload)
    _close(D, float(np.min(np.abs(A @ p - b))), 1e-9, what)


def _check_ball_multiplier(payload, out):
    _, n, _ = _real_poly(payload)
    p = np.array(out["point"], dtype=float)
    _in_ball(p, "point")
    bound = 1.0 / n
    _close(out["bound"], bound, 1e-12, "bound")
    _ball_distance_check(payload, p, out["distance"], "ball distance")
    return out["passed"], out["distance"], bound


def _check_ball_pair(payload, out):
    f, n, _ = _real_poly(payload)
    p, q = np.array(out["p"], dtype=float), np.array(out["q"], dtype=float)
    _close(p @ p + q @ q, 1.0, 1e-9, "|p|^2 + |q|^2")
    _require(np.linalg.norm(p) <= np.linalg.norm(q) + 1e-12, "chosen half is the larger one")
    _require(np.allclose(out["chosen"], p), "chosen != p")
    bound = 1.0 / (8 * n)
    _close(out["ball_bound"], bound, 1e-12, "ball bound")
    _close(out["sphere_bound"], math.pi / (4 * n), 1e-12, "sphere bound")
    _close(out["lift_t_bound"], (math.sqrt(2) - 1) / (2 * math.sqrt(2) * n), 1e-12, "lift bound")
    D = out["ball_distance"]
    _ball_distance_check(payload, p, D, "ball distance")
    if out["nearest_zero"] is not None:
        z = np.array(out["nearest_zero"], dtype=float)
        scale = float(np.max(np.abs(f(_ball_sample(p.shape[0], 256)))))
        _require(abs(f(z[None, :])[0]) <= 1e-7 * scale, "nearest_zero is not a zero")
        _close(np.linalg.norm(z - p), D, 1e-9, "distance to nearest_zero")
    return out["passed"], D, bound


# ---------------------------------------------------------------- coverings


def _check_refute_sphere(payload, out):
    x = np.array(out["point"], dtype=float)
    _unit(x, "point")
    segs = payload["segments"]
    A = np.array([s["a"] for s in segs], dtype=float)
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = np.array([s["b"] for s in segs])
    delta = np.array([s["delta"] for s in segs])
    clear = np.abs(np.arcsin(np.clip(A @ x, -1.0, 1.0)) - np.arcsin(b)) - delta
    _require(np.all(clear > 0), f"point lies inside segment {int(np.argmin(clear))}")
    _require(len(out["clearances"]) == len(segs), "clearance count")
    _require(np.allclose(out["clearances"], clear, rtol=0, atol=1e-9), "reported clearances differ")
    _close(out["total_width"], float(np.sum(2 * delta)), 1e-12, "total width")
    _close(out["budget"], math.pi, 1e-15, "budget")
    return None


def _check_refute_ball(payload, out):
    x = np.array(out["point"], dtype=float)
    _in_ball(x, "point")
    planks = payload["planks"]
    A = np.array([p["a"] for p in planks], dtype=float)
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    c = np.array([p["c"] for p in planks])
    w = np.array([p["w"] for p in planks])
    clear = np.abs(A @ x - c) - w / 2
    _require(np.all(clear > 0), f"point lies inside plank {int(np.argmin(clear))}")
    _require(len(out["clearances"]) == len(planks), "clearance count")
    _require(np.allclose(out["clearances"], clear, rtol=0, atol=1e-9), "reported clearances differ")
    _close(out["total_width"], float(np.sum(w)), 1e-12, "total width")
    _close(out["budget"], 2.0, 1e-15, "budget")
    return None


# ---------------------------------------------------------------- tables


def _cheb_recurrence(k, x):
    t_prev, t_cur = np.ones_like(x), x.copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
    return t_cur if k else t_prev


def _check_cheb_table(payload, text):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["x", "t_scaled", "trig", "tail_k", "tail", "multiplier"], "CSV header")
    data = np.array(rows[1:], dtype=float)
    n, k, hw, points = payload["n"], payload["k"], payload["half_width"], payload["points"]
    _require(data.shape == (points, 6), f"table shape {data.shape}")
    x = np.linspace(-hw, hw, points)
    _require(np.allclose(data[:, 0], x, rtol=0, atol=1e-12), "x column")
    sign = (-1.0) ** (k // 2)
    _require(np.allclose(data[:, 1], sign * _cheb_recurrence(k, x / k), rtol=1e-9, atol=1e-9), "t_scaled column")
    trig = np.cos(x) if n % 2 == 0 else np.sin(x)
    _require(np.allclose(data[:, 2], trig, rtol=0, atol=1e-12), "trig column")
    mid = points // 2
    _require(abs(data[mid, 4] - 1.0) <= 1e-12 and abs(data[mid, 5] - 1.0) <= 1e-12, "tail and multiplier at 0")
    _require(np.all(np.isfinite(data)), "non-finite table entry")
    return None


def _check_lifted_diag(payload, out):
    n, k = payload["n"], payload["k"]
    r = 2.0 * k / (n * math.pi)
    _close(out["radius"], r, 1e-12, "radius")
    j = np.arange(1, k + 1)
    t = np.sort(np.cos((2 * j - 1) * math.pi / (2 * k)))[k - k // 2 :]  # the k//2 positive zeros
    t = t[n // 2 :]
    h = np.sort(np.concatenate([r * np.sqrt(1 - t * t), -r * np.sqrt(1 - t * t)]))
    _require(out["count"] == len(h) == k - n, f"count {out['count']} != {k - n}")
    _require(np.allclose(out["latitudes"], h, rtol=0, atol=1e-12 * r), "latitudes")
    lats = np.arcsin(np.clip(h / r, -1, 1))
    if len(h) > 1:
        _close(out["spacing"], r * (lats[1] - lats[0]), 1e-9, "spacing")
    _close(out["cap_radius"], r * math.asin(t[0]), 1e-9, "cap radius")
    return None


def _check_convergence(payload, out):
    n, ks, hw = payload["n"], payload["ks"], payload["half_width"]
    _require(out["n"] == n and out["ks"] == ks and out["half_width"] == hw, "echoed parameters")
    grid = np.linspace(-hw, hw, 2048)
    target = np.cos(grid) if n % 2 == 0 else np.sin(grid)
    for k, e in zip(ks, out["scaled_cheb_errors"]):
        mine = float(np.max(np.abs((-1.0) ** (k // 2) * _cheb_recurrence(k, grid / k) - target)))
        _require(abs(e - mine) <= 1e-9 + 1e-6 * mine, f"scaled Chebyshev error at k={k}: {e} vs {mine}")
    tails = out["tail_errors"]
    _require(all(math.isfinite(e) and e >= 0 for e in tails), "tail errors must be finite")
    _require(tails[-1] < tails[0], "tail errors do not shrink with k")
    return None


_CHECKS = {
    "trig-verify": _check_trig,
    "sphere-verify": _check_sphere_verify,
    "sphere-max": _check_sphere_max,
    "complex-verify": _check_complex_verify,
    "weighted-verify": _check_weighted_verify,
    "ball-multiplier": _check_ball_multiplier,
    "ball-pair": _check_ball_pair,
    "refute-sphere": _check_refute_sphere,
    "refute-ball": _check_refute_ball,
    "lifted-diag": _check_lifted_diag,
    "convergence": _check_convergence,
}


def check(command, payload, text, code):
    """None when the output of one exit-0 CLI call holds up, else the reason."""
    try:
        _require(code == 0, f"exit code {code}")
        if command == "cheb-table":
            return _check_cheb_table(payload, text)
        out = json.loads(text)
        verdicts = _CHECKS[command](payload, out)
        if verdicts is None:
            return None
        for passed, dist, bound in verdicts if isinstance(verdicts, list) else [verdicts]:
            _require(passed is True, "passed is not true")
            _require(dist >= bound - TOL, f"distance {dist} below bound {bound}")
        return None
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
