"""Seeded instance generators for the benchmark workloads.

Each workload cycles through a fixed schedule of instance shapes (command,
dimension, degree, piece count).  The seed only moves or draws the
coefficients, normals, offsets and widths, so every seed exercises the same
mix of sizes and the per-run figures stay comparable across seeds.  Instance
``i`` of a workload depends only on (seed, workload, i), never on how many
instances a run reaches.

For trig polynomials, affine pieces (tagged forms, segments, planks), the
untagged quadric and the binary forms in C^2, the geometry (the trig
coefficients, the pieces' angles to each other, offsets and widths, the
quadric's spectrum, the forms' coefficients) depends on (workload, i) alone,
and the seed moves it by a random phase shift, rotation or unitary map.  The problem is then the same for every seed up to
that map, and so is its difficulty; with the geometry drawn from the seed as
well, the cost of one ascent-based instance varied fivefold between seeds.

Why each workload exists:

- ``circle``: every answer comes from root isolation on the circle
  (``trigcircle`` plus ``polycore.restrict_to_circle``); no ascent, no SLSQP.
- ``search``: tagged affine products on the sphere and in the ball, segment
  and plank families, C^2 systems, the three table commands and one untagged
  quadric per cycle.  The multistart ascent and polish of ``sphereopt`` and
  ``ballfinder``, the SLSQP multiplier polishes, ``chebmult`` and the
  refuters do the work; the quadric takes the SLSQP zero-distance search and
  expanded-term ``MultiPoly`` evaluation.

Segment and plank families are drawn from the theorems' domain (total width
below pi or 2) and are not filtered to what the splitter accepts, so refusals
show up as failures.  The few-piece families have widths on a fixed grid, so
that the splitter makes the same number of factors for every seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("circle", "search")

# Segment and plank families as (dimension, pieces, widths).  Few-piece
# families get widths that are whole multiples of unit/N0 (unit 1 for
# segments, 2 for planks), C of them in all, with the multiples sharing no
# factor with N0 and not all equal; the splitter's smallest admissible grid is
# then exactly unit/N0 for every seed, so it always makes C factors.  Twelve
# pieces of random real widths summing to a random share of the budget need
# more than MAX_SPLIT_FACTORS factors at the splitter's 1%-of-slack margin and
# are refused today, although the theorem covers them.
SEGMENT_FAMILIES = (
    (3, 2, {"grid": (6, 7)}),
    (4, 3, {"grid": (6, 8)}),
    (3, 12, {"share": (0.45, 0.75)}),
    (4, 12, {"share": (0.45, 0.75)}),
)
PLANK_FAMILIES = (
    (2, 2, {"grid": (10, 5)}),
    (3, 3, {"grid": (10, 6)}),
    (2, 12, {"share": (0.45, 0.75)}),
    (3, 12, {"share": (0.45, 0.75)}),
)

# Eigenvalues of the untagged quadric x'Ax in search.  Each seed rotates it at
# random, so the geometry, and with it the SLSQP zero-distance search, costs
# about the same for every seed (a dense random quadric varies sixfold).
QUADRIC_SPECTRUM = (1.0, 0.2, -0.6)

# (command, shape) pairs; one pass over a schedule is a cycle.  A degree
# given as a (low, high) range moves through that range from cycle to cycle
# (low, low + 3, low + 6, ...), the same for every seed, so a run's cost
# distribution has no wide gaps for a percentile to fall into and no degree
# drawn by chance.
SCHEDULES = {
    "circle": (
        [
            ("trig-verify", {"n": n})
            for n in ((8, 15), (12, 19), (16, 23), (20, 27), (24, 31), (28, 35), (32, 39), (40, 47), (48, 55))
        ]
        + [("sphere-verify", {"d": 2, "n": (16, 31)}), ("sphere-max", {"d": 2, "n": (32, 40)})]
    ),
    "search": (
        [("sphere-verify", {"d": d, "m": m}) for d, m in ((3, 2), (4, 6), (5, 9), (6, 12))]
        + [("sphere-max", {"d": d, "m": m}) for d, m in ((3, 8), (6, 4))]
        + [("refute-sphere", {"d": d, "k": k, "w": w}) for d, k, w in SEGMENT_FAMILIES]
        + [("complex-verify", {"d": 2, "n": n}) for n in (3, 6)]
        + [("weighted-verify", {"d": 2, "degs": degs}) for degs in ((1, 2), (2, 3, 1))]
        + [("refute-ball", {"d": d, "k": k, "w": w}) for d, k, w in PLANK_FAMILIES]
        + [("ball-multiplier", {"d": d, "m": m}) for d, m in ((2, 1), (3, 3), (2, 5))]
        + [("ball-pair", {"d": d, "m": m}) for d, m in ((2, 2), (3, 4))]
        + [("cheb-table", {}), ("lifted-diag", {}), ("convergence", {})]
        + [("sphere-verify", {"d": 3, "spectrum": QUADRIC_SPECTRUM})]
    ),
}

# Time of one cycle, averaged over cycles and scaled by the speed factor, at
# the commit that introduced the benchmark, on a 2-core x86 machine (Python
# 3.11, numpy 2.4, scipy 1.17).  ``--seconds`` is turned into a whole number
# of cycles with these, so a run measures about that long there and the same
# work on every later commit.
NOMINAL_CYCLE_S = {"circle": 6.7, "search": 8.6}


@dataclass(frozen=True)
class Instance:
    index: int
    command: str
    payload: dict
    args: tuple  # extra CLI arguments after --input/--output/--seed


def _unit_rows(rng, rows, d):
    g = rng.standard_normal((rows, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _forms(rng, d, m):
    normals = _unit_rows(rng, m, d)
    offsets = rng.uniform(-0.6, 0.6, m)
    return [{"a": a.tolist(), "b": float(b)} for a, b in zip(normals, offsets)]


def _monomials(d, n):
    """All exponent vectors of total degree <= n in d variables."""
    return [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) <= n]


def _terms_poly(rng, d, n):
    """Dense random polynomial of degree exactly n, as expanded terms."""
    exps = _monomials(d, n)
    coeffs = rng.standard_normal(len(exps))
    return {"dim": d, "terms": [{"e": list(e), "c": float(c)} for e, c in zip(exps, coeffs)]}


def _rotation(rng, d):
    """Uniformly random d x d orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotate(payload, q):
    """The same affine pieces turned by the orthogonal matrix q."""
    key = next(k for k in ("forms", "segments", "planks") if k in payload)
    return dict(payload, **{key: [dict(p, a=(q @ np.array(p["a"])).tolist()) for p in payload[key]]})


def _unitary(rng):
    """Uniformly random 2 x 2 unitary matrix."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _turn_binary_form(poly, u):
    """Coefficients of P(u z) for a binary form P given as terms in z1^j z2^(n-j)."""
    n = poly["deg"]
    out = np.zeros(n + 1, dtype=complex)
    for t in poly["terms"]:
        k = t["e"][0]
        f = np.ones(1, dtype=complex)
        for _ in range(k):
            f = np.convolve(f, [u[0, 1], u[0, 0]])  # (u00 z1 + u01 z2), lowest z1 power first
        for _ in range(n - k):
            f = np.convolve(f, [u[1, 1], u[1, 0]])
        out += complex(t["re"], t["im"]) * f
    terms = [{"e": [j, n - j], "re": float(c.real), "im": float(c.imag)} for j, c in enumerate(out)]
    return dict(poly, terms=terms)


def _turn_complex(payload, u):
    if "items" in payload:
        return {"items": [dict(item, poly=_turn_binary_form(item["poly"], u)) for item in payload["items"]]}
    return _turn_binary_form(payload, u)


def _shift_trig(payload, phi):
    """Coefficients of T(theta + phi): each frequency's (a_k, b_k) turned by k*phi."""
    c = np.array(payload["c"])
    k = np.arange(1, len(c) + 1)
    cos, sin = np.cos(k * phi), np.sin(k * phi)
    shifted = np.column_stack([c[:, 0] * cos + c[:, 1] * sin, c[:, 1] * cos - c[:, 0] * sin])
    return dict(payload, c=shifted.tolist())


def _rotated_quadric(rng, spectrum):
    """x'Ax with A = Q diag(spectrum) Q' for a random rotation Q, as expanded terms."""
    d = len(spectrum)
    q = _rotation(rng, d)
    a = q @ np.diag(spectrum) @ q.T
    terms = []
    for i, j in itertools.combinations_with_replacement(range(d), 2):
        e = [0] * d
        e[i] += 1
        e[j] += 1
        terms.append({"e": e, "c": float(a[i, j] if i == j else 2.0 * a[i, j])})
    return {"dim": d, "terms": terms}


def _complex_homog(rng, d, n):
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) == n]
    c = rng.standard_normal((len(exps), 2))
    return {
        "dim": d,
        "deg": n,
        "terms": [{"e": list(e), "re": float(re), "im": float(im)} for e, (re, im) in zip(exps, c)],
    }


def _widths(rng, k, budget, unit, spec):
    """k widths below the budget: on a grid if spec has one, else real-valued."""
    if "grid" in spec:
        n0, total = spec["grid"]
        while True:
            cuts = np.sort(rng.choice(np.arange(1, total), size=k - 1, replace=False))
            counts = np.diff(np.concatenate([[0], cuts, [total]]))
            if math.gcd(n0, *counts.tolist()) == 1 and counts.min() < counts.max():
                return counts * (unit / n0)
    return budget * rng.uniform(*spec["share"]) * rng.dirichlet(np.ones(k))


def _payload(rng, command, shape, workload):
    if command == "trig-verify":
        n = shape["n"]
        c = rng.standard_normal((n, 2))
        return {"n": n, "a0": float(rng.standard_normal()), "c": c.tolist()}
    if command in ("sphere-verify", "sphere-max", "ball-multiplier", "ball-pair"):
        if "m" in shape:
            return {"forms": _forms(rng, shape["d"], shape["m"])}
        if "spectrum" in shape:
            return _rotated_quadric(rng, shape["spectrum"])
        return _terms_poly(rng, shape["d"], shape["n"])
    if command == "complex-verify":
        return _complex_homog(rng, shape["d"], shape["n"])
    if command == "weighted-verify":
        degs = shape["degs"]
        # weights delta_k^2 deg_k share a total just below 1
        share = 0.999 * rng.dirichlet(np.ones(len(degs)))
        return {
            "items": [
                {"poly": _complex_homog(rng, shape["d"], n), "delta": float(math.sqrt(s / n))}
                for n, s in zip(degs, share)
            ]
        }
    if command == "refute-sphere":
        d, k = shape["d"], shape["k"]
        widths = _widths(rng, k, math.pi, 1.0, shape["w"])
        normals = _unit_rows(rng, k, d)
        offsets = rng.uniform(-0.5, 0.5, k)
        return {
            "dim": d,
            "segments": [
                {"a": a.tolist(), "b": float(b), "delta": float(w / 2)}
                for a, b, w in zip(normals, offsets, widths)
            ],
        }
    if command == "refute-ball":
        d, k = shape["d"], shape["k"]
        widths = _widths(rng, k, 2.0, 2.0, shape["w"])
        normals = _unit_rows(rng, k, d)
        centers = rng.uniform(-0.5, 0.5, k)
        return {
            "dim": d,
            "planks": [
                {"a": a.tolist(), "c": float(c), "w": float(w)}
                for a, c, w in zip(normals, centers, widths)
            ],
        }
    if command == "cheb-table":
        n = int(rng.integers(1, 9))
        k = n + 2 * int(rng.integers(1, 20))
        return {"n": n, "k": k, "half_width": float(rng.uniform(2.0, 6.0)), "points": 101}
    if command == "lifted-diag":
        n = int(rng.integers(1, 11))
        return {"n": n, "k": n + 2 * int(rng.integers(1, 100))}
    if command == "convergence":
        n = int(rng.integers(1, 9))
        return {"n": n, "ks": [n + 2 * j for j in (4, 16, 64)], "half_width": float(rng.uniform(1.0, 4.0))}
    raise ValueError(f"no generator for {command} in {workload}")


def make_instance(workload, seed, index):
    schedule = SCHEDULES[workload]
    command, shape = schedule[index % len(schedule)]
    if isinstance(shape.get("n"), tuple):
        lo, hi = shape["n"]
        shape = dict(shape, n=lo + 3 * (index // len(schedule)) % (hi - lo + 1))
    w = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, w, index])
    geometry = np.random.default_rng([w, index])
    if "m" in shape or command.startswith("refute-"):
        payload = _rotate(_payload(geometry, command, shape, workload), _rotation(rng, shape["d"]))
    elif command in ("complex-verify", "weighted-verify"):
        payload = _turn_complex(_payload(geometry, command, shape, workload), _unitary(rng))
    elif command == "trig-verify":
        payload = _shift_trig(_payload(geometry, command, shape, workload), rng.uniform(0.0, 2.0 * math.pi))
    else:
        payload = _payload(rng, command, shape, workload)
    args = ("--format", "csv") if command == "cheb-table" else ()
    return Instance(index, command, payload, args)


def make_instances(workload, seed, count):
    return [make_instance(workload, seed, i) for i in range(count)]


def cycle_length(workload):
    return len(SCHEDULES[workload])


def cycles_for(workload, seconds):
    """Whole cycles a run of ``seconds`` measures."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
