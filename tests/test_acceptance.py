"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either trivially exact, pinned by an independent
oracle computed in this file (per-factor distances, dense grids, explicit
root formulas, truncated products with analytic tails), or a direct
restatement of the bound under test at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from zerogap.ballfinder import lifted_diagnostics, multiplier_point, pair_point
from zerogap.chebmult import ball_multiplier, convergence_report, trig_tail_product
from zerogap.complexproj import (
    ComplexHomogPoly,
    WeightedSystem,
    chart_radius_check,
    verify_complex_gap,
    verify_weighted_gap,
)
from zerogap.covering import Plank, SphericalSegment, refute_cover_ball, refute_cover_sphere
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import verify_sphere_gap
from zerogap.trigcircle import (
    TrigPoly,
    interlacing_check,
    trig_max_points,
    trig_zeros,
    zero_gap_certificate,
)

from _oracles import truncated_tail_product


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def cos_n(n):
    return TrigPoly(0.0, [(0.0, 0.0)] * (n - 1) + [(1.0, 0.0)])


def cheb_poly_1d(n):
    c = np.polynomial.chebyshev.cheb2poly([0.0] * n + [1.0])
    return MultiPoly(1, {(i,): float(v) for i, v in enumerate(c) if v != 0.0})


def random_affine_product(rng, d, m, max_offset=0.9):
    forms = []
    for _ in range(m):
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(d)
        forms.append(AffineForm(a, rng.uniform(-max_offset, max_offset)))
    return product_of_affine_forms(forms), forms


def test_criterion_01_extremal_cosine_exactness():
    failures = []
    for n in range(1, 11):
        T = cos_n(n)
        dist = zero_gap_certificate(T).min_distance
        if abs(dist - math.pi / (2 * n)) > 1e-9:
            failures.append((n, "distance", dist))
        ok, arcs = interlacing_check(T)
        if not ok or len(arcs) != 4 * n:
            failures.append((n, "interlacing", len(arcs)))
        elif any(abs(a - math.pi / (2 * n)) > 1e-9 for a in arcs):
            failures.append((n, "arc length"))
    report(1, "extremal cosine distance and interlacing", failures)


def test_criterion_02_random_trig_suite():
    failures = []
    checked = 0
    attempt = 0
    while checked < 100:
        rng = np.random.default_rng(20_000 + attempt)
        attempt += 1
        n = int(rng.integers(1, 9))
        T = TrigPoly(
            0.5 * float(rng.standard_normal()),
            [tuple(rng.standard_normal(2)) for _ in range(n)],
            trim=True,
        )
        if T.degree == 0 or len(trig_zeros(T)) == 0:
            continue
        checked += 1
        dist = zero_gap_certificate(T).min_distance
        bound = math.pi / (2 * T.degree)
        if dist < bound - 1e-7:
            failures.append((attempt, T.degree, dist, bound))
        if not zero_gap_certificate(T).passed:
            failures.append((attempt, "certificate"))
    report(2, "random trig suite (100 instances)", failures)


def test_criterion_03_double_zero_counterexample():
    failures = []
    T = TrigPoly(0.4, [(0.1, 0.0), (-0.5, 0.0)])  # (1 - cos t)(0.9 + cos t)
    zeros = trig_zeros(T)
    double = [z for z in zeros if z.multiplicity == 2]
    if len(double) != 1 or min(double[0].theta, 2 * math.pi - double[0].theta) > 1e-8:
        failures.append(("double zero", [(z.theta, z.multiplicity) for z in zeros]))
    M, pts = trig_max_points(T)
    target = math.acos(0.05)  # 1.520775
    if abs(target - 1.520775) > 1e-6:
        failures.append(("reference maximizer drifted", target))
    if not any(abs(t - target) <= 1e-8 for t in pts):
        failures.append(("maximizer", pts))
    # distance from the double zero to the maximizer stays under pi k/(2n) = pi/2
    dist = min(abs(t - double[0].theta) % (2 * math.pi) for t in pts) if double else math.inf
    dist = min(dist, 2 * math.pi - dist)
    if double and not (abs(dist - target) <= 1e-8 and dist < math.pi / 2):
        failures.append(("distance", dist))
    report(3, "double-zero counterexample instance", failures)


def test_criterion_04_sphere_gap_on_products():
    failures = []
    t0 = time.monotonic()
    for i in range(50):
        rng = np.random.default_rng(9000 + i)
        d = 2 if i % 2 == 0 else 3
        m = int(rng.integers(1, 7))
        poly, forms = random_affine_product(rng, d, m)
        rep = verify_sphere_gap(poly, seed=i, starts=96)
        # the oracle distance is the closed-form minimum over the factors
        oracle = min(
            abs(math.asin(float(np.clip(f.normal @ rep.maximizer, -1, 1))) - math.asin(f.offset))
            for f in forms
        )
        if abs(rep.distance - oracle) > 1e-9:
            failures.append((i, "oracle mismatch", rep.distance, oracle))
        if not rep.passed or rep.distance < math.pi / (2 * m) - 1e-6:
            failures.append((i, d, m, rep.distance, rep.bound))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report(4, f"sphere gap on 50 affine products ({elapsed:.1f}s)", failures)


def test_criterion_05_chebyshev_convergence():
    failures = []
    rep = convergence_report(2, [20, 40, 100, 200], 5.0)
    e1, e2 = rep.scaled_cheb_errors, rep.tail_errors
    if not all(a > b for a, b in zip(e1, e1[1:])):
        failures.append(("not decreasing", e1))
    if not e1[2] < 1e-2:
        failures.append(("k=100 cosine error", e1[2]))
    if not e2[3] < 1e-3:
        failures.append(("k=200 tail error", e2[3]))
    report(5, "scaled Chebyshev and tail convergence", failures)


def test_criterion_06_multiplier_structure():
    failures = []
    for n in range(1, 21):
        xs = np.linspace(0.0, 1 + 1 / n - 1e-6, 4001)
        vals = ball_multiplier(n, xs)
        if not np.array_equal(vals, ball_multiplier(n, -xs)):
            failures.append((n, "evenness"))
        if not np.all(vals > 0):
            failures.append((n, "zero inside the safe interval"))
        target = 1 + 1 / n
        root = brentq(lambda x: ball_multiplier(n, x), target - 1e-3, target + 1e-3, xtol=1e-14)
        if abs(root - target) > 1e-9:
            failures.append((n, "first zero", root))
        # closed form versus 1e4-term truncated product with analytic tail
        grid = np.linspace(0.05, 3.0, 40)
        sing = (
            [(2 * i - 1) * math.pi / 2 for i in range(1, n // 2 + 1)]
            if n % 2 == 0
            else [i * math.pi for i in range(1, (n - 1) // 2 + 1)]
        )
        keep = np.array([x for x in grid if all(abs(x - s) > 1e-3 for s in sing)])
        got = trig_tail_product(n, keep)
        ref = truncated_tail_product(n, keep, terms=10_000)
        if not np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref)):
            failures.append((n, "truncated product oracle"))
    report(6, "multiplier evenness, positivity, first zero", failures)


def test_criterion_07_ball_multiplier_procedure():
    failures = []
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(1, 6))
        poly, forms = random_affine_product(rng, d, n)
        pt, dist = multiplier_point(poly, seed=i)
        oracle = min(abs(float(f.normal @ pt) - f.offset) for f in forms)
        if abs(dist - oracle) > 1e-9:
            failures.append((i, "oracle mismatch"))
        if dist < 1 / n - 1e-6:
            failures.append((i, d, n, dist))
    for n in range(1, 9):
        pt, dist = multiplier_point(cheb_poly_1d(n), seed=0)
        roots = np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n))
        oracle = float(np.min(np.abs(roots - pt[0])))
        if abs(dist - oracle) > 1e-9:
            failures.append((n, "chebyshev oracle mismatch"))
        if dist < 1 / n - 1e-6:
            failures.append((n, "chebyshev distance", dist))
        naive = 1 - math.cos(math.pi / (2 * n))
        naive_oracle = float(np.min(np.abs(roots - 1.0)))
        if abs(naive - naive_oracle) > 1e-12:
            failures.append((n, "naive distance identity"))
        if n >= 2 and not dist > naive:
            failures.append((n, "no improvement over naive"))
    report(7, "ball multiplier distance >= 1/n", failures)


def test_criterion_08_ball_pair_procedure():
    failures = []
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        d = 2 if i % 2 == 0 else 3
        n = int(rng.integers(1, 6))
        poly, _ = random_affine_product(rng, d, n)
        cert = pair_point(poly, seed=i)
        if abs(cert.p @ cert.p + cert.q @ cert.q - 1.0) > 1e-10:
            failures.append((i, "norm identity"))
        if cert.sphere_distance < math.pi / (4 * n) - 1e-6:
            failures.append((i, "sphere bound", cert.sphere_distance))
        if cert.ball_distance < 1 / (8 * n) - 1e-6:
            failures.append((i, "ball bound", cert.ball_distance))
    for n in range(1, 9):
        cert = pair_point(cheb_poly_1d(n), seed=0)
        if abs(cert.p @ cert.p + cert.q @ cert.q - 1.0) > 1e-10:
            failures.append((n, "chebyshev norm identity"))
        if cert.sphere_distance < math.pi / (4 * n) - 1e-6:
            failures.append((n, "chebyshev sphere bound", cert.sphere_distance))
        if cert.ball_distance < 1 / (8 * n) - 1e-6:
            failures.append((n, "chebyshev ball bound", cert.ball_distance))
    report(8, "ball pair certificates", failures)


def test_criterion_09_complex_suite():
    failures = []
    rep = verify_complex_gap(ComplexHomogPoly(2, {(1, 1): 1.0}), seed=0)
    if abs(rep.distances[0] - math.asin(1 / math.sqrt(2))) > 1e-8:
        failures.append(("balanced product equality", rep.distances[0]))
    for i in range(30):
        rng = np.random.default_rng(600 + i)
        m = int(rng.integers(1, 7))
        rows = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        poly = ComplexHomogPoly.from_linear_product(rows)
        rep = verify_complex_gap(poly, seed=i)
        if not rep.all_passed or rep.distances[0] < math.asin(1 / math.sqrt(m)) - 1e-6:
            failures.append((i, m, rep.distances[0]))
    for n in range(2, 7):
        a = chart_radius_check(ComplexHomogPoly(2, {(1, n - 1): 1.0}), np.array([0.0, 1.0 + 0j]), seed=n)
        if abs(a * a - 1 / (n - 1)) > 1e-6:
            failures.append((n, "chart radius", a * a))
    system = WeightedSystem(
        [
            (ComplexHomogPoly(2, {(1, 0): 1.0}), 0.6),
            (ComplexHomogPoly(2, {(0, 1): 1.0}), 0.8),
        ]
    )
    wrep = verify_weighted_gap(system, seed=0)
    for dist, delta in zip(wrep.distances, (0.6, 0.8)):
        if dist < math.asin(delta) - 1e-6:
            failures.append(("weighted", delta, dist))
    report(9, "complex gap, chart radius, weighted family", failures)


def random_segment_family(rng):
    N = int(rng.integers(8, 17))
    max_units = int(0.95 * math.pi * N) - 1
    nseg = int(rng.integers(2, 6))
    segs, total_units = [], 0
    for i in range(nseg):
        room = max_units - total_units - (nseg - i - 1)
        if room < 1:
            break
        u = int(rng.integers(1, max(2, min(room, max_units // nseg)) + 1))
        total_units += u
        a = rng.standard_normal(3)
        segs.append(SphericalSegment(a, rng.uniform(-0.6, 0.6), u / (2 * N)))
    return segs


def test_criterion_10_sphere_covering_refuter():
    failures = []
    zones = [SphericalSegment(np.eye(3)[i], 0.0, 0.4) for i in range(3)]
    res = refute_cover_sphere(zones, seed=0)
    expected = math.asin(1 / math.sqrt(3)) - 0.4  # 0.2154797
    if min(res.clearances) < expected - 1e-6:
        failures.append(("orthogonal zones", min(res.clearances), expected))
    for i in range(20):
        rng = np.random.default_rng(5000 + i)
        segs = random_segment_family(rng)
        try:
            r = refute_cover_sphere(segs, seed=i)
        except Exception as exc:  # refuter must succeed on every family
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        if sum(s.width for s in segs) > 0.95 * math.pi + 1e-12:
            failures.append((i, "generator produced too much width"))
        if any(s.contains(r.point) for s in segs):
            failures.append((i, "membership check failed"))
    report(10, "sphere covering refuter", failures)


def test_criterion_11_ball_covering_refuter():
    failures = []
    for i in range(10):
        rng = np.random.default_rng(4000 + i)
        d = 2 if i % 2 == 0 else 3
        M = int(rng.integers(6, 13))
        nplank = int(rng.integers(1, 4))
        max_units = int(0.9 * M)
        planks, used = [], 0
        for j in range(nplank):
            room = max_units - used - (nplank - j - 1)
            if room < 1:
                break
            u = int(rng.integers(1, room + 1))
            used += u
            planks.append(Plank(rng.standard_normal(d), rng.uniform(-0.5, 0.5), u / M))
        if sum(p.width for p in planks) > 1.8 + 1e-12:
            failures.append((i, "generator produced too much width"))
            continue
        try:
            res = refute_cover_ball(planks)
        except Exception as exc:
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        if any(p.contains(res.point) for p in planks):
            failures.append((i, "membership check failed"))
        if np.linalg.norm(res.point) > 1 + 1e-9:
            failures.append((i, "point left the ball"))
    report(11, "ball covering refuter", failures)


def test_criterion_12_lifted_diagnostics():
    failures = []
    for n in range(1, 11):
        for k in range(n + 2, 201, 2):
            d = lifted_diagnostics(n, k)
            if d.count != k - n:
                failures.append((n, k, "count", d.count))
            if abs(d.spacing - 2 / n) > 1e-9:
                failures.append((n, k, "spacing", d.spacing))
            if abs(d.cap_radius - (1 + 1 / n)) > 1e-9:
                failures.append((n, k, "cap radius", d.cap_radius))
    report(12, "lifted sphere diagnostics", failures)
