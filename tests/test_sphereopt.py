import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from zerogap import ballfinder, complexproj, sphereopt
from zerogap.cli import _report
from zerogap.polycore import AffineForm, MultiPoly, _term_jet, product_of_affine_forms
from zerogap.sphereopt import (
    GAIN_FLOOR,
    LOG_FLOOR,
    _batch_ascent,
    _log_objective,
    _nearest_slice_point,
    _newton_polish,
    _sphere_tangent,
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    slice_distance,
    sphere_starts,
    unit_vector,
    verify_sphere_gap,
)

from _oracles import (
    dedupe_points_loop,
    great_circle_zero_distance,
    product_with_itself,
    ray_zero_distance,
    row_by_row_lifted_starts,
    row_by_row_sphere_starts,
    slice_min_angle_bruteforce,
)
from test_newton_polish import run_search_cycle

import workloads  # on the path that test_newton_polish sets


def random_form_product(rng, d, m, max_offset=0.9):
    forms = []
    for _ in range(m):
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(d)
        forms.append(AffineForm(a, rng.uniform(-max_offset, max_offset)))
    return product_of_affine_forms(forms), forms


def log_max_on_circle(forms, samples=2**16, chunk=2048):
    """max of log|P| over ``samples`` equally spaced angles for a product of
    forms in two variables, ``chunk`` angles at a time."""
    A = np.array([f.normal for f in forms])
    b = np.array([f.offset for f in forms])
    best = -np.inf
    for start in range(0, samples, chunk):
        t = 2.0 * np.pi * np.arange(start, min(start + chunk, samples)) / samples
        logs = np.sum(np.log(np.abs(np.column_stack([np.cos(t), np.sin(t)]) @ A.T - b)), axis=1)
        best = max(best, float(np.max(logs)))
    return best


class TestMaximize:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coordinate_function(self, d):
        p = MultiPoly(d, {(1,) + (0,) * (d - 1): 1.0})
        res = maximize_abs_on_sphere(p, seed=1)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert abs(res.point[0]) == pytest.approx(1.0, abs=1e-9)

    def test_product_two_coordinates_d2(self):
        res = maximize_abs_on_sphere(MultiPoly(2, {(1, 1): 1.0}))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in res.near_maximizers)
        expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        assert np.allclose(angles, expected, atol=1e-9)

    def test_product_three_coordinates_d3(self):
        res = maximize_abs_on_sphere(MultiPoly(3, {(1, 1, 1): 1.0}), seed=0)
        assert res.value == pytest.approx(3.0 ** -1.5, rel=1e-10)
        assert np.allclose(np.abs(res.point), 1 / math.sqrt(3), atol=1e-8)

    def test_certified_d2_matches_grid(self):
        rng = np.random.default_rng(4)
        terms = {
            (2, 0): rng.standard_normal(),
            (1, 1): rng.standard_normal(),
            (0, 2): rng.standard_normal(),
            (1, 0): rng.standard_normal(),
            (0, 0): 0.1,
        }
        p = MultiPoly(2, terms)
        res = maximize_abs_on_sphere(p)
        thetas = np.linspace(0, 2 * math.pi, 400_001)
        grid_max = np.max(np.abs(p.eval(np.column_stack([np.cos(thetas), np.sin(thetas)]))))
        assert res.value == pytest.approx(grid_max, rel=1e-9)

    def test_vanishing_on_sphere_rejected(self):
        p = MultiPoly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
        with pytest.raises(ValueError):
            maximize_abs_on_sphere(p)

    def test_deterministic_given_seed(self):
        p = MultiPoly(3, {(2, 1, 0): 1.0, (0, 1, 2): -0.5, (1, 0, 0): 0.25})
        r1 = maximize_abs_on_sphere(p, starts=32, seed=7)
        r2 = maximize_abs_on_sphere(p, starts=32, seed=7)
        assert r1.value == r2.value
        assert np.array_equal(r1.point, r2.point)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            maximize_abs_on_sphere(MultiPoly(1, {(1,): 1.0}))


class TestSliceDistance:
    def test_pole_to_equator(self):
        assert slice_distance(AffineForm([1, 0, 0], 0.0), [1, 0, 0]) == pytest.approx(math.pi / 2)

    def test_point_on_slice(self):
        p = np.array([0.5, math.sqrt(0.75), 0.0])
        assert slice_distance(AffineForm([1, 0, 0], 0.5), p) == pytest.approx(0.0, abs=1e-12)

    def test_missing_slice_sentinel(self):
        assert slice_distance(AffineForm([1, 0], 1.5), [0, 1]) == math.inf

    def test_tangent_slice_is_a_point(self):
        # |b| = 1: the slice is the single point b*a, not empty
        assert slice_distance(AffineForm([0, 1], 1.0), [1, 0]) == pytest.approx(math.pi / 2)
        t = 0.3
        p2 = [math.cos(t), math.sin(t)]
        assert slice_distance(AffineForm([0, 1], 1.0), p2) == pytest.approx(math.pi / 2 - t)
        assert slice_distance(AffineForm([1, 0, 0], 1.0), [0, 1, 0]) == pytest.approx(math.pi / 2)
        assert slice_distance(AffineForm([0, 0, 1], -1.0), [0, 0, 1]) == pytest.approx(math.pi)
        poly = product_of_affine_forms([AffineForm([1, 0, 0], 1.0)])
        assert angular_distance_to_zero_set(poly, [0, 1, 0])[0] == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bruteforce_parametrization(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(3)
        b = rng.uniform(-0.8, 0.8)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        form = AffineForm(a, b)
        ref = slice_min_angle_bruteforce(form.normal, b, p, samples=400_000, seed=seed)
        assert slice_distance(form, p) == pytest.approx(ref, abs=1e-8)

    def test_zero_distance_iff_on_slice(self):
        rng = np.random.default_rng(10)
        form = AffineForm(rng.standard_normal(3), 0.3)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        d = slice_distance(form, p)
        on_slice = abs(form.normal @ p - 0.3) < 1e-9
        assert (d < 1e-9) == on_slice


class TestAngularDistance:
    def test_d2_product_at_diagonal(self):
        p = MultiPoly(2, {(1, 1): 1.0})
        x = np.array([1.0, 1.0]) / math.sqrt(2)
        assert angular_distance_to_zero_set(p, x)[0] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_tagged_product_d3(self):
        poly = product_of_affine_forms(
            [AffineForm([1, 0, 0], 0), AffineForm([0, 1, 0], 0), AffineForm([0, 0, 1], 0)]
        )
        x = np.ones(3) / math.sqrt(3)
        assert angular_distance_to_zero_set(poly, x)[0] == pytest.approx(
            math.asin(1 / math.sqrt(3)), abs=1e-12
        )

    def test_no_real_zeros_sentinel(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        assert angular_distance_to_zero_set(p, np.array([1.0, 0.0])) == (math.inf, None)

    def test_untagged_d3_matches_closed_form(self, monkeypatch):
        monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", 24)
        p = MultiPoly(3, {(1, 1, 1): 1.0})
        x = np.ones(3) / math.sqrt(3)
        d, _ = angular_distance_to_zero_set(p, x, seed=0)
        assert d == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-7)

    def test_budget_monotonicity(self, monkeypatch):
        p = MultiPoly(3, {(2, 1, 0): 1.0, (0, 0, 2): -0.3})
        x = np.array([0.2, 0.5, 0.8])
        x /= np.linalg.norm(x)
        dists = []
        for b in (8, 16, 48):
            monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", b)
            dists.append(angular_distance_to_zero_set(p, x, seed=3)[0])
        assert dists[0] >= dists[1] - 1e-12
        assert dists[1] >= dists[2] - 1e-12


class TestVerifySphereGap:
    def test_equality_instance_pure_harmonic(self):
        n = 4
        forms = [
            AffineForm([math.cos(j * math.pi / n), math.sin(j * math.pi / n)], 0.0)
            for j in range(n)
        ]
        rep = verify_sphere_gap(product_of_affine_forms(forms))
        assert rep.passed
        assert rep.distance == pytest.approx(math.pi / (2 * n), abs=1e-9)
        assert rep.equality is not None
        assert rep.equality.interlacing is True

    def test_triple_product_d3(self):
        poly = product_of_affine_forms(
            [AffineForm([1, 0, 0], 0), AffineForm([0, 1, 0], 0), AffineForm([0, 0, 1], 0)]
        )
        rep = verify_sphere_gap(poly, seed=0)
        assert rep.passed
        assert rep.distance == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-8)
        assert rep.distance >= math.pi / 6 - 1e-6

    def test_empty_zero_set_passes(self):
        p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
        rep = verify_sphere_gap(p)
        assert rep.passed
        assert rep.distance == math.inf

    @pytest.mark.parametrize("seed", range(10))
    def test_random_products_meet_bound(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = 2 if seed % 2 == 0 else 3
        m = int(rng.integers(1, 7))
        poly, _ = random_form_product(rng, d, m)
        rep = verify_sphere_gap(poly, seed=seed, starts=96)
        assert rep.passed, f"d={d} m={m}: distance {rep.distance} < {rep.bound}"
        assert rep.distance >= math.pi / (2 * m) - 1e-6

    @pytest.mark.parametrize("k", [60, 200])
    @pytest.mark.parametrize("seed", range(10))
    def test_long_products_in_d2_reach_the_log_domain_maximum(self, seed, k):
        # expanded onto the circle, a product of k forms loses every digit:
        # the circle's maximum fell up to e^39 short and the gap check failed;
        # a factored product takes the engine, in the log domain
        poly, forms = random_form_product(np.random.default_rng(seed), 2, k)
        rep = verify_sphere_gap(poly, seed=seed)
        assert rep.passed, f"distance {rep.distance} < {rep.bound}"
        scan = log_max_on_circle(forms)
        assert maximize_abs_on_sphere(poly, seed=seed).log_value >= scan - 1e-9 * abs(scan)

    def test_report_independent_of_expansion(self):
        # reading the expanded terms must not change how the product is restricted
        rng = np.random.default_rng(4)
        forms = [AffineForm(rng.standard_normal(2), rng.uniform(-0.5, 0.5)) for _ in range(9)]
        poly = MultiPoly.from_affine_product(forms)
        before = _report(verify_sphere_gap(poly))
        poly.to_json()
        assert _report(verify_sphere_gap(poly)) == before
        assert _report(verify_sphere_gap(product_of_affine_forms(forms))) == before

    @pytest.mark.parametrize("k", range(4))
    def test_even_polynomial_reports_one_sign(self, k):
        # the ascent finds both x and -x; the report must not depend on which
        # of their distances rounds larger
        poly = rotated_quadric(np.random.default_rng(k), (1.0, 0.2, -0.6))
        for seed in range(5):
            rep = verify_sphere_gap(poly, seed=seed)
            x = rep.maximizer
            assert x[int(np.argmax(np.abs(x)))] > 0.0
            assert rep.distance == pytest.approx(math.acos(math.sqrt(0.375)), abs=1e-12)

    def test_sign_turned_pool_is_measured_once(self, monkeypatch):
        # the ascent finds the quadric's maximizers x and -x, which the sign
        # turn makes one point
        calls = []
        search = sphereopt._zero_distance_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(sphereopt, "_zero_distance_search", counted)
        poly = rotated_quadric(np.random.default_rng(1), (1.0, 0.2, -0.6))
        assert len(maximize_abs_on_sphere(poly, seed=1).near_maximizers) == 2
        rep = verify_sphere_gap(poly, seed=1)
        assert len(calls) == 1
        assert rep.distance == pytest.approx(math.acos(math.sqrt(0.375)), abs=1e-12)

    @pytest.mark.parametrize(
        "terms",
        [[([1, 1], 1.0)], [([2, 0], 1.0), ([0, 2], -1.0)], [([3, 1], 1.0), ([1, 3], -1.0), ([1, 0], 0.05)]],
        ids=["x1x2", "x1^2-x2^2", "quartic"],
    )
    def test_circle_zeros_found_once_per_pool(self, monkeypatch, terms):
        # in d = 2 the zeros of the restriction are placed once and every
        # distinct candidate of the pool is measured against them; the
        # restriction P keeps keeps them once found, so the count runs on a
        # fresh P: one placement of T''s critical points for the maximum and
        # one of T's zeros, whatever the size of the pool
        poly = MultiPoly(2, {tuple(e): c for e, c in terms})
        pool = sphereopt._dedupe_points(
            sphereopt._canonical_signs(poly, maximize_abs_on_sphere(poly).near_maximizers)
        )
        assert poly.affine_factors is None and len(pool) >= 2
        expected = max(angular_distance_to_zero_set(poly, p)[0] for p in pool)
        poly = MultiPoly(2, {tuple(e): c for e, c in terms})
        placed, original = [], sphereopt.trigcircle._placed_zeros
        monkeypatch.setattr(sphereopt.trigcircle, "_placed_zeros", lambda *args: placed.append(1) or original(*args))
        rep = verify_sphere_gap(poly)
        assert len(placed) == 2
        assert rep.distance == expected

    def test_farthest_scores_each_distinct_point_once(self):
        # near-copies (within 1e-7) are dropped in pool order; of the points
        # with the largest score the first is kept
        pool = [np.array([1.0, 0.0]), np.array([1.0, 1e-9]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
        seen = []

        def score(p):
            seen.append(p)
            return abs(p[0]), "tag"

        best, point = sphereopt._farthest(pool, score)
        assert best == (1.0, "tag") and point is pool[0]
        assert [id(p) for p in seen] == [id(pool[0]), id(pool[2]), id(pool[3])]

    @pytest.mark.parametrize("seed", range(8))
    def test_dedupe_matches_pairwise_loop(self, seed):
        # pools of distinct points, each copied at 0.5 tol, tol (1 - 1e-6) and
        # tol (1 + 1e-6) in a random direction, shuffled: the first kept in
        # order and the strict > tol rule, as one norm per pair gives them
        rng = np.random.default_rng(seed)
        tol = 1e-7
        d = int(rng.integers(1, 7))
        base = rng.standard_normal((int(rng.integers(1, 12)), d))
        copies = [base]
        for scale in (0.5, 1.0 - 1e-6, 1.0 + 1e-6):
            u = rng.standard_normal(base.shape)
            copies.append(base + scale * tol * u / np.linalg.norm(u, axis=1, keepdims=True))
        pool = list(np.vstack(copies)[rng.permutation(4 * len(base))])
        if seed % 2:
            pool = [p.astype(complex) * np.exp(1j * seed) for p in pool]
        ours, theirs = sphereopt._dedupe_points(pool), dedupe_points_loop(pool)
        assert [id(p) for p in ours] == [id(p) for p in theirs]
        assert len(base) <= len(ours) < len(pool)
        assert sphereopt._dedupe_points([]) == []

    def test_sign_symmetry_from_parity(self):
        assert sphereopt._sign_symmetric(MultiPoly(3, {(2, 0, 0): 1.0, (0, 1, 1): -2.0, (0, 0, 0): 0.5}))
        assert sphereopt._sign_symmetric(MultiPoly(2, {(3, 0): 1.0, (1, 0): -2.0}))
        assert not sphereopt._sign_symmetric(MultiPoly(2, {(2, 0): 1.0, (1, 0): 0.3}))
        through_origin = [AffineForm([1.0, 2.0], 0.0), AffineForm([0.5, -1.0], 0.0)]
        assert sphereopt._sign_symmetric(product_of_affine_forms(through_origin))
        shifted = product_of_affine_forms(through_origin + [AffineForm([1.0, 1.0], 0.2)])
        assert not sphereopt._sign_symmetric(shifted)
        assert shifted._terms is None  # decided from the factors

    @pytest.mark.parametrize(
        "forms,symmetric",
        [
            ([AffineForm([1.0, 2.0, 0.5], 0.3), AffineForm([1.0, 2.0, 0.5], -0.3)], True),
            ([AffineForm([1.0, 2.0, 0.5], 0.3), AffineForm([-1.0, -2.0, -0.5], 0.3)], True),
            (
                [AffineForm([0.0, -1.0, 1.0], 0.4), AffineForm([0.0, 1.0, -1.0], 0.4), AffineForm([1.0, 0.0, 1.0], 0.0)],
                True,
            ),
            ([AffineForm([1.0, 2.0, 0.5], 0.3), AffineForm([1.0, 2.0, 0.5], -0.2)], False),
            ([AffineForm([1.0, 2.0, 0.5], 0.3), AffineForm([1.0, -2.0, 0.5], -0.3)], False),
        ],
    )
    def test_sign_symmetry_of_slab_products(self, forms, symmetric):
        # the two sides of a slab centred at the origin pair up under x -> -x;
        # the factors must give the verdict that the term parity gives
        poly = product_of_affine_forms(forms)
        assert sphereopt._sign_symmetric(poly) is symmetric
        assert poly._terms is None
        assert sphereopt._sign_symmetric(MultiPoly(3, dict(poly.terms))) is symmetric

    def test_slab_product_reports_one_sign(self):
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
        a, c = q @ [1.0, 0.0, 0.0], q @ [0.0, 1.0, 0.0]
        poly = product_of_affine_forms([AffineForm(a, 0.4), AffineForm(-a, 0.4), AffineForm(c, 0.0)])
        for seed in range(5):
            x = verify_sphere_gap(poly, seed=seed).maximizer
            assert x[int(np.argmax(np.abs(x)))] > 0.0

    def test_uneven_polynomial_keeps_its_sign(self):
        # P(-x) != +-P(x): a maximizer with a negative largest coordinate stays
        poly = product_of_affine_forms([AffineForm([1.0, 0.0], -0.5)])  # x + 0.5, largest at (1, 0)
        rep = verify_sphere_gap(poly, seed=0)
        assert rep.maximizer[0] > 0.99
        poly = product_of_affine_forms([AffineForm([1.0, 0.0], 0.5)])  # x - 0.5, largest at (-1, 0)
        rep = verify_sphere_gap(poly, seed=0)
        assert rep.maximizer[0] < -0.99

    @pytest.mark.parametrize(
        "poly, met",
        [
            (MultiPoly(2, {(1, 1): 1.0}), True),  # the bound is met: the equality case is attached
            (MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.3, (0, 2): -0.2, (1, 0): 0.4}), False),
            (MultiPoly(2, {(3, 0): 1.0, (0, 3): 1.0}), False),
        ],
        ids=["xy", "quadric", "cubic"],
    )
    def test_dimension_two_restricts_to_the_circle_once(self, poly, met, monkeypatch):
        # the maximum, the zeros of P on the unit circle and the equality
        # case's interlacing all come from the one restriction P keeps
        planes, original = [], sphereopt.restrict_to_circle
        monkeypatch.setattr(sphereopt, "restrict_to_circle", lambda *args: planes.append(args[1]) or original(*args))
        rep = verify_sphere_gap(poly)
        assert len(planes) == 1 and (rep.equality is not None) == met
        assert np.array_equal(planes[0].u, [1.0, 0.0]) and np.array_equal(planes[0].v, [0.0, 1.0])
        if met:
            # the equality circle's own restriction gives the same diagnostic
            assert rep.equality.interlacing
            assert sphereopt.trigcircle.interlacing_check(original(poly, rep.equality.circle))[0]

    def test_plane_polynomial_keeps_its_restriction_and_zeros(self, monkeypatch):
        # P keeps its one restriction to the circle, and the restriction its
        # zeros and maxima: the maximum and then the gap check on the same P
        # restrict once and prove T''s brackets and T's once each
        poly = MultiPoly(2, {(3, 1): 1.0, (1, 3): -1.0, (1, 0): 0.05})
        restricted, proved = [], []
        restrict, brackets = sphereopt.restrict_to_circle, sphereopt.trigcircle._grid_brackets
        monkeypatch.setattr(sphereopt, "restrict_to_circle", lambda *args: restricted.append(1) or restrict(*args))
        monkeypatch.setattr(sphereopt.trigcircle, "_grid_brackets", lambda *args: proved.append(1) or brackets(*args))
        res = maximize_abs_on_sphere(poly)
        rep = verify_sphere_gap(poly)
        assert rep.equality is None and rep.value == res.value
        assert len(restricted) == 1 and len(proved) == 2

    def test_equality_case_proves_the_critical_points_once(self, monkeypatch):
        # on x y the gap meets the bound, and the equality case's interlacing
        # reads the maxima the restriction P keeps: T''s brackets are proved
        # once, for the maximum, and T's once, for the zeros
        poly = MultiPoly(2, {(1, 1): 1.0})
        critical, proved = [], []
        points, brackets = sphereopt.trigcircle._critical_points, sphereopt.trigcircle._grid_brackets
        monkeypatch.setattr(sphereopt.trigcircle, "_critical_points", lambda T: critical.append(1) or points(T))
        monkeypatch.setattr(sphereopt.trigcircle, "_grid_brackets", lambda *args: proved.append(1) or brackets(*args))
        rep = verify_sphere_gap(poly)
        assert rep.equality is not None and rep.equality.interlacing
        assert len(critical) == 1 and len(proved) == 2

    @pytest.mark.parametrize(
        "poly",
        [
            product_of_affine_forms([AffineForm([1.0, 0.2, 0.0], 0.1), AffineForm([0.0, 1.0, 0.5], -0.2)]),
            MultiPoly(2, {(3, 1): 1.0, (1, 3): -1.0, (1, 0): 0.05}),
            MultiPoly(3, {(2, 0, 0): 1.0, (0, 1, 1): 0.7, (0, 0, 2): -0.4}),
        ],
        ids=["tagged", "circle", "search"],
    )
    def test_every_distance_measured_by_the_public_function(self, poly, monkeypatch):
        # angular_distance_to_zero_set is the one route to a sphere distance,
        # whichever of its three branches serves P
        dists, original = [], sphereopt.angular_distance_to_zero_set

        def counted(P, p, seed=0):
            assert P is poly
            dists.append(original(P, p, seed))
            return dists[-1]

        monkeypatch.setattr(sphereopt, "angular_distance_to_zero_set", counted)
        rep = verify_sphere_gap(poly, starts=16)
        assert dists and rep.distance == max(d for d, _ in dists)

    def test_report_json_shape(self):
        rep = verify_sphere_gap(MultiPoly(2, {(1, 1): 1.0}))
        obj = _report(rep)
        assert set(obj) == {"degree", "maximizer", "value", "distance", "bound", "passed", "equality"}
        assert obj["equality"] is not None and obj["equality"]["interlacing"] is True


def assert_near_max_contract(value, X, best, pool):
    """The pool that ``_near_max`` made of the rows X: best value first, then
    decreasing value and coordinates on ties; every point within relative
    NEAR_MAX_REL of the best; no two within 1e-7; every near-maximal row kept
    or within 1e-7 of a kept point."""
    logs = value(X)
    floor = best + math.log1p(-sphereopt.NEAR_MAX_REL)
    idx = [next(i for i in range(len(X)) if np.array_equal(X[i], p)) for p in pool]
    assert best == np.max(logs) == logs[idx[0]]
    assert np.all(logs[idx] >= floor)
    keys = [(-logs[i], tuple(X[i])) for i in idx]
    assert keys == sorted(keys)
    assert min((np.linalg.norm(a - b) for i, a in enumerate(pool) for b in pool[:i]), default=math.inf) > 1e-7
    assert all(min(np.linalg.norm(X[i] - p) for p in pool) <= 1e-7 for i in np.flatnonzero(logs >= floor))


@pytest.fixture
def near_max_calls(monkeypatch):
    """(value, rows, best, pool) of every ``_near_max`` call."""
    calls = []
    original = sphereopt._near_max

    def record(value, X):
        best, pool = original(value, X)
        calls.append((value, X.copy(), best, pool))
        return best, pool

    monkeypatch.setattr(sphereopt, "_near_max", record)
    return calls


class TestNearMaxPool:
    """Every pool builder ends with ``sphereopt._near_max``."""

    def test_order_filter_and_dedupe(self):
        # exact ties at value 0 are ordered by coordinates, the copy of
        # (1, 0) within 1e-7 is dropped, and (0.5, 0) is not near-maximal
        def value(X):
            return -np.abs(np.linalg.norm(X, axis=1) - 1.0)

        X = np.array([[1.0 + 1e-9, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        best, pool = sphereopt._near_max(value, X)
        assert best == 0.0
        assert [p.tolist() for p in pool] == [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert_near_max_contract(value, X, best, pool)

    def test_vanishing_objective_rejected(self):
        with pytest.raises(ValueError, match="vanishes at every candidate"):
            sphereopt._near_max(lambda X: np.full(len(X), LOG_FLOOR), np.eye(3))

    @pytest.mark.parametrize(
        "poly",
        [
            MultiPoly(3, {(1, 1, 1): 1.0}),
            MultiPoly(4, {(2, 0, 0, 0): 1.0, (0, 1, 1, 0): -0.5, (0, 0, 0, 2): 0.3}),
        ],
        ids=["xyz", "quadric-d4"],
    )
    def test_sphere(self, poly, near_max_calls):
        res = maximize_abs_on_sphere(poly)
        [(value, X, best, pool)] = near_max_calls
        assert len(pool) > 1
        assert_near_max_contract(value, X, best, pool)
        assert res.log_value == best and np.array_equal(res.near_maximizers, pool)

    @pytest.mark.parametrize(
        "poly",
        [
            MultiPoly(1, {(3,): 4.0, (1,): -3.0}),
            MultiPoly(2, {(1, 1): 1.0}),
            MultiPoly(3, {(1, 1, 1): 1.0}),
        ],
        ids=["T3-d1", "xy-d2", "xyz-d3"],
    )
    def test_ball(self, poly, near_max_calls):
        # the pool of the sphere S^d that lifts the ball, read as points x = y[:d]
        pool = ballfinder._multiplier_pool(poly, 0, 64)
        [(value, Y, best, recorded)] = near_max_calls
        assert Y.shape[1] == poly.dim + 1 and len(pool) > 1
        assert np.array_equal(pool, [y[: poly.dim] for y in recorded])
        assert_near_max_contract(value, Y, best, recorded)

    @pytest.mark.parametrize("dim, exps", [(2, (1, 1)), (3, (1, 1, 1))], ids=["C2", "C3"])
    def test_complex(self, dim, exps, near_max_calls):
        poly = complexproj.ComplexHomogPoly(dim, {exps: 1.0, (sum(exps),) + (0,) * (dim - 1): 0.3j})
        items = complexproj._maximize_items(((poly, 1.0),), 64, 0)
        [(value, X, best, pool)] = near_max_calls
        assert len(pool) > 1
        assert_near_max_contract(value, X, best, pool)
        # _maximize_items keeps the pool in the engine's order, by decreasing value
        assert np.array_equal(items, pool)


class TestStarts:
    def test_starts_are_unit_and_deterministic(self):
        a = sphere_starts(4, 33, 5)
        b = sphere_starts(4, 33, 5)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_prefix_property(self):
        small = sphere_starts(3, 8, 1)
        big = sphere_starts(3, 16, 1)
        assert np.array_equal(small, big[:8])


def assert_starts_match(actual, expected):
    # same stream, same order; only the summation order of a row's norm differs
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=0)


class TestStartGenerator:
    """The start points against an oracle that draws one Gaussian row of the
    PCG64 stream at a time and divides it by an exactly rounded norm."""

    @pytest.mark.parametrize("dim", [*range(1, 13), 24])
    def test_starts_match_the_row_by_row_stream(self, dim):
        # counts: the default --starts and zero-search seeds (64), the complex
        # sample (128), the scale sample (256), 4 m for a refutation of m pieces
        for count, seed in itertools.product((1, 2, 8, 31, 64, 100, 128, 256, 800), (0, 3, 11)):
            assert_starts_match(sphere_starts(dim, count, seed), row_by_row_sphere_starts(dim, count, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11, 2**32 - 1])
    def test_starts_above_1111_dimensions(self, seed):
        # the old generator's cap is gone: R^1112 draws the same stream
        for m in range(1, 11):
            assert_starts_match(sphere_starts(1112, 2**m, seed), row_by_row_sphere_starts(1112, 2**m, seed))

    @pytest.mark.parametrize("dim", [*range(1, 13), 24])
    def test_starts_are_uniform(self, dim):
        # the first and second moments of the uniform law on S^(dim-1): mean 0
        # and E[x x^T] = I / dim, to within a few standard errors of 4096 points
        X = sphere_starts(dim, 4096, 7)
        assert np.all(np.abs(X.mean(axis=0)) < 5.0 / math.sqrt(4096))
        second = X.T @ X / len(X)
        assert np.all(np.abs(second - np.eye(dim) / dim) < 5.0 / (dim * math.sqrt(4096)))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_starts_of_a_search_cycle_match_the_row_by_row_stream(self, seed, monkeypatch, tmp_path):
        # every start a search cycle draws, and the candidate rows that each
        # multiplier search in several variables hands to near_max_on_sphere
        # (the pair hands over sphere_starts rows, which are among the first)
        calls, pools, candidates, inside = set(), [], [], []
        for module in (sphereopt, ballfinder, complexproj):
            monkeypatch.setattr(module, "sphere_starts", lambda *args: calls.add(args) or sphere_starts(*args))
        pool, near_max = ballfinder._multiplier_pool, ballfinder.near_max_on_sphere

        def multiplier_pool(*args):
            pools.append(args)
            inside.append(args)
            X = pool(*args)
            inside.pop()
            return X

        monkeypatch.setattr(ballfinder, "_multiplier_pool", multiplier_pool)
        monkeypatch.setattr(
            ballfinder, "near_max_on_sphere", lambda *args: (inside and candidates.append(args[2])) or near_max(*args)
        )
        run_search_cycle(seed, tmp_path)
        assert calls
        for args in calls:
            assert_starts_match(sphere_starts(*args), row_by_row_sphere_starts(*args))
        lifted = [(p.dim, 2 * starts, s) for p, s, starts in pools if p.dim >= 2]
        assert lifted and len(lifted) == len(candidates)
        for args, X in zip(lifted, candidates):
            assert_starts_match(X, row_by_row_lifted_starts(*args))

    def test_any_dimension(self):
        # no dimension cap: 8 unit rows in R^1112, with no ascent run there
        X = sphere_starts(1112, 8, 0)
        assert X.shape == (8, 1112)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_lifted_starts(self, d, monkeypatch):
        # 2 starts rows of S^d folded into the upper hemisphere, then the
        # same rows moved to the equator t = 0, the rim of the ball
        candidates, near_max = [], ballfinder.near_max_on_sphere

        def record(value, grad, X, starts):
            candidates.append((X, starts))
            return near_max(value, grad, X, starts)

        monkeypatch.setattr(ballfinder, "near_max_on_sphere", record)
        ballfinder._multiplier_pool(factored_poly(d, 0), 2, 16)
        [(X, starts)] = candidates
        Y = sphere_starts(d + 1, 32, 2)
        assert starts == 16 and X.shape == (64, d + 1)
        assert np.array_equal(X[:32, :d], Y[:, :d]) and np.array_equal(X[:32, d], np.abs(Y[:, d]))
        assert np.all(X[32:, d] == 0.0)
        assert np.allclose(X[32:, :d], Y[:, :d] / np.linalg.norm(Y[:, :d], axis=1)[:, None], rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            sphere_starts(3, 8, -1)


# the iterations of the short ascent that near_max_on_sphere hands to the
# Newton polish (NEAR_MAX), and of the long one that ran before the polish was
# exact (LONG), which takes most rows to where the gain floor stops them
NEAR_MAX = sphereopt._ASCENT_ITERS
LONG = 160


def batch_ascent(value, grad, X, iters=NEAR_MAX):
    """``_batch_ascent`` run for ``iters`` iterations."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sphereopt, "_ASCENT_ITERS", iters)
        return _batch_ascent(value, grad, X)


def parent_loop_ascent(value, grad, X, iters=None):
    """The ascent before the gain floor, as a plain loop: every row with a
    nonzero gradient takes all its trial steps in every iteration, settled or
    not, until no row improves; ``iters`` defaults to ``_ASCENT_ITERS`` as
    read at the call."""
    return loop_ascent(value, grad, X, sphereopt._ASCENT_ITERS if iters is None else iters, gain_floor=False)


def loop_ascent(value, grad, X, iters, gain_floor=True, freeze=False):
    """Reference ascent on the sphere: every row with a nonzero tangent
    gradient G takes trial steps 0.5 / (1 + |G|), each a quarter of the last,
    up to 30, in every iteration, settled or not, until no row improves.
    With ``gain_floor`` a row leaves the backtracking before a trial whose
    first-order gain step |G|^2 is at most GAIN_FLOOR max(1, |f|), |f| read as
    1 at LOG_FLOOR.  With ``freeze`` only the rows that improved in the
    previous iteration take trials."""
    f = value(X)
    moving = np.ones(len(X), dtype=bool)
    for _ in range(iters):
        G = grad(X)
        G = G - np.sum(G * X, axis=1, keepdims=True) * X
        gnorm = np.linalg.norm(G, axis=1)
        live = (moving if freeze else True) & (gnorm >= 1e-12)
        if not np.any(live):
            break
        step = 0.5 / (1.0 + gnorm)
        floor = GAIN_FLOOR * np.where(f == LOG_FLOOR, 1.0, np.maximum(1.0, np.abs(f)))
        moving = np.zeros(len(X), dtype=bool)
        for _ in range(30):
            if gain_floor:
                live = live & (step * gnorm**2 > floor)
                if not np.any(live):
                    break
            trial = X + step[:, None] * G
            trial = trial / np.linalg.norm(trial, axis=1, keepdims=True)
            ft = value(trial)
            better = live & (ft > f)
            X = np.where(better[:, None], trial, X)
            f = np.where(better, ft, f)
            moving = moving | better
            live = live & ~better
            if not np.any(live):
                break
            step = step * 0.25
        if not np.any(moving):
            break
    return X, f


def assert_ascent_matches_loop(value, grad, X, iters):
    X1, f1 = batch_ascent(value, grad, X, iters)
    X0, f0 = loop_ascent(value, grad, X, iters)
    assert X1.shape == X0.shape and X1.tobytes() == X0.tobytes()
    assert f1.shape == f0.shape and f1.tobytes() == f0.tobytes()
    return X1, f1


QUADRIC = MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): 0.2, (0, 0, 2): -0.6, (1, 1, 0): 0.3})


def factored_poly(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    return random_form_product(rng, d, int(rng.integers(1, 7)))[0]


def weighted_c2_objective(seed):
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)) for n in (1, 2)]
    items = [(complexproj.ComplexHomogPoly.from_linear_product(r), 0.5) for r in rows]
    return _log_objective(items)


def lift(X):
    """Rows x of the ball as the rows (x, sqrt(1 - |x|^2)) of the upper hemisphere of S^d."""
    return np.hstack([X, np.sqrt(1.0 - np.sum(X * X, axis=1, keepdims=True))])


# (value, grad, starts) of the objective families the ascent serves:
# factored and expanded log|P| on the sphere, the multiplier objective on the
# sphere S^d that lifts the ball and weighted systems on the sphere of C^2
ASCENT_CASES = {
    **{
        f"factored-{d}-{s}": lambda d=d, s=s: (*_log_objective(((factored_poly(d, s), 1.0),)), sphere_starts(d, 64, s))
        for d in (3, 4, 5, 6)
        for s in (0, 1)
    },
    "expanded-quadric": lambda: (*_log_objective(((QUADRIC, 1.0),)), sphere_starts(3, 64, 4)),
    **{
        f"expanded-{d}": lambda d=d: (
            *_log_objective(((MultiPoly(d, dict(factored_poly(d, 0).terms)), 1.0),)),
            sphere_starts(d, 64, 4),
        )
        for d in (3, 4)
    },
    **{
        f"multiplier-{d}": lambda d=d: (
            *ballfinder._multiplier_objective(random_form_product(np.random.default_rng(d), d, 3)[0]),
            row_by_row_lifted_starts(d, 32, 5),
        )
        for d in (2, 3)
    },
    **{f"c2-{s}": lambda s=s: (*weighted_c2_objective(s), sphere_starts(4, 64, 7)) for s in (6, 8)},
}


class TestBatchAscentMatchesLoop:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_factored_objective(self, d, seed):
        assert_ascent_matches_loop(*ASCENT_CASES[f"factored-{d}-{seed}"](), LONG)

    def test_expanded_quadric_objective(self):
        assert QUADRIC.affine_factors is None
        assert_ascent_matches_loop(*ASCENT_CASES["expanded-quadric"](), LONG)

    @pytest.mark.parametrize("d", [2, 3])
    def test_multiplier_objective_on_the_lifted_sphere(self, d):
        assert_ascent_matches_loop(*ASCENT_CASES[f"multiplier-{d}"](), LONG)

    def test_weighted_c2_objective(self):
        assert_ascent_matches_loop(*ASCENT_CASES["c2-6"](), LONG)

    @pytest.mark.parametrize("name", sorted(ASCENT_CASES))
    def test_near_max_setting(self, name):
        # the short ascent of near_max_on_sphere, which stops rows still moving
        assert_ascent_matches_loop(*ASCENT_CASES[name](), NEAR_MAX)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_critical_and_zero_set_starts(self):
        # e1 is an exact critical point of log|x1| (zero tangent gradient);
        # e3 and (0, 0.6, 0.8) lie on {x1 = 0}, the zero set of x1 and of
        # x1 (x1 + x2 - 0.3), factored and expanded, and so do half of them
        # lifted from the ball.  There the gradient of log|P| is large but
        # finite, and the gain floor reads f = LOG_FLOOR as |f| = 1, so those
        # rows step off the zero set.
        x1 = AffineForm([1.0, 0.0, 0.0], 0.0)
        edge = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        X = np.vstack([edge, sphere_starts(3, 16, 8)])
        tagged = [product_of_affine_forms(f) for f in ([x1], [x1, AffineForm([1.0, 1.0, 0.0], 0.3)])]
        for poly in tagged + [MultiPoly(3, dict(t.terms)) for t in tagged]:
            lifted = (ballfinder._multiplier_objective(poly), lift(0.5 * X))
            for (value, grad), Y in ((_log_objective(((poly, 1.0),)), X), lifted):
                assert np.all(value(Y)[1:3] == LOG_FLOOR)
                assert np.all(np.isfinite(grad(Y)))
                _, f = assert_ascent_matches_loop(value, grad, Y, LONG)
                assert np.all(f[1:3] > LOG_FLOOR / 2)
        value, grad = _log_objective(((tagged[0], 1.0),))
        assert np.linalg.norm(_sphere_tangent(grad(X), X)[0]) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_objective_on_zero_set(self):
        # (0, 1) and (0, 0.8 + 0.6i) lie on {z1 = 0}, the zero set of the
        # first item; the gradient there is large but finite
        forms = complexproj.ComplexHomogPoly.from_linear_product
        value, grad = _log_objective([(forms([[1.0, 0.0]]), 0.7), (forms([[1.0, 1j]]), 0.7)])
        X = np.vstack([[[0.0, 1.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.6]], sphere_starts(4, 16, 3)])
        assert np.all(value(X)[:2] == LOG_FLOOR)
        assert np.all(np.isfinite(grad(X)))
        _, f = assert_ascent_matches_loop(value, grad, X, LONG)
        assert np.all(f[:2] > LOG_FLOOR / 2)

    @pytest.mark.parametrize("iters", [1, 2, 3, 7])
    def test_iteration_cap_while_rows_move(self, iters):
        poly, _ = random_form_product(np.random.default_rng(9), 4, 5)
        value, grad = _log_objective(((poly, 1.0),))
        X0 = sphere_starts(4, 64, 1)
        X, _ = assert_ascent_matches_loop(value, grad, X0, iters)
        # the cap stopped rows that were still moving
        longer, _ = batch_ascent(value, grad, X0, iters + 1)
        assert longer.tobytes() != X.tobytes()


def counted_objective(value, grad, log):
    """value/grad that append "v"/"g" to ``log`` on each call."""

    def counted_value(X):
        log.append("v")
        return value(X)

    def counted_grad(X):
        log.append("g")
        return grad(X)

    return counted_value, counted_grad


def value_calls_per_iteration(log):
    assert log[0] == "v"  # f at the starts
    counts = []
    for call in log[1:]:
        if call == "g":
            counts.append(0)
        else:
            counts[-1] += 1
    return counts


class TestBatchAscentWork:
    @pytest.mark.parametrize("where", ["sphere", "lifted-ball"])
    def test_settled_row_costs_nothing(self, where):
        d = 4
        poly, _ = random_form_product(np.random.default_rng(1), d, 4)
        if where == "sphere":
            value, grad = _log_objective(((poly, 1.0),))
            B, extra = sphere_starts(d, 31, 2), sphere_starts(d, 1, 9)
        else:
            value, grad = ballfinder._multiplier_objective(poly)
            B, extra = row_by_row_lifted_starts(d, 8, 2), lift(sphere_starts(d, 1, 9) * 0.5)
        # the ascents settle within 200 iterations (163 on the lifted ball)
        iters, backtracks = 200, 30
        # the last row of a finished ascent over a batch of the same shape has
        # settled: it failed all its backtracks in the final iteration
        log = []
        X, _ = batch_ascent(*counted_objective(value, grad, log), np.vstack([B, extra]), iters)
        assert len(value_calls_per_iteration(log)) < iters
        settled = X[-1]
        assert np.linalg.norm(_sphere_tangent(grad(X), X)[-1]) >= 1e-12

        base_log, ext_log = [], []
        Xb, fb = batch_ascent(*counted_objective(value, grad, base_log), B, iters)
        Xe, fe = batch_ascent(*counted_objective(value, grad, ext_log), np.vstack([B, settled]), iters)
        base = value_calls_per_iteration(base_log)
        ext = value_calls_per_iteration(ext_log)
        # in the first iteration the settled row fails the trials before its
        # own gain floor, fewer than ``backtracks`` (without the floor it would
        # fail them all); it is frozen after that and costs no value call
        g = np.linalg.norm(_sphere_tangent(grad(settled[None]), settled[None]))
        f = value(settled[None])[0]
        step, floor = 0.5 / (1.0 + g), GAIN_FLOOR * max(1.0, abs(f))
        own = sum(step * 0.25**j * g**2 > floor for j in range(backtracks))
        assert own < backtracks
        assert ext[0] == max(base[0], own)
        assert ext[1:] == base[1:]
        assert min(base[1:]) < backtracks
        assert Xe[-1].tobytes() == settled.tobytes()
        assert Xe[:-1].tobytes() == Xb.tobytes() and fe[:-1].tobytes() == fb.tobytes()
        for log, counts in ((base_log, base), (ext_log, ext)):
            # one grad call per iteration, each followed by at least one trial
            assert log.count("g") == len(counts) <= iters
            assert min(counts) >= 1
            assert log.count("v") <= 1 + len(counts) * backtracks


class TestGainFloor:
    """The ascent against the reference without the gain floor."""

    @pytest.mark.parametrize("name", sorted(ASCENT_CASES))
    def test_no_row_ends_lower(self, name):
        # leaving the backtracking at the rounding of f gives up at most a
        # rounding-sized gain per row
        value, grad, X = ASCENT_CASES[name]()
        _, f = batch_ascent(value, grad, X, LONG)
        _, f_ref = parent_loop_ascent(value, grad, X, LONG)
        assert np.all(f >= f_ref - 1e-12 * np.maximum(1.0, np.abs(f_ref)))

    @pytest.mark.parametrize("name", ["factored-3-0", "factored-4-1", "factored-5-0", "expanded-quadric", "c2-6"])
    def test_near_max_pool_unchanged(self, name, monkeypatch):
        value, grad, X = ASCENT_CASES[name]()
        starts = sphere_starts(X.shape[1], 4 * 64, 3)
        best, pool = sphereopt.near_max_on_sphere(value, grad, starts, 64)
        monkeypatch.setattr(sphereopt, "_batch_ascent", parent_loop_ascent)
        ref_best, ref = sphereopt.near_max_on_sphere(value, grad, starts, 64)
        assert len(pool) == len(ref)
        # the polish ends both at the same maximum, up to the rounding of f
        assert best == pytest.approx(ref_best, rel=0, abs=GAIN_FLOOR * max(1.0, abs(ref_best)))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_half_the_value_calls(self, d, seed):
        # the reference is the ascent before the gain floor: settled rows
        # frozen, failing rows trying all 30 trials
        value, grad, X = ASCENT_CASES[f"factored-{d}-{seed}"]()
        log, ref_log = [], []
        batch_ascent(*counted_objective(value, grad, log), X, LONG)
        loop_ascent(*counted_objective(value, grad, ref_log), X, LONG, gain_floor=False, freeze=True)
        assert log.count("v") <= 0.5 * ref_log.count("v")
        assert log.count("g") <= 1.05 * ref_log.count("g")


class TestPolishOnSphere:
    @pytest.mark.parametrize("k", range(4))
    def test_never_ends_below_its_start(self, k):
        # random starts and starts 1e-3 to 1e-9 off the zero set, where log|P|
        # is near its minima, polished in one lockstep batch; each row's start
        # is the start renormalised
        rng = np.random.default_rng(k)
        d = 3 + k % 3
        poly, forms = random_form_product(rng, d, k + 1, max_offset=0.8)
        starts = list(sphere_starts(d, 8, k))
        for f in forms:
            zero = _nearest_slice_point(f, unit_vector(rng.standard_normal(d)))
            starts += [unit_vector(zero + eps * rng.standard_normal(d)) for eps in (1e-3, 1e-6, 1e-9)]
        for P in (poly, MultiPoly(d, dict(poly.terms)), dense_poly(rng, d, 3)):
            value, grad = _log_objective(((P, 1.0),))
            X = _newton_polish(value, grad, np.array(starts))
            for x0, x in zip(starts, X):
                f0 = value(unit_vector(x0)[None, :])[0]
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-15
                # a Newton step is kept when it drops the value by at most
                # 1e-14 relative (rounding at a maximum)
                assert value(x[None, :])[0] >= f0 - 1e-14 * (1.0 + abs(f0))


def slsqp_zero_distance(poly, p, budget, seed):
    """Reference: one SLSQP solve per seed for the nearest zero to p on the
    sphere, with the seeds, scale and filter of the lockstep search."""
    d = poly.dim
    n_seeds = max(8, budget)
    seeds = sphere_starts(d, n_seeds, seed + 1)
    if d == 3:
        extra = sphere_starts(d, 512, seed + 2)
        vals = np.abs(poly.eval(extra))
        grads = np.linalg.norm(poly.gradient(extra), axis=1)
        score = vals / np.maximum(grads, 1e-12)
        seeds = np.vstack([seeds, extra[np.argsort(score)[: n_seeds // 2]]])
    scale = max(float(np.max(np.abs(poly.eval(sphere_starts(d, 256, seed + 3))))), 1e-300)

    cons = [
        {
            "type": "eq",
            "fun": lambda x: poly.eval(x) / scale,
            "jac": lambda x: poly.gradient(x) / scale,
        },
        {
            "type": "eq",
            "fun": lambda x: x @ x - 1.0,
            "jac": lambda x: 2.0 * x,
        },
    ]
    best = math.inf
    best_zero = None
    for x0 in seeds:
        res = minimize(
            lambda x: -(p @ x),
            x0,
            jac=lambda x: -p,
            method="SLSQP",
            constraints=cons,
            options={"maxiter": 120, "ftol": 1e-14},
        )
        x = res.x
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        x = x / nx
        if abs(poly.eval(x)) > 1e-8 * scale:
            continue
        dist = math.acos(float(np.clip(p @ x, -1.0, 1.0)))
        if dist < best:
            best, best_zero = dist, x
    return best, best_zero


def extra_seed_zero_distance(poly, p, seed, monkeypatch):
    """Reference: the lockstep search with 32 more seeds, the starts of 512
    further ones with the smallest |P| / |grad P|, appended to its own."""
    starts = sphereopt.sphere_starts

    def with_extra(dim, count, s):
        X = starts(dim, count, s)
        if (count, s) == (sphereopt._ZERO_SEARCH_SEEDS, seed + 1):
            extra = starts(dim, 512, seed + 2)
            score = np.abs(poly.eval(extra)) / np.maximum(np.linalg.norm(poly.gradient(extra), axis=1), 1e-12)
            X = np.vstack([X, extra[np.argsort(score)[: count // 2]]])
        return X

    with monkeypatch.context() as m:
        m.setattr(sphereopt, "sphere_starts", with_extra)
        return angular_distance_to_zero_set(poly, p, seed=seed)


def zero_set_scale(poly, seed):
    return max(float(np.max(np.abs(poly.eval(sphere_starts(poly.dim, 256, seed + 3))))), 1e-300)


def rotated_quadric(rng, spectrum):
    d = len(spectrum)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = q @ np.diag(spectrum) @ q.T
    terms = {}
    for i, j in itertools.combinations_with_replacement(range(d), 2):
        e = [0] * d
        e[i] += 1
        e[j] += 1
        terms[tuple(e)] = a[i, j] if i == j else 2.0 * a[i, j]
    return MultiPoly(d, terms)


def dense_poly(rng, d, n):
    exps = [e for e in itertools.product(range(n + 1), repeat=d) if sum(e) <= n]
    return MultiPoly(d, {e: rng.standard_normal() for e in exps})


# untagged d >= 3 polynomials: the benchmark quadric's spectrum turned three
# ways, a zero set with singular points, the doubled sphere of ball-pair, and
# dense polynomials of degree 2-4 in 3-5 variables
ZERO_SET_CORPUS = {
    **{
        f"quadric-{k}": lambda k=k: rotated_quadric(np.random.default_rng(k), (1.0, 0.2, -0.6))
        for k in range(3)
    },
    "x1x2x3": lambda: MultiPoly(3, {(1, 1, 1): 1.0}),
    "pair-d2": lambda: product_with_itself(
        MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): -0.7, (1, 0): 0.2})
    ),
    **{
        f"dense-{d}-{n}": lambda d=d, n=n: dense_poly(np.random.default_rng(10 * d + n), d, n)
        for d, n in ((3, 2), (3, 4), (4, 3), (4, 4), (5, 2), (5, 3))
    },
}

# the corpus and nine more dense P, of degree 2-4 in 3-5 variables, for the
# sign-change oracles
ORACLE_CASES = {
    **ZERO_SET_CORPUS,
    **{
        f"dense-{d}-{n}-b": lambda d=d, n=n: dense_poly(np.random.default_rng(500 + 10 * d + n), d, n)
        for d in (3, 4, 5)
        for n in (2, 3, 4)
    },
}


def bench_quadric(seed):
    return MultiPoly.from_json(workloads.make_instance("search", seed, 26).payload)


class TestZeroDistanceSearch:
    @pytest.mark.parametrize("name", sorted(ZERO_SET_CORPUS))
    def test_no_worse_than_slsqp_reference(self, name):
        poly = ZERO_SET_CORPUS[name]()
        p = maximize_abs_on_sphere(poly, starts=32, seed=0).point
        ref, ref_zero = slsqp_zero_distance(poly, p, 64, 0)
        dist, zero = angular_distance_to_zero_set(poly, p, seed=0)
        assert math.isfinite(ref) and math.isfinite(dist)
        # SLSQP stops up to |P|/|grad_t P| off Z(P); its distance is short by at most that
        g = poly.gradient(ref_zero)
        slack = abs(poly.eval(ref_zero)) / np.linalg.norm(g - (g @ ref_zero) * ref_zero)
        assert dist <= ref + slack + 1e-12
        assert abs(np.linalg.norm(zero) - 1.0) <= 1e-12
        assert abs(poly.eval(zero)) <= 1e-12 * zero_set_scale(poly, 0)
        # the distance is measured from unit_vector(p), which need not be p
        assert math.acos(float(np.clip(unit_vector(p) @ zero, -1.0, 1.0))) == dist

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_d3_extra_seeds_find_no_nearer_zero(self, n, monkeypatch):
        # the seeds common to both searches give the same rows up to the
        # rounding of the batched linear algebra; a polynomial without zeros
        # on the sphere gives +inf from both
        rng = np.random.default_rng(300 + n)
        for k in range(5):
            poly = dense_poly(rng, 3, n)
            p = unit_vector(rng.standard_normal(3))
            ref, _ = extra_seed_zero_distance(poly, p, k, monkeypatch)
            dist, _ = angular_distance_to_zero_set(poly, p, seed=k)
            assert dist <= ref + 1e-13

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("m, tol", [(1, 1e-12), (2, 1e-7), (3, 5e-5)])
    def test_power_of_affine_form_matches_slice_distance(self, d, m, tol):
        # a zero of multiplicity m can be located only to about eps**(1/m)
        rng = np.random.default_rng(100 * d + m)
        for k in range(3):
            form = AffineForm(rng.standard_normal(d), rng.uniform(-0.6, 0.6))
            poly = MultiPoly(d, dict(product_of_affine_forms([form] * m).terms))
            p = unit_vector(rng.standard_normal(d))
            dist, _ = angular_distance_to_zero_set(poly, p, seed=k)
            assert dist == pytest.approx(slice_distance(form, p), abs=tol)

    def test_no_zero_on_sphere(self):
        poly = MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): 0.5})
        dist, zero = angular_distance_to_zero_set(poly, [0.0, 0.6, 0.8])
        assert dist == math.inf and zero is None

    @pytest.mark.parametrize("name", ["quadric-0", "pair-d2"])
    def test_polynomial_calls_do_not_grow_with_budget(self, name, monkeypatch):
        poly = ZERO_SET_CORPUS[name]()
        p = unit_vector(np.arange(1.0, poly.dim + 1))
        counts = {}
        for method in ("eval", "gradient"):
            original = getattr(MultiPoly, method)

            def counted(self, x, _original=original, _method=method):
                counts[_method] += 1
                return _original(self, x)

            monkeypatch.setattr(MultiPoly, method, counted)
        original_jet = sphereopt._term_jet

        def counted_jet(poly, X, parts):
            counts["_term_jet"] += 1
            return original_jet(poly, X, parts)

        monkeypatch.setattr(sphereopt, "_term_jet", counted_jet)
        seen = []
        for budget in (8, 64):
            monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", budget)
            counts.update(eval=0, gradient=0, _term_jet=0)
            angular_distance_to_zero_set(poly, p, seed=1)
            seen.append(dict(counts))
        # each iteration: one step, then the restoration of its trial; at the
        # end one more restoration of every row.  Each takes grad P and
        # Hess P from one term jet.  The loop runs at most _SEARCH_ITERS
        # iterations, so that count is a ceiling, whatever the budget.
        iters, restore = sphereopt._SEARCH_ITERS, sphereopt._RESTORE_STEPS
        for counts in seen:
            assert counts["_term_jet"] <= iters + (iters + 1) * restore
            assert counts["gradient"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_ends_once_the_nearest_zero_has_settled(self, seed, monkeypatch):
        # the benchmark's quadric: the best row on Z(P) freezes, with no row
        # left off Z(P), within 12 iterations of one step and three
        # restoration steps each, plus the final restoration; a higher
        # iteration cap changes neither the zero found nor the work
        poly = bench_quadric(seed)
        p = verify_sphere_gap(poly, seed=seed).maximizer
        original_jet = sphereopt._term_jet
        iters, restore = sphereopt._SEARCH_ITERS, sphereopt._RESTORE_STEPS
        runs = []
        for cap in (iters, 10 * iters):
            monkeypatch.setattr(sphereopt, "_SEARCH_ITERS", cap)
            jets = []
            monkeypatch.setattr(sphereopt, "_term_jet", lambda *a: jets.append(a[2]) or original_jet(*a))
            runs.append((sphereopt._zero_distance_search(poly, p, seed).tobytes(), jets.count("gh")))
        assert runs[0] == runs[1]
        assert runs[0][1] <= (restore + 1) * 12 + restore

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_bench_quadric_distance_is_closed_form(self, seed):
        # the early stop keeps the nearest zero: the spectrum (1, 0.2, -0.6)
        # puts every maximizer at angle acos(sqrt(0.375)) from Z(P)
        rep = verify_sphere_gap(bench_quadric(seed), seed=seed)
        assert rep.distance == pytest.approx(math.acos(math.sqrt(0.375)), abs=1e-12)

    @pytest.mark.parametrize("k, name", list(enumerate(sorted(ORACLE_CASES))))
    def test_no_sign_change_nearer_than_the_zero_found(self, k, name):
        # every sign change of P on a great circle through p (or on a ray
        # from q in the ball) is a zero, so the search must reach one at
        # least as near, from the maximizer and from a random point; a P
        # with no zero on the sphere (dense-3-2-b, dense-4-2-b) gives +inf
        poly = ORACLE_CASES[name]()
        rng = np.random.default_rng(700 + k)
        for p in (maximize_abs_on_sphere(poly, starts=32, seed=0).point, unit_vector(rng.standard_normal(poly.dim))):
            ref = great_circle_zero_distance(poly.terms, p)
            assert angular_distance_to_zero_set(poly, p, seed=k)[0] <= ref + 1e-9
        q = rng.uniform(0.2, 0.9) * unit_vector(rng.standard_normal(poly.dim))
        assert ballfinder.euclidean_zero_distance(poly, q, seed=k)[0] <= ray_zero_distance(poly.terms, q) + 1e-9


def complex_forms(rng, d, m):
    return complexproj.ComplexHomogPoly.from_linear_product(rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))


class TestLogObjective:
    """The one builder of sum_k delta_k^2 log|P_k| for real, factored, complex and weighted P."""

    @staticmethod
    def arrays(objective, X):
        value, grad = objective
        return (value(X), grad(X), *grad(X, hessian=True))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_weighted_sum_of_single_items(self, kind):
        rng = np.random.default_rng(3)
        if kind == "real":
            factored = random_form_product(rng, 3, 4)[0]
            items = [(factored, 0.3), (QUADRIC, 0.5), (MultiPoly(3, dict(random_form_product(rng, 3, 2)[0].terms)), 0.4)]
            X = sphere_starts(3, 16, 1)
        else:
            dense = complexproj.ComplexHomogPoly(3, {(1, 1, 1): 1.0 + 0.5j, (3, 0, 0): -0.7j, (0, 2, 1): 0.4})
            items = [(complex_forms(rng, 3, 1), 0.5), (complex_forms(rng, 3, 2), 0.3), (dense, 0.3)]
            X = sphere_starts(6, 16, 1)
        whole = self.arrays(_log_objective(items), X)
        singles = [self.arrays(_log_objective(((p, 1.0),)), X) for p, _ in items]
        for i, part in enumerate(whole):
            expected = 0.0
            for (_, delta), single in zip(items, singles):
                expected = expected + delta * delta * single[i]
            assert part.shape == expected.shape and np.array_equal(part, expected)

    def test_single_items_keep_their_own_formulas_bit_for_bit(self):
        # x1 x2 (1 + x1) does not depend on x3, so grad P has exact zeros,
        # and G / P is -0.0 where P < 0; a complex item's parts are summed
        # onto zeros, which reads -0.0 as +0.0
        poly = MultiPoly(3, {(1, 1, 0): 1.0, (2, 1, 0): 1.0})
        X = sphere_starts(3, 32, 5)
        v, G, H = _term_jet(poly, X, "vgh")
        g = G / v[:, None]
        assert np.any(np.signbit(g) & (g == 0.0))
        real = _log_objective(((poly, 1.0),))[1](X, hessian=True)
        for part, own in zip(real, (g, H / v[:, None, None] - g[:, :, None] * g[:, None, :])):
            assert part.tobytes() == own.tobytes()
        cpoly = complexproj.ComplexHomogPoly(3, {(1, 1, 0): 1.0 + 1j, (2, 0, 0): -0.5})
        Y = sphere_starts(6, 32, 5)
        Z = Y[:, :3] + 1j * Y[:, 3:]
        v, G, H = _term_jet(cpoly, Z, "vgh")
        r = G / v[:, None]
        h = H / v[:, None, None] - r[:, :, None] * r[:, None, :]
        own = (0.0 + np.hstack([r.real, -r.imag]), 0.0 + np.block([[h.real, -h.imag], [-h.imag, -h.real]]))
        for part, expected in zip(_log_objective(((cpoly, 1.0),))[1](Y, hessian=True), own):
            assert part.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d, seed", [(3, 0), (4, 1), (5, 2), (6, 3)])
    def test_factored_and_expanded_forms_agree(self, d, seed):
        # within 1e-12 relative (to max(1, the row's largest entry)) times the
        # condition number sum_t |c_t x^e_t| / |P(x)| of the expanded
        # evaluation, which rounds P with that relative error near Z(P)
        factored, _ = random_form_product(np.random.default_rng(seed), d, 5)
        expanded = MultiPoly(d, dict(factored.terms))
        X = sphere_starts(d, 64, seed)
        terms = np.array([[abs(c) * np.prod(np.abs(x) ** e) for e, c in expanded.terms] for x in X])
        cond = np.sum(terms, axis=1) / np.abs(factored.eval(X))
        a = self.arrays(_log_objective(((factored, 1.0),)), X)
        b = self.arrays(_log_objective(((expanded, 1.0),)), X)
        for x, y in zip(a, b):
            scale = np.maximum(1.0, np.max(np.abs(x.reshape(len(X), -1)), axis=1))
            assert np.all(np.max(np.abs((x - y).reshape(len(X), -1)), axis=1) <= 1e-12 * cond * scale)

    def test_factored_product_is_never_expanded(self):
        poly, _ = random_form_product(np.random.default_rng(4), 3, 150)
        value, grad = _log_objective(((poly, 1.0),))
        X = sphere_starts(3, 16, 2)
        value(X)
        grad(X, True)
        grad(X)
        assert poly._terms is None

    def test_real_coordinates_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, 6))
        X[0, [0, 4]] = -0.0
        X[1, [1, 3]] = 0.0
        Z = sphereopt._from_real(X, 3)
        assert Z.dtype == complex and Z.shape == (5, 3)
        assert sphereopt._real(Z).tobytes() == X.tobytes()
        assert sphereopt._from_real(sphereopt._real(Z), 3).tobytes() == Z.tobytes()
        # real rows are their own real coordinates, and a single row converts too
        assert sphereopt._from_real(X, 6) is X and sphereopt._real(X) is X
        assert sphereopt._from_real(X[2], 3).tobytes() == Z[2].tobytes()

    def test_cauchy_riemann_block(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        M = M + np.swapaxes(M, 1, 2)
        B = sphereopt._cauchy_riemann(M)
        explicit = np.zeros((4, 6, 6))
        for n, j, k in itertools.product(range(4), range(3), range(3)):
            explicit[n, j, k], explicit[n, j, 3 + k] = M[n, j, k].real, -M[n, j, k].imag
            explicit[n, 3 + j, k], explicit[n, 3 + j, 3 + k] = -M[n, j, k].imag, -M[n, j, k].real
        assert B.tobytes() == explicit.tobytes()
        # real Hessians are their own real-coordinate Hessians
        R = M.real.copy()
        assert sphereopt._cauchy_riemann(R) is R
        # the Hessian of Re(z' M z / 2) in the real coordinates (x, y) of z = x + iy
        u = rng.standard_normal((4, 6))
        z = u[:, :3] + 1j * u[:, 3:]
        assert np.allclose(np.einsum("ni,nij,nj->n", u, B, u), np.einsum("ni,nij,nj->n", z, M, z).real, rtol=1e-13)
