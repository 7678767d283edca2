import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from zerogap import ballfinder, complexproj, sphereopt
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.sphereopt import (
    GAIN_FLOOR,
    LOG_FLOOR,
    _batch_ascent,
    _log_abs_objective,
    _nearest_slice_point,
    _normalize_rows,
    _polish_on_sphere,
    _sphere_tangent,
    angular_distance_to_zero_set,
    maximize_abs_on_sphere,
    slice_distance,
    sphere_starts,
    unit_vector,
    verify_sphere_gap,
)

from _oracles import slice_min_angle_bruteforce


def random_form_product(rng, d, m, max_offset=0.9):
    forms = []
    for _ in range(m):
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(d)
        forms.append(AffineForm(a, rng.uniform(-max_offset, max_offset)))
    return product_of_affine_forms(forms), forms


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
        angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in res.all_near_max)
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
        assert rep.equality_circle is not None
        assert rep.interlacing is True

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

    def test_report_independent_of_expansion(self):
        # reading the expanded terms must not change how the product is restricted
        rng = np.random.default_rng(4)
        forms = [AffineForm(rng.standard_normal(2), rng.uniform(-0.5, 0.5)) for _ in range(9)]
        poly = MultiPoly.from_affine_product(forms)
        before = verify_sphere_gap(poly).to_json()
        poly.to_json()
        assert verify_sphere_gap(poly).to_json() == before
        assert verify_sphere_gap(product_of_affine_forms(forms)).to_json() == before

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
        assert len(maximize_abs_on_sphere(poly, seed=1).all_near_max) == 2
        rep = verify_sphere_gap(poly, seed=1)
        assert len(calls) == 1
        assert rep.distance == pytest.approx(math.acos(math.sqrt(0.375)), abs=1e-12)

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

    def test_report_json_shape(self):
        rep = verify_sphere_gap(MultiPoly(2, {(1, 1): 1.0}))
        obj = rep.to_json()
        assert set(obj) == {"degree", "maximizer", "value", "distance", "bound", "passed", "equality"}
        assert obj["equality"] is not None and obj["equality"]["interlacing"] is True


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


# the ascent settings of near_max_on_sphere and of ballfinder.multiplier_point
SPHERE = (_sphere_tangent, _normalize_rows, 160, 0.5, 30)
BALL = (lambda G, X: G, ballfinder._clip_to_ball, 200, 0.25, 25)


def parent_loop_ascent(value, grad, X, tangent, retract, iters, step0, backtracks):
    """The ascent before the gain floor, as a plain loop: every row with a
    nonzero gradient takes all its trial steps in every iteration, settled or
    not, until no row improves."""
    return loop_ascent(value, grad, X, tangent, retract, iters, step0, backtracks, gain_floor=False)


def loop_ascent(value, grad, X, tangent, retract, iters, step0, backtracks, gain_floor=True, freeze=False):
    """Reference ascent: every row with a nonzero gradient takes trial steps in
    every iteration, settled or not, until no row improves.  With
    ``gain_floor`` a row leaves the backtracking before a trial whose
    first-order gain step |G|^2 is at most GAIN_FLOOR max(1, |f|), |f| read as
    1 at LOG_FLOOR.  With ``freeze`` only the rows that improved in the
    previous iteration take trials."""
    f = value(X)
    moving = np.ones(len(X), dtype=bool)
    for _ in range(iters):
        G = tangent(grad(X), X)
        gnorm = np.linalg.norm(G, axis=1)
        live = (moving if freeze else True) & (gnorm >= 1e-12)
        if not np.any(live):
            break
        step = step0 / (1.0 + gnorm)
        floor = GAIN_FLOOR * np.where(f == LOG_FLOOR, 1.0, np.maximum(1.0, np.abs(f)))
        moving = np.zeros(len(X), dtype=bool)
        for _ in range(backtracks):
            if gain_floor:
                live = live & (step * gnorm**2 > floor)
                if not np.any(live):
                    break
            trial = retract(X + step[:, None] * G)
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


def assert_ascent_matches_loop(value, grad, X, settings):
    X1, f1 = _batch_ascent(value, grad, X, *settings)
    X0, f0 = loop_ascent(value, grad, X, *settings)
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
    return complexproj._weighted_log_objective(items)


# (value, grad, starts, settings) of the objective families the ascent
# serves: factored and expanded log|P| on the sphere, the multiplier
# objective in the ball and weighted systems on the sphere of C^2
ASCENT_CASES = {
    **{
        f"factored-{d}-{s}": lambda d=d, s=s: (*_log_abs_objective(factored_poly(d, s)), sphere_starts(d, 64, s), SPHERE)
        for d in (3, 4, 5, 6)
        for s in (0, 1)
    },
    "expanded-quadric": lambda: (*_log_abs_objective(QUADRIC), sphere_starts(3, 64, 4), SPHERE),
    **{
        f"expanded-{d}": lambda d=d: (
            *_log_abs_objective(MultiPoly(d, dict(factored_poly(d, 0).terms))),
            sphere_starts(d, 64, 4),
            SPHERE,
        )
        for d in (3, 4)
    },
    **{
        f"multiplier-{d}": lambda d=d: (
            *ballfinder._multiplier_objective(random_form_product(np.random.default_rng(d), d, 3)[0]),
            ballfinder._ball_starts(d, 64, 5),
            BALL,
        )
        for d in (2, 3)
    },
    **{f"c2-{s}": lambda s=s: (*weighted_c2_objective(s), sphere_starts(4, 64, 7), SPHERE) for s in (6, 8)},
}


class TestBatchAscentMatchesLoop:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_factored_objective(self, d, seed):
        assert_ascent_matches_loop(*ASCENT_CASES[f"factored-{d}-{seed}"]())

    def test_expanded_quadric_objective(self):
        assert QUADRIC.affine_factors is None
        assert_ascent_matches_loop(*ASCENT_CASES["expanded-quadric"]())

    @pytest.mark.parametrize("d", [2, 3])
    def test_multiplier_objective_in_ball(self, d):
        assert_ascent_matches_loop(*ASCENT_CASES[f"multiplier-{d}"]())

    def test_weighted_c2_objective(self):
        assert_ascent_matches_loop(*ASCENT_CASES["c2-6"]())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_critical_and_zero_set_starts(self):
        # e1 is an exact critical point of log|x1| (zero tangent gradient);
        # e3 and (0, 0.6, 0.8) lie on {x1 = 0}, the zero set of x1 and of
        # x1 (x1 + x2 - 0.3), factored and expanded, and so do half of them
        # in the ball.  There the gradient of log|P| is large but finite, and
        # the gain floor reads f = LOG_FLOOR as |f| = 1, so those rows step
        # off the zero set.
        x1 = AffineForm([1.0, 0.0, 0.0], 0.0)
        edge = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        X = np.vstack([edge, sphere_starts(3, 16, 8)])
        tagged = [product_of_affine_forms(f) for f in ([x1], [x1, AffineForm([1.0, 1.0, 0.0], 0.3)])]
        for poly in tagged + [MultiPoly(3, dict(t.terms)) for t in tagged]:
            for (value, grad), Y, settings in ((_log_abs_objective(poly), X, SPHERE),
                                               (ballfinder._multiplier_objective(poly), 0.5 * X, BALL)):
                assert np.all(value(Y)[1:3] == LOG_FLOOR)
                assert np.all(np.isfinite(grad(Y)))
                _, f = assert_ascent_matches_loop(value, grad, Y, settings)
                assert np.all(f[1:3] > LOG_FLOOR / 2)
        value, grad = _log_abs_objective(tagged[0])
        assert np.linalg.norm(_sphere_tangent(grad(X), X)[0]) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weighted_objective_on_zero_set(self):
        # (0, 1) and (0, 0.8 + 0.6i) lie on {z1 = 0}, the zero set of the
        # first item; the gradient there is large but finite
        forms = complexproj.ComplexHomogPoly.from_linear_product
        value, grad = complexproj._weighted_log_objective([(forms([[1.0, 0.0]]), 0.7), (forms([[1.0, 1j]]), 0.7)])
        X = np.vstack([[[0.0, 1.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.6]], sphere_starts(4, 16, 3)])
        assert np.all(value(X)[:2] == LOG_FLOOR)
        assert np.all(np.isfinite(grad(X)))
        _, f = assert_ascent_matches_loop(value, grad, X, SPHERE)
        assert np.all(f[:2] > LOG_FLOOR / 2)

    @pytest.mark.parametrize("iters", [1, 2, 3, 7])
    def test_iteration_cap_while_rows_move(self, iters):
        poly, _ = random_form_product(np.random.default_rng(9), 4, 5)
        value, grad = _log_abs_objective(poly)
        X0 = sphere_starts(4, 64, 1)
        settings = (_sphere_tangent, _normalize_rows, iters, 0.5, 30)
        X, _ = assert_ascent_matches_loop(value, grad, X0, settings)
        # the cap stopped rows that were still moving
        longer, _ = _batch_ascent(value, grad, X0, _sphere_tangent, _normalize_rows, iters + 1, 0.5, 30)
        assert longer.tobytes() != X.tobytes()

    @pytest.mark.parametrize("settings, radius", [(SPHERE, 1.0), (BALL, 0.999)])
    def test_single_backtrack(self, settings, radius):
        poly, _ = random_form_product(np.random.default_rng(10), 3, 4)
        value, grad = _log_abs_objective(poly)
        assert_ascent_matches_loop(value, grad, radius * sphere_starts(3, 64, 2), settings[:4] + (1,))


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
    @pytest.mark.parametrize("where", ["sphere", "ball"])
    def test_settled_row_costs_nothing(self, where):
        d = 4
        poly, _ = random_form_product(np.random.default_rng(1), d, 4)
        if where == "sphere":
            value, grad = _log_abs_objective(poly)
            settings, B, extra = SPHERE, sphere_starts(d, 31, 2), sphere_starts(d, 1, 9)
        else:
            value, grad = ballfinder._multiplier_objective(poly)
            settings, B, extra = BALL, ballfinder._ball_starts(d, 16, 2), sphere_starts(d, 1, 9) * 0.5
        iters, backtracks = settings[2], settings[4]
        # the last row of a finished ascent over a batch of the same shape has
        # settled: it failed all its backtracks in the final iteration
        log = []
        X, _ = _batch_ascent(*counted_objective(value, grad, log), np.vstack([B, extra]), *settings)
        assert len(value_calls_per_iteration(log)) < iters
        settled = X[-1]
        assert np.linalg.norm(settings[0](grad(X), X)[-1]) >= 1e-12

        base_log, ext_log = [], []
        Xb, fb = _batch_ascent(*counted_objective(value, grad, base_log), B, *settings)
        Xe, fe = _batch_ascent(*counted_objective(value, grad, ext_log), np.vstack([B, settled]), *settings)
        base = value_calls_per_iteration(base_log)
        ext = value_calls_per_iteration(ext_log)
        # the settled row reaches the gain floor within the trials that the
        # other rows take anyway and is frozen after that: it costs no value
        # call (without the floor it would fail all ``backtracks`` trials)
        assert ext == base
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
        value, grad, X, settings = ASCENT_CASES[name]()
        _, f = _batch_ascent(value, grad, X, *settings)
        _, f_ref = parent_loop_ascent(value, grad, X, *settings)
        assert np.all(f >= f_ref - 1e-12 * np.maximum(1.0, np.abs(f_ref)))

    @pytest.mark.parametrize("name", ["factored-3-0", "factored-4-1", "factored-5-0", "expanded-quadric", "c2-6"])
    def test_near_max_pool_unchanged(self, name, monkeypatch):
        value, grad, X, _ = ASCENT_CASES[name]()
        dim, seed = X.shape[1], 3
        pool = sphereopt.near_max_on_sphere(value, grad, dim, 64, seed)
        monkeypatch.setattr(sphereopt, "_batch_ascent", parent_loop_ascent)
        ref = sphereopt.near_max_on_sphere(value, grad, dim, 64, seed)
        assert len(pool) == len(ref)
        # the polish ends both at the same maximum, up to the rounding of f
        best, ref_best = max(lv for lv, _ in pool), max(lv for lv, _ in ref)
        assert best == pytest.approx(ref_best, rel=0, abs=GAIN_FLOOR * max(1.0, abs(ref_best)))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_half_the_value_calls(self, d, seed):
        # the reference is the ascent before the gain floor: settled rows
        # frozen, failing rows trying all ``backtracks`` trials
        value, grad, X, _ = ASCENT_CASES[f"factored-{d}-{seed}"]()
        log, ref_log = [], []
        _batch_ascent(*counted_objective(value, grad, log), X, *SPHERE)
        loop_ascent(*counted_objective(value, grad, ref_log), X, *SPHERE, gain_floor=False, freeze=True)
        assert log.count("v") <= 0.5 * ref_log.count("v")
        assert log.count("g") <= 1.05 * ref_log.count("g")


class TestPolishOnSphere:
    @pytest.mark.parametrize("k", range(4))
    def test_never_ends_below_its_start(self, k):
        # random starts and starts 1e-3 to 1e-9 off the zero set, where log|P|
        # is near its minima; the polish's start is the start renormalised
        rng = np.random.default_rng(k)
        d = 3 + k % 3
        poly, forms = random_form_product(rng, d, k + 1, max_offset=0.8)
        starts = list(sphere_starts(d, 8, k))
        for f in forms:
            zero = _nearest_slice_point(f, unit_vector(rng.standard_normal(d)))
            starts += [unit_vector(zero + eps * rng.standard_normal(d)) for eps in (1e-3, 1e-6, 1e-9)]
        for P in (poly, MultiPoly(d, dict(poly.terms)), dense_poly(rng, d, 3)):
            value, grad = _log_abs_objective(P)
            for x0 in starts:
                f0 = value(unit_vector(x0)[None, :])[0]
                x = _polish_on_sphere(value, grad, x0)
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
    "pair-d2": lambda: ballfinder.product_with_itself(
        MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): -0.7, (1, 0): 0.2})
    ),
    **{
        f"dense-{d}-{n}": lambda d=d, n=n: dense_poly(np.random.default_rng(10 * d + n), d, n)
        for d, n in ((3, 2), (3, 4), (4, 3), (4, 4), (5, 2), (5, 3))
    },
}


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
        assert math.acos(float(np.clip(p @ zero, -1.0, 1.0))) == dist

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
        for method in ("eval", "gradient", "_hessian"):
            original = getattr(MultiPoly, method)

            def counted(self, x, _original=original, _method=method):
                counts[_method] += 1
                return _original(self, x)

            monkeypatch.setattr(MultiPoly, method, counted)
        seen = []
        for budget in (8, 64):
            monkeypatch.setattr(sphereopt, "_ZERO_SEARCH_SEEDS", budget)
            counts.update(eval=0, gradient=0, _hessian=0)
            angular_distance_to_zero_set(poly, p, seed=1)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        # each iteration: one step, then the restoration of its trial; at the
        # end one more restoration of every row
        iters, restore = sphereopt._SEARCH_ITERS, sphereopt._RESTORE_STEPS
        assert seen[0]["gradient"] == iters + (iters + 1) * restore
        assert seen[0]["_hessian"] == iters + (iters + 1) * restore

