import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from zerogap import ballfinder
from zerogap.ballfinder import (
    euclidean_zero_distance,
    lifted_diagnostics,
    multiplier_point,
    pair_point,
    product_with_itself,
)
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms


def cheb_poly_1d(n):
    c = np.polynomial.chebyshev.cheb2poly([0.0] * n + [1.0])
    return MultiPoly(1, {(i,): float(v) for i, v in enumerate(c) if v != 0.0})


def cheb_roots(n):
    return np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n))


class TestEuclideanZeroDistance:
    def test_coordinate_hyperplane(self):
        p = MultiPoly(2, {(1, 0): 1.0})
        assert euclidean_zero_distance(p, [0.5, 0.0])[0] == pytest.approx(0.5, abs=1e-12)

    def test_two_roots_take_nearer(self):
        # (x - 0.2)(x + 0.4) = x^2 + 0.2 x - 0.08
        p = MultiPoly(1, {(2,): 1.0, (1,): 0.2, (0,): -0.08})
        assert euclidean_zero_distance(p, [0.0])[0] == pytest.approx(0.2, abs=1e-12)

    def test_tagged_product_matches_per_factor_oracle(self):
        rng = np.random.default_rng(3)
        forms = [AffineForm(rng.standard_normal(3), rng.uniform(-0.8, 0.8)) for _ in range(4)]
        poly = product_of_affine_forms(forms)
        for _ in range(20):
            p = rng.uniform(-1, 1, size=3)
            expected = min(abs(f.normal @ p - f.offset) for f in forms)
            assert euclidean_zero_distance(poly, p)[0] == pytest.approx(expected, abs=1e-10)

    def test_no_zero_in_ball_sentinel(self):
        p = MultiPoly(1, {(2,): 1.0, (0,): 4.0})  # zeros at +-2i
        assert euclidean_zero_distance(p, [0.3]) == (math.inf, None)

    def test_estimator_d3(self):
        p = MultiPoly(3, {(1, 0, 0): 1.0})
        # untagged single plane: estimator should get |x1| right
        d, _ = euclidean_zero_distance(p, np.array([0.4, 0.1, -0.2]), seed=1)
        assert d == pytest.approx(0.4, abs=1e-7)


class TestProductWithItself:
    def test_expanded_values(self):
        p = MultiPoly(1, {(3,): 4.0, (1,): -3.0})
        r = product_with_itself(p)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, size=2)
            assert r.eval([x, y]) == pytest.approx(p.eval([x]) * p.eval([y]), rel=1e-12)

    def test_factored_forms_lift(self):
        forms = [AffineForm([1.0, 0.0], 0.25)]
        p = product_of_affine_forms(forms)
        r = product_with_itself(p)
        assert r.degree == 2
        assert r.affine_factors is not None
        assert r.eval([0.5, 0.1, 0.3, 0.2]) == pytest.approx((0.5 - 0.25) * (0.3 - 0.25), rel=1e-12)


class TestPairPoint:
    def test_linear_1d(self):
        cert = pair_point(MultiPoly(1, {(1,): 1.0}), seed=0)
        assert abs(cert.p[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert cert.p @ cert.p + cert.q @ cert.q == pytest.approx(1.0, abs=1e-10)
        assert cert.ball_distance == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert cert.sphere_distance == pytest.approx(math.pi / 4, abs=1e-8)
        assert cert.passed

    def test_coordinate_2d(self):
        cert = pair_point(MultiPoly(2, {(1, 0): 1.0}), seed=1)
        assert cert.ball_distance == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert np.linalg.norm(cert.chosen) <= 1 / math.sqrt(2) + 1e-10

    def test_chebyshev_cubic(self):
        cert = pair_point(cheb_poly_1d(3), seed=0)
        assert cert.passed
        assert cert.ball_distance >= 1 / 24 - 1e-6
        assert cert.sphere_distance >= math.pi / 12 - 1e-6
        assert cert.p @ cert.p + cert.q @ cert.q == pytest.approx(1.0, abs=1e-10)

    def test_lift_audit_quantities(self):
        cert = pair_point(cheb_poly_1d(3), seed=0)
        assert cert.nearest_zero is not None
        assert cert.lift_t is not None
        # lifted point reconstructs a unit vector
        assert np.linalg.norm(cert.lift_point) == pytest.approx(1.0, abs=1e-8)
        assert cert.lift_t_bound == pytest.approx((math.sqrt(2) - 1) / (2 * math.sqrt(2) * 3))

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 50])
    def test_chord_bound_inequality(self, n):
        # Euclidean chord corresponding to pi/(4n) stays above 1/(2n)
        assert 2 * math.sin(math.pi / (8 * n)) >= 1 / (2 * n)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            pair_point(MultiPoly(1, {(0,): 1.0}))

    @pytest.mark.parametrize(
        "poly", [MultiPoly(2, {(1, 1): 1.0}), cheb_poly_1d(3)], ids=["xy", "chebyshev-cubic"]
    )
    def test_sphere_distance_measured_once(self, poly, monkeypatch):
        # several pairs improve on the best ball distance in turn; the
        # doubled-sphere distance is measured once, for the pair kept
        calls = []
        original = ballfinder.angular_distance_to_zero_set

        def counted(R, w, seed=0):
            calls.append(np.array(w))
            return original(R, w, seed=seed)

        monkeypatch.setattr(ballfinder, "angular_distance_to_zero_set", counted)
        cert = pair_point(poly, seed=0, starts=16)
        assert len(calls) == 1
        assert calls[0].tobytes() == np.concatenate([cert.p, cert.q]).tobytes()
        assert cert.sphere_distance == original(product_with_itself(poly), calls[0], seed=0)[0]

    def test_each_small_half_measured_once(self, monkeypatch):
        # the near-maximal pool of x y (x' y') repeats each small half: rows
        # (p, q) and (p, -q) share it, and so do polished copies of one row
        calls = []
        original = ballfinder.euclidean_zero_distance

        def counted(poly, p, seed=0):
            calls.append(np.array(p))
            return original(poly, p, seed=seed)

        monkeypatch.setattr(ballfinder, "euclidean_zero_distance", counted)
        cert = pair_point(MultiPoly(2, {(1, 1): 1.0}), seed=0)
        assert min(np.linalg.norm(p - q) for i, p in enumerate(calls) for q in calls[:i]) > 1e-3
        assert any(c.tobytes() == cert.p.tobytes() for c in calls)
        assert cert.ball_distance == original(MultiPoly(2, {(1, 1): 1.0}), cert.p, seed=0)[0]

    def test_sign_symmetric_small_halves_measured_once(self, monkeypatch):
        # P(-x) = P(x) for x y, so the small halves p and -p are equally far
        # from Z(P): the four halves (+-a, +-a) are measured as two
        calls = []
        original = ballfinder.euclidean_zero_distance

        def counted(poly, p, seed=0):
            calls.append(np.array(p))
            return original(poly, p, seed=seed)

        monkeypatch.setattr(ballfinder, "euclidean_zero_distance", counted)
        poly = MultiPoly(2, {(1, 1): 1.0})
        cert = pair_point(poly, seed=0)
        assert len(calls) == 2
        assert all(c[np.argmax(np.abs(c))] > 0 for c in calls)
        assert cert.ball_distance == pytest.approx(0.5, abs=1e-9)
        # (p, q) is still a maximizer of |P(x) P(y)| on the doubled sphere
        assert abs(poly.eval(cert.p) * poly.eval(cert.q)) == pytest.approx(0.0625, rel=1e-12)


class TestMultiplierPoint:
    def test_linear_1d_boundary(self):
        point, dist = multiplier_point(MultiPoly(1, {(1,): 1.0}), seed=0)
        assert abs(point[0]) == pytest.approx(1.0, abs=1e-10)
        assert dist == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chebyshev_hard_case(self, n):
        point, dist = multiplier_point(cheb_poly_1d(n), seed=0)
        assert dist >= 1 / n - 1e-6
        # the naive maximizer at the interval end is 1 - cos(pi/2n) from the
        # nearest root, an order 1/n^2 distance that the multiplier avoids
        naive = 1 - math.cos(math.pi / (2 * n))
        assert abs(1.0 - cheb_roots(n).max()) == pytest.approx(naive, abs=1e-12)
        if n >= 2:
            assert dist > naive

    def test_product_2d(self):
        forms = [AffineForm([1, 0], 0.3), AffineForm([0, 1], -0.1)]
        poly = product_of_affine_forms(forms)
        point, dist = multiplier_point(poly, seed=0)
        assert dist >= 0.5 - 1e-6
        assert np.linalg.norm(point) <= 1 + 1e-9

    def test_returned_distance_matches_oracle(self):
        forms = [AffineForm([1, 0, 0], 0.2), AffineForm([0, 1, 0], -0.3), AffineForm([0, 0, 1], 0.0)]
        poly = product_of_affine_forms(forms)
        point, dist = multiplier_point(poly, seed=1)
        expected = min(abs(f.normal @ point - f.offset) for f in forms)
        assert dist == pytest.approx(expected, abs=1e-10)
        assert dist >= 1 / 3 - 1e-6

    @pytest.mark.parametrize("d", [2, 3])
    def test_tagged_products_take_no_slsqp_solve(self, d, monkeypatch):
        # the candidates are polished by Newton steps and tagged distances are closed form
        def forbidden(*args, **kwargs):
            raise AssertionError("multiplier_point called scipy.optimize.minimize")

        monkeypatch.setattr(ballfinder, "minimize", forbidden)
        rng = np.random.default_rng(d)
        for m in (1, 3, 5):
            forms = [AffineForm(rng.standard_normal(d), rng.uniform(-0.6, 0.6)) for _ in range(m)]
            point, dist = multiplier_point(product_of_affine_forms(forms), seed=m)
            assert np.linalg.norm(point) <= 1.0
            assert dist == min(abs(float(f.normal @ point) - f.offset) for f in forms)
            assert dist >= 1 / m - 1e-6

    @pytest.mark.parametrize(
        "poly, maxima",
        [
            (MultiPoly(2, {(1, 0): 1.0}), 2),
            (MultiPoly(3, {(1, 0, 0): 1.0}), 2),
            (MultiPoly(2, {(1, 1): 1.0}), 4),
            (MultiPoly(3, {(1, 1, 1): 1.0}), 8),
            (MultiPoly(3, {(2, 0, 0): 1.0, (0, 2, 0): -0.5, (0, 0, 0): -0.1}), 2),
        ],
        ids=["x1-d2", "x1-d3", "xy", "xyz", "quadric"],
    )
    def test_each_maximizer_measured_once(self, poly, maxima, monkeypatch):
        # untagged input takes a lockstep zero search per distance: the
        # polished rows that end on one of the objective's maxima (+-e1,
        # (+-a, +-a), (+-b, +-b, +-b), +-c e1) are measured once, and x and
        # -x once between them, in their canonical sign
        calls = []
        original = ballfinder.euclidean_zero_distance

        def counted(poly, p, seed=0):
            calls.append(np.array(p))
            return original(poly, p, seed=seed)

        monkeypatch.setattr(ballfinder, "euclidean_zero_distance", counted)
        point, dist = multiplier_point(poly, seed=1)
        assert min((np.linalg.norm(p - q) for i, p in enumerate(calls) for q in calls[:i]), default=math.inf) > 1e-3
        assert len(calls) == maxima // 2
        assert any(c.tobytes() == point.tobytes() for c in calls)
        assert dist == original(poly, point, seed=1)[0]


    @pytest.mark.parametrize(
        "poly, expected",
        [
            (cheb_poly_1d(7), [0.19585969079379278]),
            (MultiPoly(2, {(1, 0): 1.0}), [1.0, 0.0]),
            (MultiPoly(3, {(1, 0, 0): 1.0}), [1.0, 0.0, 0.0]),
        ],
        ids=["T7", "x1-d2", "x1-d3"],
    )
    def test_sign_symmetric_input_reports_canonical_sign(self, poly, expected):
        # P(-x) = +-P(x) and M is even, so x and -x tie to rounding; the
        # reported point has its largest-modulus coordinate positive
        point, _ = multiplier_point(poly, seed=1)
        assert point == pytest.approx(expected, abs=1e-8)

    def test_multiplier_values_go_through_ball_multiplier(self, monkeypatch):
        # the search's multiplier work stays behind chebmult.ball_multiplier,
        # the boundary at which the benchmark's tracer counts it
        from zerogap import chebmult

        calls = []
        original = chebmult.ball_multiplier

        def counted(n, x):
            calls.append(np.size(x))
            return original(n, x)

        monkeypatch.setattr(chebmult, "ball_multiplier", counted)
        forms = [AffineForm([1, 0], 0.3), AffineForm([0, 1], -0.1)]
        multiplier_point(product_of_affine_forms(forms), seed=0)
        assert len(calls) > 0 and sum(calls) > 1000

    def test_one_dimensional_grid_is_read_the_same_in_any_blocks(self, monkeypatch):
        poly = MultiPoly(1, {(i,): float(c) for i, c in enumerate(np.random.default_rng(3).standard_normal(13))})
        pools = set()
        for block in (ballfinder._GRID_BLOCK, 997, 10**12):
            monkeypatch.setattr(ballfinder, "_GRID_BLOCK", block)
            pools.add(np.array(ballfinder._multiplier_pool(poly, 0, 64)).tobytes())
        assert len(pools) == 1

    def test_degree_300_in_bounded_memory(self):
        # the grid of 4096 n + 1 points is read in blocks, so the command
        # needs far less than the 3 GB that one power table of it would take
        limit = 1536 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "zerogap.cli", "ball-multiplier"],
            input=json.dumps({"dim": 1, "terms": [{"e": [300], "c": 1.0}, {"e": [0], "c": -0.5}]}),
            capture_output=True,
            text=True,
            # one BLAS thread, so the limit measures the grid and not per-thread buffers
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(sys.path),
                **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
            },
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["passed"] is True and rep["bound"] == 1 / 300
        assert abs(abs(rep["point"][0]) ** 300 - 0.5) >= 1e-3


class TestLiftedDiagnostics:
    def test_small_even_case(self):
        d = lifted_diagnostics(2, 4)
        assert d.count == 2
        assert d.spacing == pytest.approx(1.0, abs=1e-12)
        assert d.cap_radius == pytest.approx(1.5, abs=1e-12)
        assert d.radius == pytest.approx(4 / math.pi)

    def test_small_odd_case(self):
        d = lifted_diagnostics(1, 3)
        assert d.count == 2
        assert d.spacing == pytest.approx(2.0, abs=1e-12)
        assert d.cap_radius == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(d.latitudes, [-3 / math.pi, 3 / math.pi], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_structure_all_orders(self, n):
        for k in range(n + 2, 201, 2):
            d = lifted_diagnostics(n, k)
            assert d.count == k - n
            assert abs(d.spacing - 2 / n) < 1e-9
            assert abs(d.cap_radius - (1 + 1 / n)) < 1e-9

    def test_latitude_gaps_all_equal(self):
        d = lifted_diagnostics(3, 17)
        r = d.radius
        lats = [math.asin(z / r) for z in d.latitudes]
        gaps = [r * (b - a) for a, b in zip(lats, lats[1:])]
        assert np.allclose(gaps, 2 / 3, atol=1e-9)

    def test_parity_and_range_errors(self):
        with pytest.raises(ValueError):
            lifted_diagnostics(2, 5)
        with pytest.raises(ValueError):
            lifted_diagnostics(4, 4)
