import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerogap import ballfinder, cli, sphereopt
from zerogap.ballfinder import (
    euclidean_zero_distance,
    lifted_diagnostics,
    multiplier_point,
    pair_point,
)
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms

from _oracles import (
    ball_ascent_pool,
    grid_multiplier_max,
    multiplier_log,
    pair_via_product,
    product_with_itself,
)


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
        # several pairs improve on the best ball distance in turn; only the
        # pair kept is measured on the doubled sphere, by the distances of
        # (p, |q|) and (q, |p|) to the zero set of the lift of P on S^d
        calls = []
        original = ballfinder._zero_distance

        def counted(lifted, seed=0):
            measure = original(lifted, seed)
            return lambda w: calls.append(np.array(w)) or measure(w)

        monkeypatch.setattr(ballfinder, "_zero_distance", counted)
        cert = pair_point(poly, seed=0, starts=16)
        p, q = cert.p, cert.q
        assert [c.tobytes() for c in calls] == [
            np.append(p, np.linalg.norm(q)).tobytes(),
            np.append(q, np.linalg.norm(p)).tobytes(),
        ]
        lifted = original(ballfinder._lift(poly, 1.0), 0)
        assert cert.sphere_distance == min(lifted(c)[0] for c in calls)
        # the distance to Z(R), R(x, y) = P(x) P(y), in 2d variables
        reference = sphereopt.angular_distance_to_zero_set(product_with_itself(poly), np.concatenate([p, q]))[0]
        assert cert.sphere_distance == pytest.approx(reference, abs=1e-9)

    def test_nearest_zero_outside_the_ball_has_no_lift(self):
        # Z(x^2 + y^2 - 2) is the circle of radius sqrt(2): the lift (z, t q)
        # of the nearest zero z needs t^2 = (1 - |z|^2) / |q|^2 < 0
        cert = pair_point(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -2.0}), seed=0)
        assert np.linalg.norm(cert.nearest_zero) == pytest.approx(math.sqrt(2), abs=1e-9)
        assert cert.lift_t is None and cert.lift_point is None

    @pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "expanded"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_builds_no_polynomial_in_2d_variables(self, d, tagged, monkeypatch):
        # P is read on each half of a row, and Z(R) through the lift in d + 1 variables
        rng = np.random.default_rng(d)
        poly = product_of_affine_forms([AffineForm(rng.standard_normal(d), rng.uniform(-0.6, 0.6)) for _ in range(3)])
        poly = poly if tagged else MultiPoly(d, poly.terms)
        dims = []
        init, product = MultiPoly.__init__, MultiPoly.from_affine_product.__func__

        def recorded_init(self, dim, terms):
            dims.append(dim)
            init(self, dim, terms)

        monkeypatch.setattr(MultiPoly, "__init__", recorded_init)
        recorded_product = classmethod(lambda cls, forms: dims.append(forms[0].dim) or product(cls, forms))
        monkeypatch.setattr(MultiPoly, "from_affine_product", recorded_product)
        cert = pair_point(poly, seed=0)
        assert cert.passed
        assert dims and max(dims) == d + 1 < 2 * d

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_scaled_input(self, scale):
        # c P has the zero set of P, so the command accepts it and reports P's distances
        rng = np.random.default_rng(7)
        terms = [(e, rng.standard_normal()) for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]

        def run(c):
            with tempfile.TemporaryDirectory() as tmp:
                inp, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
                with open(inp, "w") as fh:
                    json.dump({"dim": 3, "terms": [{"e": list(e), "c": c * v} for e, v in terms]}, fh)
                code = cli.main(["ball-pair", "--input", inp, "--output", out])
                if code != cli.EXIT_OK:
                    return code, None
                with open(out) as fh:
                    return code, json.load(fh)

        (code, rep), (_, ref) = run(scale), run(1.0)
        assert code == cli.EXIT_OK
        assert rep["ball_distance"] == pytest.approx(ref["ball_distance"], abs=1e-12)
        assert rep["sphere_distance"] == pytest.approx(ref["sphere_distance"], abs=1e-12)

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


class TestPairAgainstProduct:
    """The pair construction against the expanded R(x, y) = P(x) P(y), its
    maximum and its zero set in 2d variables (``_oracles``)."""

    @staticmethod
    def assert_zero_of_product_at(poly, cert, seed):
        # the zero (x, t) of the lift of P on S^d nearest (p, |q|) stands for
        # the zero (x, t q / |q|) of R on S^(2d-1), and likewise with p and q swapped
        d, w = poly.dim, np.concatenate([cert.p, cert.q])
        R = product_with_itself(poly)
        scale = np.max(np.abs(R.eval(sphereopt.sphere_starts(2 * d, 256, 0))))
        found = []
        for a, b, order in ((cert.p, cert.q, 1), (cert.q, cert.p, -1)):
            dist, z = sphereopt._zero_distance(ballfinder._lift(poly, 1.0), seed)(np.append(a, np.linalg.norm(b)))
            if z is not None:
                zero = np.concatenate([z[:d], z[d] * b / np.linalg.norm(b)][::order])
                assert abs(R.eval(zero)) <= 1e-8 * scale
                assert math.acos(np.clip(zero @ w, -1.0, 1.0)) == pytest.approx(dist, abs=1e-9)
                found.append(dist)
        assert min(found) == cert.sphere_distance

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(d=st.integers(1, 3), m=st.integers(1, 3), tagged=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_verdict_bounds_and_distances_match(self, d, m, tagged, seed):
        # P is a product of m forms, tagged, or expanded with every monomial
        # of degree at most m perturbed, so that Z(P) is no union of hyperplanes
        rng = np.random.default_rng(seed)
        poly = product_of_affine_forms([AffineForm(rng.standard_normal(d), rng.uniform(-0.9, 0.9)) for _ in range(m)])
        if not tagged:
            terms = dict(poly.terms)
            for e in np.ndindex(*(m + 1,) * d):
                if sum(e) <= m:
                    terms[e] = terms.get(e, 0.0) + 0.1 * rng.standard_normal()
            poly = MultiPoly(d, terms)
        cert = pair_point(poly, seed=seed % 1000)
        ref = pair_via_product(poly, seed=seed % 1000)
        assert cert.passed == ref["passed"]
        assert (cert.ball_bound, cert.sphere_bound) == (ref["ball_bound"], ref["sphere_bound"])
        tol = 1e-12 if tagged else 1e-7
        assert cert.ball_distance == pytest.approx(ref["ball_distance"], abs=tol)
        if tagged:
            assert cert.sphere_distance == pytest.approx(ref["sphere_distance"], abs=tol)
        else:
            # both are angles to zeros found, so upper bounds on the distance:
            # the search on the lift is never the worse one, and where it is
            # the better one its zero is a zero of R at that angle
            assert cert.sphere_distance <= ref["sphere_distance"] + tol
            if cert.sphere_distance < ref["sphere_distance"] - tol:
                self.assert_zero_of_product_at(poly, cert, seed % 1000)
        payload = {"forms": [f.to_json() for f in poly.affine_factors]} if tagged else poly.to_json()
        with tempfile.TemporaryDirectory() as tmp:
            inp, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
            with open(inp, "w") as fh:
                json.dump(payload, fh)
            code = cli.main(["ball-pair", "--input", inp, "--output", out, "--seed", str(seed % 1000)])
        assert code == (cli.EXIT_OK if ref["passed"] else cli.EXIT_BOUND_VIOLATED)


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
        # the boundary at which the benchmark's tracer counts it: each value
        # of the objective hands all of its rows to one call
        from zerogap import chebmult

        calls, rows = [], []
        original, objective = chebmult.ball_multiplier, ballfinder._multiplier_objective

        def counted(n, x):
            calls.append(np.size(x))
            return original(n, x)

        def counted_objective(poly):
            value, grad = objective(poly)
            return (lambda Y: rows.append(len(Y)) or value(Y)), grad

        monkeypatch.setattr(chebmult, "ball_multiplier", counted)
        monkeypatch.setattr(ballfinder, "_multiplier_objective", counted_objective)
        forms = [AffineForm([1, 0], 0.3), AffineForm([0, 1], -0.1)]
        multiplier_point(product_of_affine_forms(forms), seed=0)
        assert len(rows) > 0 and calls == rows

    def test_work_does_not_grow_with_the_degree(self, monkeypatch):
        # one variable takes the lifted multistart on S^1 as every dimension
        # does: its rows are the starts' and the polish's, whatever the degree
        rows = []
        objective = ballfinder._multiplier_objective

        def counted_objective(poly):
            value, grad = objective(poly)

            def counted_grad(Y, hessian=False):
                rows.append(len(Y))
                return grad(Y, hessian)

            return (lambda Y: rows.append(len(Y)) or value(Y)), counted_grad

        monkeypatch.setattr(ballfinder, "_multiplier_objective", counted_objective)
        _, dist = multiplier_point(MultiPoly(1, {(300,): 1.0, (0,): -0.5}), seed=0)
        assert 0 < sum(rows) <= 10_000
        assert dist >= 1 / 300

    def test_degree_300_in_bounded_memory(self):
        # the multistart reads a few hundred rows of the objective at a time,
        # so a degree-300 power table per batch stays far below the limit
        limit = 1536 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "zerogap.cli", "ball-multiplier"],
            input=json.dumps({"dim": 1, "terms": [{"e": [300], "c": 1.0}, {"e": [0], "c": -0.5}]}),
            capture_output=True,
            text=True,
            # one BLAS thread, so the limit measures the search and not per-thread buffers
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


def orthogonal(kind, n, scale=1.0):
    """Coefficients, x^0 first, of T_n(x / scale) or of the Legendre P_n(x / scale)."""
    basis = {"cheb": np.polynomial.chebyshev.cheb2poly, "legendre": np.polynomial.legendre.leg2poly}[kind]
    half = scale ** (np.arange(n + 1.0) / 2)  # scale^k itself overflows at n = 300
    return basis([0.0] * n + [1.0]) / half / half


def one_variable_corpus():
    """(id, coefficients with x^0 first, seed) of 70 one-variable P: dense
    Gaussian, roots near and past +-1, rim-heavy (x + 1 + eps)^k q, sparse
    x^n + c, two of high degree, and T_n and P_n at degrees 20, 30 and 40
    from three seeds each.  T_n and P_n oscillate across [-1, 1], with n
    local maxima about pi/n apart in the angle of S^1 and nearly equal near
    the global one.  At degree 100 their monomial coefficients read T_n(0.7)
    wrong by 3e10 (2e67 at degree 300), so no double-precision P is T_n
    there."""
    rng = np.random.default_rng(34)
    poly = np.polynomial.polynomial
    cases = []
    for i in range(12):
        cases.append((f"dense-{i}", rng.standard_normal(i + 2)))
    for i in range(13):
        roots = [rng.choice([-1.0, 1.0]) * (1.0 + rng.normal(0.0, 0.03)) for _ in range(1 + i % 4)]
        roots += list(rng.uniform(-1.3, 1.3, size=i % 5))
        cases.append((f"rim-roots-{i}", poly.polyfromroots(roots) * rng.uniform(0.2, 5.0)))
    for i in range(13):
        eps = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -1.0)
        rim = poly.polypow([1.0 + eps, 1.0], 1 + i % 6)
        cases.append((f"rim-heavy-{i}", poly.polymul(rim, rng.standard_normal(1 + i % 5))))
    for i in range(12):
        cases.append((f"sparse-{i}", np.array([rng.uniform(-1.5, 1.5)] + [0.0] * i + [1.0])))
    cases.append(("x300-0.5", np.array([-0.5] + [0.0] * 299 + [1.0])))
    cases.append(("dense-100", rng.standard_normal(101)))
    cases = [(name, c, 0) for name, c in cases]
    for kind in ("cheb", "legendre"):
        for n in (20, 30, 40):
            cases += [(f"{kind}-{n}-seed{seed}", orthogonal(kind, n), seed) for seed in range(3)]
    return cases


def reaches_the_grid_maximum(coeffs, seed):
    """(P, dist): multiplier_point's point on P from ``coeffs`` is no lower
    than the grid maximum, up to a relative 1e-9 of the log."""
    poly = MultiPoly(1, {(i,): float(c) for i, c in enumerate(coeffs) if c != 0.0})
    assert poly.degree == len(coeffs) - 1
    point, dist = multiplier_point(poly, seed=seed)
    ref = grid_multiplier_max(coeffs)
    assert multiplier_log(coeffs, point)[0] >= ref - 1e-9 * max(1.0, abs(ref))
    return poly, dist


class TestOneVariableSearch:
    """The multistart on S^1 against the largest value on a grid of 4096 n + 1
    points of [-1, 1], read with plain numpy (``_oracles``)."""

    @pytest.mark.parametrize("coeffs,seed", [pytest.param(c, s, id=i) for i, c, s in one_variable_corpus()])
    def test_reaches_the_dense_grid_maximum(self, coeffs, seed):
        poly, dist = reaches_the_grid_maximum(coeffs, seed)
        assert dist >= 1.0 / poly.degree - 1e-6

    @pytest.mark.parametrize("kind,n,scale", [("cheb", 100, 8.0), ("cheb", 300, 20.0), ("legendre", 300, 20.0)])
    def test_reaches_the_dense_grid_maximum_at_high_degree(self, kind, n, scale):
        # T_n(x / s) and P_n(x / s) read to 1e-9 or better and change sign
        # 8 to 10 times in [-1, 1]; only the point is checked, since the
        # one-variable zero distance of this P takes the centre of a merged
        # root cluster for a zero (near 0, where P is 1) and reports 1e-14 or less
        reaches_the_grid_maximum(orthogonal(kind, n, scale), seed=1)

    def test_rim_rows_are_screened_once(self, monkeypatch):
        # in one variable every rim row is one of the two ends +-1; the
        # ascent takes each of them at most once, however much P favours them
        ascents = []
        ascent = sphereopt._batch_ascent

        def recorded(value, grad, X):
            ascents.append(X)
            return ascent(value, grad, X)

        monkeypatch.setattr(sphereopt, "_batch_ascent", recorded)
        multiplier_point(MultiPoly(1, {(1,): 1.0}), seed=0)
        (X,) = ascents
        assert len(X) == 64 and len(np.unique(X, axis=0)) == 64
        assert np.sum(X[:, 1] == 0.0) <= 2


class TestLiftedMultiplierSearch:
    """The multiplier search on the sphere S^d that lifts the ball, against a
    long ascent in the ball itself with no polish (``_oracles``)."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(d=st.integers(1, 5), m=st.integers(1, 4), tagged=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_pool_reaches_the_long_ascent_and_the_point_its_bound(self, d, m, tagged, seed):
        # P is a product of m forms, tagged, or expanded with every monomial
        # of degree at most m perturbed, so that Z(P) is no union of hyperplanes
        rng = np.random.default_rng(seed)
        poly = product_of_affine_forms([AffineForm(rng.standard_normal(d), rng.uniform(-0.9, 0.9)) for _ in range(m)])
        if not tagged:
            terms = dict(poly.terms)
            for e in np.ndindex(*(m + 1,) * d):
                if sum(e) <= m:
                    terms[e] = terms.get(e, 0.0) + 0.1 * rng.standard_normal()
            poly = MultiPoly(d, terms)
        value, grad = ballfinder._multiplier_objective(poly)
        def lift(X):  # rows x of the ball as rows (x, t) of S^d, t >= 0
            return np.hstack([X, np.sqrt(np.maximum(0.0, 1.0 - np.sum(X * X, axis=1, keepdims=True)))])

        best = np.max(value(lift(np.array(ballfinder._multiplier_pool(poly, seed % 1000, 64)))))
        ref = np.max(value(lift(ball_ascent_pool(value, grad, d, 64, seed % 1000))))
        # relative 1e-9, and 1e-9 absolute near f = 0
        assert best >= ref - 1e-9 * max(1.0, abs(ref))
        point, dist = multiplier_point(poly, seed=seed % 1000)
        assert np.linalg.norm(point) <= 1.0 + 1e-15
        assert dist >= 1.0 / poly.degree - 1e-6


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
