import json
import math
from collections import Counter

import numpy as np
import pytest

from zerogap import trigcircle
from zerogap.cli import main
from zerogap.trigcircle import (
    TrigPoly,
    circle_distance,
    interlacing_check,
    min_max_to_zero_distance,
    trig_max_points,
    trig_zeros,
    zero_gap_certificate,
)

from _oracles import grid_abs_max, grid_zeros

TWO_PI = 2.0 * math.pi


def cos_n(n, amp=1.0):
    return TrigPoly(0.0, [(0.0, 0.0)] * (n - 1) + [(amp, 0.0)])


def sin_n(n, amp=1.0):
    return TrigPoly(0.0, [(0.0, 0.0)] * (n - 1) + [(0.0, amp)])


# (1 - cos t)(0.9 + cos t) expanded in the Fourier basis: degree 2 with a
# double zero at the origin, the standard counterexample to multiplicity-scaled
# gap bounds
DOUBLE_ZERO_T = TrigPoly(0.4, [(0.1, 0.0), (-0.5, 0.0)])

# independently derived reference values for the double-zero instance
DZ_SIMPLE_ZEROS = (math.acos(-0.9), TWO_PI - math.acos(-0.9))  # 2.690566, 3.592619
DZ_MAXIMIZERS = (math.acos(0.05), TWO_PI - math.acos(0.05))  # 1.520775, 4.762410
DZ_MAX_VALUE = 0.95 * 0.95  # (1 - 0.05)(0.9 + 0.05)
DZ_MIN_DIST = min(
    math.acos(0.05), math.acos(-0.9) - math.acos(0.05)
)  # 1.1697903718044043


def random_trig(rng, n):
    return TrigPoly(float(rng.standard_normal()), [tuple(rng.standard_normal(2)) for _ in range(n)])


def loop_eval(T, theta):
    """Reference evaluation: one frequency at a time, a0 + a1 cos + b1 sin + ..."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, T.a0)
    for k, (a, b) in enumerate(T.coeffs, start=1):
        out = out + a * np.cos(k * theta) + b * np.sin(k * theta)
    return float(out) if out.ndim == 0 else out


def scalar_newton_polish(T, dT, theta, steps=60):
    """Reference Newton iteration from one angle, on the reference evaluation."""
    best, best_val = theta, abs(loop_eval(T, theta))
    for _ in range(steps):
        f = loop_eval(T, theta)
        g = loop_eval(dT, theta)
        if g == 0.0:
            break
        step = f / g
        if abs(step) > 0.5:
            step = math.copysign(0.5, step)
        theta -= step
        v = abs(loop_eval(T, theta))
        if v < best_val:
            best, best_val = theta % TWO_PI, v
        if abs(step) < 1e-15:
            break
    return best


def assert_bit_identical(got, expected):
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestEval:
    def test_cos2_quarter_pi(self):
        assert cos_n(2).eval(math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_cos2_origin(self):
        assert cos_n(2).eval(0.0) == 1.0

    def test_double_zero_poly_at_pi(self):
        assert DOUBLE_ZERO_T.eval(math.pi) == pytest.approx(-0.2, abs=1e-14)

    def test_matches_product_form(self):
        for theta in np.linspace(0, TWO_PI, 37):
            direct = (1 - math.cos(theta)) * (0.9 + math.cos(theta))
            assert DOUBLE_ZERO_T.eval(theta) == pytest.approx(direct, abs=1e-14)


class TestBatchedEvalMatchesLoop:
    @pytest.mark.parametrize("n", [0, 1, 7, 55, 200])
    def test_every_input_shape(self, n):
        rng = np.random.default_rng(100 + n)
        T = random_trig(rng, n)
        inputs = [
            0.7,
            np.float64(-3.25),
            np.array(11.0),
            np.empty(0),
            np.empty((0, 3)),
            rng.uniform(-10.0, 10.0, (3, 5)),
            rng.uniform(0.0, TWO_PI, (2, 257)),
            np.linspace(0.0, TWO_PI, 4096, endpoint=False),
        ] + [rng.uniform(-10.0, 10.0, size) for size in (1, 255, 256, 257, 4096)]
        for theta in inputs:
            assert_bit_identical(T.eval(theta), loop_eval(T, theta))

    def test_call_is_eval(self):
        T = random_trig(np.random.default_rng(3), 4)
        theta = np.linspace(0.0, 1.0, 300)
        assert_bit_identical(T(theta), loop_eval(T, theta))


class TestBatchedNewtonMatchesScalar:
    @staticmethod
    def check(T, dT, starts, steps=60):
        got = trigcircle._newton_polish(T, dT, np.array(starts, dtype=float), steps=steps)
        expected = [scalar_newton_polish(T, dT, t, steps=steps) for t in starts]
        assert got.shape == (len(starts),)
        assert got.tobytes() == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 55])
    def test_from_every_companion_angle(self, n):
        T = random_trig(np.random.default_rng(200 + n), n)
        raw = trigcircle._companion_angles(T)
        assert raw.size > 0
        self.check(T, T.derivative(), list(raw))

    def test_on_derivative_levels(self):
        # the cluster polish runs Newton on T^(m-1) with derivative T^(m)
        T = random_trig(np.random.default_rng(7), 9)
        d1 = T.derivative()
        d2 = d1.derivative()
        starts = list(np.linspace(0.0, TWO_PI, 23, endpoint=False))
        self.check(d1, d2, starts)
        self.check(d2, d2.derivative(), starts, steps=4)

    def test_zero_derivative_start_stops_at_once(self):
        T = cos_n(1)
        dT = T.derivative()
        assert dT.eval(0.0) == 0.0
        self.check(T, dT, [0.0, 1.0, 0.0, 2.5])
        assert trigcircle._newton_polish(T, dT, np.array([0.0]))[0] == 0.0

    def test_clipped_step(self):
        T = cos_n(1)
        dT = T.derivative()
        f, g = T.eval(1e-3), dT.eval(1e-3)
        assert abs(f / g) > 0.5
        self.check(T, dT, [1e-3, -2e-3, 0.4, 3.0])

    def test_no_angles(self):
        T = cos_n(2)
        assert trigcircle._newton_polish(T, T.derivative(), np.empty(0)).shape == (0,)


class TestWorkCounts:
    def test_trig_verify_finds_each_root_set_once(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("trig_zeros", "trig_max_points"):
            original = getattr(trigcircle, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(trigcircle, name, counted)
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(random_trig(np.random.default_rng(11), 6).to_json()))
        for fmt in ("json", "csv"):
            calls.clear()
            code = main(["trig-verify", "--input", str(inp), "--output", str(tmp_path / "out"), "--format", fmt])
            assert code == 0
            # T' (through trig_max_points), T and the comparison polynomial Q
            assert calls == {"trig_zeros": 3, "trig_max_points": 1}

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize("steps", [1, 5, 60])
    def test_newton_evaluations_bounded_by_steps(self, monkeypatch, count, steps):
        evals = Counter()
        original = TrigPoly.eval

        def counted(self, theta):
            evals["eval"] += 1
            return original(self, theta)

        monkeypatch.setattr(TrigPoly, "eval", counted)
        T = random_trig(np.random.default_rng(count), 8)
        starts = np.linspace(0.0, TWO_PI, count, endpoint=False)
        trigcircle._newton_polish(T, T.derivative(), starts, steps=steps)
        # one evaluation of T at the starts, then one of dT and one of T per sweep
        assert evals["eval"] <= 2 * steps + 1

    def test_polish_calls_in_trig_zeros_stay_bounded(self, monkeypatch):
        evals = Counter()
        per_call = []
        original_eval = TrigPoly.eval
        original_polish = trigcircle._newton_polish

        def counted_eval(self, theta):
            evals["eval"] += 1
            return original_eval(self, theta)

        def recorded_polish(T, dT, theta, steps=60):
            before = evals["eval"]
            out = original_polish(T, dT, theta, steps=steps)
            per_call.append((evals["eval"] - before, steps, np.size(theta)))
            return out

        monkeypatch.setattr(TrigPoly, "eval", counted_eval)
        monkeypatch.setattr(trigcircle, "_newton_polish", recorded_polish)
        for T in (random_trig(np.random.default_rng(5), 30), DOUBLE_ZERO_T):
            per_call.clear()
            zeros = trig_zeros(T)
            # the raw angles in one sweep, then one sweep per multiplicity level
            assert len(per_call) == 1 + len({z.multiplicity for z in zeros})
            assert per_call[0][2] == trigcircle._companion_angles(T).size
            assert sum(size for _, _, size in per_call[1:]) == len(zeros)
            for count, steps, _ in per_call:
                assert count <= 2 * steps + 1

    def test_certificate_samples_each_sup_grid_once(self, monkeypatch):
        grids = []
        original = TrigPoly.eval

        def counted(self, theta):
            if np.size(theta) == trigcircle._SUP_GRID.size:
                grids.append(self)
            return original(self, theta)

        monkeypatch.setattr(TrigPoly, "eval", counted)
        T = random_trig(np.random.default_rng(3), 12)
        rep = zero_gap_certificate(T)
        assert not rep.q_identically_zero
        # T', T and the comparison polynomial Q, one grid each
        assert len(grids) == 3 and len(set(map(id, grids))) == 3
        # a repeated call returns the grid maximum without sampling again
        assert T.sup_norm() == float(np.max(np.abs(original(T, trigcircle._SUP_GRID))))
        assert len(grids) == 3


class TestZeros:
    def test_cos2_zeros(self):
        zs = trig_zeros(cos_n(2))
        assert [z.multiplicity for z in zs] == [1, 1, 1, 1]
        expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        assert np.allclose(zs.angles, expected, atol=1e-12)

    def test_double_zero_detected(self):
        zs = trig_zeros(DOUBLE_ZERO_T)
        assert zs.total_multiplicity == 4
        assert zs.zeros[0].multiplicity == 2
        assert min(zs.zeros[0].theta, TWO_PI - zs.zeros[0].theta) < 1e-8
        simple = [z.theta for z in zs.zeros if z.multiplicity == 1]
        assert np.allclose(simple, DZ_SIMPLE_ZEROS, atol=1e-10)

    def test_constant_has_no_zeros(self):
        assert len(trig_zeros(TrigPoly(1.0))) == 0

    def test_identically_zero_rejected(self):
        with pytest.raises(ValueError):
            trig_zeros(TrigPoly(0.0))

    def test_residual_bound_and_multiplicity_consistency(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            T = TrigPoly(
                float(rng.standard_normal()),
                [tuple(rng.standard_normal(2)) for _ in range(n)],
                trim=True,
            )
            if T.degree == 0:
                continue
            sup = T.sup_norm()
            zs = trig_zeros(T)
            assert zs.total_multiplicity <= 2 * T.degree
            dT = T.derivative()
            for z in zs:
                assert abs(T.eval(z.theta)) < 1e-8 * sup
                if z.multiplicity >= 2:
                    assert abs(dT.eval(z.theta)) < 1e-5 * sup * T.degree

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            T = TrigPoly(
                float(rng.standard_normal()) * 0.3,
                [tuple(rng.standard_normal(2)) for _ in range(n)],
                trim=True,
            )
            if T.degree == 0:
                continue
            got = sorted(trig_zeros(T).angles)
            expected = grid_zeros(T.eval, samples=100_001)
            assert len(got) >= len(expected) - 1  # grid may miss tangential zeros
            for z in expected:
                assert min(circle_distance(z, g) for g in got) < 1e-7


class TestMaxPoints:
    def test_cos2(self):
        M, pts = trig_max_points(cos_n(2))
        assert M == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pts, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], atol=1e-9)

    def test_double_zero_instance(self):
        M, pts = trig_max_points(DOUBLE_ZERO_T)
        assert M == pytest.approx(DZ_MAX_VALUE, abs=1e-12)
        assert np.allclose(pts, DZ_MAXIMIZERS, atol=1e-8)

    def test_sine(self):
        M, pts = trig_max_points(sin_n(1))
        assert M == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(pts, [math.pi / 2, 3 * math.pi / 2], atol=1e-10)

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            n = int(rng.integers(1, 6))
            T = TrigPoly(
                float(rng.standard_normal()) * 0.2,
                [tuple(rng.standard_normal(2)) for _ in range(n)],
                trim=True,
            )
            if T.degree == 0:
                continue
            M, pts = trig_max_points(T)
            M_ref, pts_ref = grid_abs_max(T.eval, samples=100_001)
            assert M == pytest.approx(M_ref, rel=1e-10)
            for t in pts_ref:
                assert min(circle_distance(t, g) for g in pts) < 1e-6


class TestMinMaxToZeroDistance:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_pure_cosine(self, n):
        assert min_max_to_zero_distance(cos_n(n)) == pytest.approx(math.pi / (2 * n), abs=1e-12)

    def test_double_zero_instance(self):
        assert min_max_to_zero_distance(DOUBLE_ZERO_T) == pytest.approx(DZ_MIN_DIST, abs=1e-9)

    def test_constant_sentinel(self):
        assert min_max_to_zero_distance(TrigPoly(1.0)) == math.inf


class TestZeroGapCertificate:
    def test_extremal_cosine(self):
        rep = zero_gap_certificate(cos_n(3))
        assert rep.q_identically_zero
        assert rep.min_distance == pytest.approx(math.pi / 6, abs=1e-12)
        assert rep.passed

    def test_generic_instance(self):
        T = TrigPoly(0.0, [(0.3, 0.0), (1.0, 0.0)])  # cos 2t + 0.3 cos t
        rep = zero_gap_certificate(T)
        assert rep.passed
        assert not rep.q_identically_zero
        assert rep.min_distance >= math.pi / 4 - 1e-9
        # cross-check the reported distance against the dense grid oracle
        zeros = grid_zeros(T.eval, samples=100_001)
        _, maxima = grid_abs_max(T.eval, samples=100_001)
        ref = min(circle_distance(z, m) for z in zeros for m in maxima)
        assert rep.min_distance == pytest.approx(ref, abs=1e-7)

    def test_double_zero_instance_passes(self):
        rep = zero_gap_certificate(DOUBLE_ZERO_T)
        assert rep.passed
        assert rep.min_distance == pytest.approx(DZ_MIN_DIST, abs=1e-9)
        assert rep.min_distance >= math.pi / 4

    def test_scaled_and_shifted_cosine_still_extremal(self):
        T = cos_n(4, amp=-2.5).shift(0.3)
        rep = zero_gap_certificate(T)
        assert rep.q_identically_zero
        assert rep.min_distance == pytest.approx(math.pi / 8, abs=1e-10)

    def test_random_suite_meets_bound(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 25:
            n = int(rng.integers(1, 9))
            T = TrigPoly(
                float(rng.standard_normal()) * 0.5,
                [tuple(rng.standard_normal(2)) for _ in range(n)],
                trim=True,
            )
            if T.degree == 0 or len(trig_zeros(T)) == 0:
                continue
            rep = zero_gap_certificate(T)
            assert rep.passed, f"bound failed at degree {T.degree}"
            assert rep.min_distance >= math.pi / (2 * T.degree) - 1e-7
            checked += 1


class TestRootSetsPassedDown:
    def test_report_carries_the_zeros(self):
        for T in (DOUBLE_ZERO_T, cos_n(3), random_trig(np.random.default_rng(8), 7)):
            rep = zero_gap_certificate(T)
            assert rep.zeros == trig_zeros(T)

    def test_interlacing_on_given_roots(self):
        for T in (cos_n(4), sin_n(3), DOUBLE_ZERO_T, random_trig(np.random.default_rng(4), 5)):
            rep = zero_gap_certificate(T)
            given = interlacing_check(T, zeros=rep.zeros, max_points=rep.max_points)
            assert given == interlacing_check(T)


class TestInterlacing:
    def test_cos2(self):
        ok, arcs = interlacing_check(cos_n(2))
        assert ok
        assert len(arcs) == 8
        assert np.allclose(arcs, math.pi / 4, atol=1e-9)

    def test_perturbed_fails(self):
        ok, _ = interlacing_check(TrigPoly(0.0, [(0.3, 0.0), (1.0, 0.0)]))
        assert not ok

    def test_sin3(self):
        ok, arcs = interlacing_check(sin_n(3))
        assert ok
        assert len(arcs) == 12
        assert np.allclose(arcs, math.pi / 6, atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_pure_cosines(self, n):
        ok, arcs = interlacing_check(cos_n(n))
        assert ok
        assert len(arcs) == 4 * n
        assert np.allclose(arcs, math.pi / (2 * n), atol=1e-9)


class TestTrigPolyType:
    def test_degree_trimming(self):
        t = TrigPoly(1.0, [(1.0, 0.0), (1e-16, 1e-17)], trim=True)
        assert t.degree == 1

    def test_untrimmed_zero_leading_pair_rejected(self):
        with pytest.raises(ValueError):
            TrigPoly(1.0, [(0.0, 0.0)])

    def test_shift_identity(self):
        T = TrigPoly(0.3, [(0.5, -0.2), (0.1, 0.4)])
        s = 1.234
        shifted = T.shift(s)
        for theta in np.linspace(0, TWO_PI, 50):
            assert shifted.eval(theta) == pytest.approx(T.eval(theta + s), abs=1e-13)

    def test_derivative_matches_finite_difference(self):
        T = TrigPoly(0.3, [(0.5, -0.2), (0.1, 0.4)])
        dT = T.derivative()
        h = 1e-6
        for theta in np.linspace(0, TWO_PI, 25):
            fd = (T.eval(theta + h) - T.eval(theta - h)) / (2 * h)
            assert dT.eval(theta) == pytest.approx(fd, abs=1e-8)

    def test_json_round_trip(self):
        T = TrigPoly(0.25, [(1.0, -2.0), (0.0, 0.5)])
        U = TrigPoly.from_json(T.to_json())
        assert U.a0 == T.a0 and U.coeffs == T.coeffs

    def test_json_degree_must_match_pairs(self):
        with pytest.raises(ValueError, match='"n" is 4'):
            TrigPoly.from_json({"n": 4, "a0": 0, "c": [[1, 0]]})
        with pytest.raises(ValueError):
            TrigPoly.from_json({"n": 0, "a0": 1, "c": [[1, 0]]})

    def test_json_degree_counts_pairs_before_trimming(self):
        T = TrigPoly.from_json({"n": 2, "a0": 1.0, "c": [[0.5, 0.0], [0.0, 0.0]]})
        assert T.degree == 1
        assert TrigPoly.from_json({"a0": 1.0, "c": [[0.5, 0.0], [0.0, 0.0]]}).degree == 1
