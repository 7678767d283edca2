import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerogap import polycore, trigcircle
from zerogap.cli import main
from zerogap.polycore import CirclePlane, MultiPoly, restrict_to_circle
from zerogap.trigcircle import (
    TrigPoly,
    circle_distance,
    interlacing_check,
    trig_max_points,
    trig_zeros,
    zero_gap_certificate,
)

from _oracles import (
    comparison_flag_loop,
    companion_series_loop,
    derivative_loop,
    grid_abs_max,
    grid_zeros,
    series_pairs_loop,
    shift_loop,
)

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


# (1 - cos t)^2 = 1.5 - 2 cos t + 0.5 cos 2t: one fourfold zero at the origin
ONE_MINUS_COS_SQUARED = TrigPoly(1.5, [(-2.0, 0.0), (0.5, 0.0)])


def random_trig(rng, n):
    return TrigPoly(float(rng.standard_normal()), [tuple(rng.standard_normal(2)) for _ in range(n)])


def fresh(T):
    """A copy of T that keeps nothing yet: T keeps its grid, zeros and
    maxima once found, so a test that counts work starts from a copy."""
    return TrigPoly(T.a0, T.coeffs)


def simple_cluster_angles(T):
    """Angles of the simple root clusters on the unit circle, straight from the
    kernel on the series of z^n T: the starts trig_zeros polishes."""
    c = companion_series_loop(T)
    centres, radii, counts = trigcircle._root_clusters((c / np.max(np.abs(c)))[::-1])
    on = (np.abs(np.abs(centres) - 1.0) <= radii) & (counts == 1)
    return np.mod(np.angle(centres[on]), TWO_PI)


def sup_points(n):
    """Size of the sup_norm grid of a degree-n polynomial: the smallest power
    of two >= 16n."""
    return 1 << (16 * n - 1).bit_length()


def termwise_sup(T):
    """max |T| on the sup_norm angles 2 pi j / N, evaluated term by term."""
    N = sup_points(T.degree)
    return float(np.max(np.abs(T.eval(np.arange(N) * (TWO_PI / N)))))


def sup_rounding_bound(T):
    """Allowed gap between the FFT maximum and the term-wise one.

    One ulp of the coefficients' l1 norm for the sums, plus the rounding of
    each angle k theta_j in the term-wise evaluation, which moves term k by
    up to about 2 pi k eps |c_k|.
    """
    c = np.abs(np.array(T.coeffs).reshape(-1, 2)).sum(axis=1)
    k = np.arange(1, T.degree + 1)
    return np.finfo(float).eps * (abs(T.a0) + c.sum() + TWO_PI * (k * c).sum())


def loop_eval(T, theta):
    """Reference evaluation: one frequency at a time, a0 + a1 cos + b1 sin + ..."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, T.a0)
    for k, (a, b) in enumerate(T.coeffs, start=1):
        out = out + a * np.cos(k * theta) + b * np.sin(k * theta)
    return float(out) if out.ndim == 0 else out


def eval_bound(T):
    """eps (2 pi sum k |c_k| + 2 (n + 3) sum |c_k|): the stated rounding bound of
    a T.eval value (tests/test_grid_zeros.py::TestStatedRoundingBounds)."""
    size = np.abs(T.coeffs).sum(axis=1)
    k = np.arange(1.0, T.degree + 1.0)
    return np.finfo(float).eps * (TWO_PI * float(k @ size) + 2 * (T.degree + 3) * (abs(T.a0) + float(size.sum())))


def scalar_newton_polish(T, dT, theta, steps=60):
    """Reference Newton iteration from one angle, on the reference evaluation.

    The angle stops once it has taken a step shorter than the rounding bound
    of T over |T'| (or than 1e-15)."""
    beta = eval_bound(T)
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
        if abs(step) < max(1e-15, beta / abs(g)):
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


def dyadic_cases(seed):
    """Random polynomials of degrees 0 - 60 and their multiples by 2^-1000 and 2^1000."""
    rng = np.random.default_rng(seed)
    for n in list(range(0, 61, 6)) + list(rng.integers(0, 61, 6)):
        T = random_trig(rng, int(n))
        for e in (0, -1000, 1000):
            yield TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e))


def squared_dyadic_cases(seed):
    """P^2 for random P of mean zero and degrees 2 - 30, which changes sign, so
    P^2 has double zeros, and its multiples by 2^-1000 and 2^1000 (from degree
    2 on, no coefficient of P^2 is zero)."""
    rng = np.random.default_rng(seed)
    for m in list(range(2, 31, 3)) + list(rng.integers(2, 31, 4)):
        series = companion_series_loop(TrigPoly(0.0, rng.standard_normal((int(m), 2))))
        a0, pairs = series_pairs_loop(np.convolve(series, series))
        for e in (0, -1000, 1000):
            yield TrigPoly(math.ldexp(a0, e), np.ldexp(pair_array(pairs), e))


def pair_array(pairs):
    return np.array(pairs, dtype=float).reshape(-1, 2)


class TestArrayOperationsMatchLoops:
    """The coefficient-array operations against plain loops over k.

    The random coefficients have no zero entries, so the signs of zeros,
    which the loops and the array code may round differently, do not enter
    the byte comparison.
    """

    def test_derivative(self):
        for T in dyadic_cases(31):
            assert T.derivative().a0 == 0.0
            assert T.derivative().coeffs.tobytes() == pair_array(derivative_loop(T)).tobytes()

    def test_companion_series(self, monkeypatch):
        # trig_zeros hands the root-cluster kernel the series of z^n T scaled
        # to largest entry 1, highest power first, where the grid proof fails:
        # T = P^2 has only double zeros; 2^k T gives the same bytes
        received = []
        original = trigcircle._root_clusters

        def recorded(c):
            received.append(c)
            return original(c)

        monkeypatch.setattr(trigcircle, "_root_clusters", recorded)
        for T in squared_dyadic_cases(32):
            received.clear()
            trig_zeros(T)
            c = companion_series_loop(T)
            assert len(received) == 1
            assert received[0].tobytes() == (c / np.max(np.abs(c)))[::-1].tobytes()

    def test_restriction_pairs(self, monkeypatch):
        # restrict_to_circle reads its coefficient pairs off the given series
        poly, plane = MultiPoly(2, {(1, 0): 1.0}), CirclePlane([1, 0], [0, 1])
        rng = np.random.default_rng(33)
        for n in list(range(0, 61, 6)) + list(rng.integers(0, 61, 6)):
            series = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
            for e in (0, -1000, 1000):
                scaled = np.ldexp(series.real, e) + 1j * np.ldexp(series.imag, e)
                monkeypatch.setattr(polycore, "_circle_series", lambda poly, plane, s=scaled: s)
                a0, pairs = series_pairs_loop(scaled)
                T = restrict_to_circle(poly, plane)
                assert T.a0 == a0 and T.coeffs.tobytes() == pair_array(pairs).tobytes()


class TestBatchedNewtonMatchesScalar:
    @staticmethod
    def check(T, dT, starts):
        got = trigcircle._newton_polish(T, dT, np.array(starts, dtype=float))
        expected = [scalar_newton_polish(T, dT, t, steps=trigcircle._POLISH_STEPS) for t in starts]
        assert got.shape == (len(starts),)
        assert got.tobytes() == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 55])
    def test_from_every_simple_cluster_start(self, n):
        T = random_trig(np.random.default_rng(200 + n), n)
        starts = simple_cluster_angles(T)
        assert starts.size > 0
        self.check(T, T.derivative(), list(starts))

    def test_on_derivative_levels(self, monkeypatch):
        # Newton on T^(m-1) with derivative T^(m), as for the critical points
        T = random_trig(np.random.default_rng(7), 9)
        d1 = T.derivative()
        d2 = d1.derivative()
        starts = list(np.linspace(0.0, TWO_PI, 23, endpoint=False))
        self.check(d1, d2, starts)
        monkeypatch.setattr(trigcircle, "_POLISH_STEPS", 4)
        self.check(d2, d2.derivative(), starts)

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


class TestSharedTable:
    """_eval_pair gives T.eval and T.derivative().eval from one trig table,
    byte for byte, across the _EVAL_BLOCK boundaries and at extreme scales."""

    @pytest.mark.parametrize("e", [0, -1000, 1000])
    @pytest.mark.parametrize("n", [0, 1, 7, 55, 300])
    def test_matches_eval(self, n, e):
        rng = np.random.default_rng(700 + n)
        T = random_trig(rng, n)
        T = TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e))
        dT = T.derivative()
        for count in (0, 1, 255, 256, 257, 1000):
            theta = rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI, count)
            f, g = trigcircle._eval_pair(T, dT, theta)
            for got, P in ((f, T), (g, dT)):
                assert got.shape == (count,)
                assert got.tobytes() == P.eval(theta).tobytes() == loop_eval(P, theta).tobytes()
        # the split points of the grid proof come as rows
        theta = rng.uniform(0.0, TWO_PI, (40, 25))
        assert trigcircle._eval_pair(T, dT, theta).tobytes() == np.stack((T.eval(theta), dT.eval(theta))).tobytes()


class TestWorkCounts:
    def test_trig_verify_finds_each_root_set_once(self, tmp_path, monkeypatch):
        # T's zeros are proved and polished once, then T''s brackets are
        # proved once and only those _may_hold_max keeps reach the T' polish;
        # the interlacing check reads the zeros and maxima T keeps
        proved, kept, polished = [], [], []
        original_brackets, original_keep = trigcircle._grid_brackets, trigcircle._may_hold_max
        original_polish = trigcircle._newton_polish

        def recorded_brackets(T, dT):
            found = original_brackets(T, dT)
            proved.append((T, len(found[0])))
            return found

        def recorded_keep(*args):
            mask = original_keep(*args)
            kept.append(int(np.count_nonzero(mask)))
            return mask

        def recorded_polish(T, dT, theta):
            polished.append((T, np.size(theta)))
            return original_polish(T, dT, theta)

        monkeypatch.setattr(trigcircle, "_grid_brackets", recorded_brackets)
        monkeypatch.setattr(trigcircle, "_may_hold_max", recorded_keep)
        monkeypatch.setattr(trigcircle, "_newton_polish", recorded_polish)
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(random_trig(np.random.default_rng(11), 6).to_json()))
        for fmt in ("json", "csv"):
            proved.clear()
            kept.clear()
            polished.clear()
            code = main(["trig-verify", "--input", str(inp), "--output", str(tmp_path / "out"), "--format", fmt])
            assert code == 0
            # the brackets of T, then those of T' (this T has 10 critical points)
            (T, zeros), (dT, critical) = proved
            assert critical == 10 and len(kept) == 1 and kept[0] < critical
            assert polished == [(T, zeros), (dT, kept[0])]

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize("steps", [1, 5, 60])
    def test_newton_evaluations_bounded_by_steps(self, monkeypatch, count, steps):
        evals = Counter()
        original_pair, original_eval = trigcircle._eval_pair, TrigPoly.eval

        def counted_pair(T, dT, theta):
            evals["pair"] += 1
            return original_pair(T, dT, theta)

        def counted_eval(self, theta):
            evals["eval"] += 1
            return original_eval(self, theta)

        monkeypatch.setattr(trigcircle, "_eval_pair", counted_pair)
        monkeypatch.setattr(TrigPoly, "eval", counted_eval)
        T = random_trig(np.random.default_rng(count), 8)
        starts = np.linspace(0.0, TWO_PI, count, endpoint=False)
        monkeypatch.setattr(trigcircle, "_POLISH_STEPS", steps)
        trigcircle._newton_polish(T, T.derivative(), starts)
        # one shared T/T' table at the starts, then one per sweep, and no
        # separate evaluation of T or T'
        assert 1 <= evals["pair"] <= steps + 1
        assert evals["eval"] == 0

    def test_polish_calls_in_trig_zeros_stay_bounded(self, monkeypatch):
        # one sweep per trig_zeros, from the certified brackets or from the
        # simple clusters on the circle only
        evals = Counter()
        per_call = []
        original_pair = trigcircle._eval_pair
        original_polish = trigcircle._newton_polish

        def counted_pair(T, dT, theta):
            evals["pair"] += 1
            return original_pair(T, dT, theta)

        def recorded_polish(T, dT, theta):
            before = evals["pair"]
            out = original_polish(T, dT, theta)
            per_call.append((evals["pair"] - before, trigcircle._POLISH_STEPS, np.size(theta)))
            return out

        monkeypatch.setattr(trigcircle, "_eval_pair", counted_pair)
        monkeypatch.setattr(trigcircle, "_newton_polish", recorded_polish)
        for T in (random_trig(np.random.default_rng(5), 30), fresh(DOUBLE_ZERO_T), fresh(ONE_MINUS_COS_SQUARED)):
            per_call.clear()
            zeros = trig_zeros(T)
            assert len(per_call) == 1
            assert per_call[0][2] == simple_cluster_angles(T).size == sum(z.multiplicity == 1 for z in zeros)
            assert per_call[0][0] <= per_call[0][1] + 1
        assert per_call[0][2] == 0  # (1 - cos t)^2 has only its fourfold zero

    def test_polish_stops_at_the_rounding_level(self, monkeypatch):
        # from the grid brackets of these T, each polish call takes 3-5 sweeps;
        # an angle that stopped only after a step below an absolute 1e-15 ran
        # all 60 sweeps in every one of the 8 calls
        evals, sweeps = Counter(), []
        original_pair, original_polish = trigcircle._eval_pair, trigcircle._newton_polish

        def counted_pair(T, dT, theta):
            evals["pair"] += 1
            return original_pair(T, dT, theta)

        def no_kernel(c):
            raise AssertionError("the grid proof should place every zero")

        def recorded_polish(T, dT, theta):
            before = evals["pair"]
            out = original_polish(T, dT, theta)
            sweeps.append(evals["pair"] - before - 1)  # one table at the starts
            return out

        monkeypatch.setattr(trigcircle, "_eval_pair", counted_pair)
        monkeypatch.setattr(trigcircle, "_newton_polish", recorded_polish)
        monkeypatch.setattr(trigcircle, "_root_clusters", no_kernel)
        for n in (55, 300):
            for seed in range(4):
                assert len(trig_zeros(random_trig(np.random.default_rng(seed), n))) > 0
        assert len(sweeps) == 8
        assert max(sweeps) <= 8

    def test_pellet_split_idle_on_random_input(self, monkeypatch):
        # random trig polynomials have simple, well-separated roots, so every
        # Gerschgorin disc is alone and the Pellet split never runs; a
        # multiple zero makes it run (the grid proof is switched off here, so
        # that every polynomial reaches the kernel, and the multiple zero is
        # found on a fresh copy, which has not kept it)
        calls = Counter()
        original = trigcircle._pellet_split

        def counted(*args):
            calls["split"] += 1
            return original(*args)

        monkeypatch.setattr(trigcircle, "_pellet_split", counted)
        monkeypatch.setattr(trigcircle, "_grid_brackets", lambda T, dT: None)
        rng = np.random.default_rng(21)
        for n in range(1, 56):
            T = random_trig(rng, n)
            trig_zeros(T)
            trig_zeros(T.derivative())
        assert calls["split"] == 0
        assert [z.multiplicity for z in trig_zeros(fresh(ONE_MINUS_COS_SQUARED))] == [4]
        assert calls["split"] > 0

    def test_kernel_only_where_the_grid_proof_fails(self, tmp_path, monkeypatch):
        # random polynomials and their derivatives have only simple zeros,
        # which the grid proof places: no eigensolve, up to degree 300
        calls = Counter()
        original = trigcircle._root_clusters

        def counted(c):
            calls["kernel"] += 1
            return original(c)

        monkeypatch.setattr(trigcircle, "_root_clusters", counted)
        rng = np.random.default_rng(21)
        for n in range(1, 56):
            T = random_trig(rng, n)
            trig_zeros(T)
            trig_zeros(T.derivative())
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(random_trig(np.random.default_rng(300), 300).to_json()))
        assert main(["trig-verify", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 0
        assert calls["kernel"] == 0
        # one eigensolve per polynomial with a multiple zero: (1 - cos t)^2,
        # (1 - cos t)^3 and (2 cos t - 0.3)^3, each a fresh copy; a second
        # call reads the zeros T keeps
        shifted = np.array([1.0, -0.3, 1.0])
        cubed = series_pairs_loop(np.convolve(np.convolve(shifted, shifted), shifted))
        for T in (fresh(ONE_MINUS_COS_SQUARED), TrigPoly(2.5, [(-3.75, 0.0), (1.5, 0.0), (-0.25, 0.0)]), TrigPoly(*cubed)):
            calls.clear()
            zeros = trig_zeros(T)
            assert calls["kernel"] == 1 and max(z.multiplicity for z in zeros) >= 3
            assert trig_zeros(T) is zeros and calls["kernel"] == 1

    def test_certificate_samples_each_sup_grid_once(self, monkeypatch):
        transforms, asked = Counter(), []
        original_irfft, original_sup = np.fft.irfft, TrigPoly.sup_norm

        def counted_irfft(*args, **kwargs):
            transforms["irfft"] += 1
            return original_irfft(*args, **kwargs)

        def recorded_sup(self):
            asked.append(self)
            return original_sup(self)

        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        monkeypatch.setattr(TrigPoly, "sup_norm", recorded_sup)
        T = random_trig(np.random.default_rng(3), 12)
        rep = zero_gap_certificate(T)
        assert not rep.q_identically_zero
        # one sup norm each for T', T and T's harmonics below n, from three
        # transforms: T with T' for its zeros, whose T row T keeps as its
        # grid for the bound on its critical values, T' with T'' for its
        # brackets, and the harmonics
        assert len(set(map(id, asked))) == 3 and transforms["irfft"] == 3
        # the certificate ran on a scaled copy, so T itself transforms once;
        # a repeated call reads the grid T keeps
        sup = T.sup_norm()
        assert T.sup_norm() == sup and transforms["irfft"] == 4
        assert abs(sup - termwise_sup(T)) <= sup_rounding_bound(T)


class TestSupNorm:
    """The FFT maximum against the term-wise maximum on the same N angles."""

    def test_random_low_degrees(self):
        rng = np.random.default_rng(17)
        for n in list(range(0, 61)) + list(rng.integers(0, 61, 20)):
            T = random_trig(rng, int(n))
            assert abs(T.sup_norm() - termwise_sup(T)) <= sup_rounding_bound(T)

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4097])
    def test_nyquist_and_folded_degrees(self, n):
        T = random_trig(np.random.default_rng(n), n)
        assert abs(T.sup_norm() - termwise_sup(T)) <= sup_rounding_bound(T)

    def test_grid_grows_with_the_degree(self):
        assert [sup_points(n) for n in (0, 1, 1024, 1025, 2048, 4097)] == [2, 16, 16384, 32768, 32768, 131072]

    def test_sine_on_the_old_nyquist_bin(self):
        # sin 2048 theta vanishes at every one of 4096 equally spaced angles;
        # on 8192 angles it reaches +-1
        T = sin_n(2048)
        assert T.eval(0.1) == pytest.approx(-0.5617317454496469, abs=1e-12)
        assert T.sup_norm() == 1.0

    def test_frequency_above_the_old_grid(self):
        # sin theta - sin 4097 theta = -2 cos 2049 theta sin 2048 theta
        # cancels on 4096 equally spaced angles; its sup is at most 2, and
        # no grid of 4n or more angles reads less than cos(pi/4) of it
        T = TrigPoly(0.0, [(0.0, 1.0)] + [(0.0, 0.0)] * 4095 + [(0.0, -1.0)])
        sup = T.sup_norm()
        assert math.cos(math.pi / 4) * 2.0 <= sup <= 2.0
        grid = np.arange(32768) * (TWO_PI / 32768)
        closed_form = float(np.max(np.abs(2.0 * np.cos(2049 * grid) * np.sin(2048 * grid))))
        assert abs(sup - closed_form) <= sup_rounding_bound(T)

    @pytest.mark.parametrize("k", [-1000, 1000])
    @pytest.mark.parametrize("n", [1, 9, 60])
    def test_extreme_scales_neither_overflow_nor_flush(self, k, n):
        T = random_trig(np.random.default_rng(n), n)
        S = TrigPoly(math.ldexp(T.a0, k), [(math.ldexp(a, k), math.ldexp(b, k)) for a, b in T.coeffs])
        sup = S.sup_norm()
        assert math.isfinite(sup) and sup > 0.0
        assert sup == pytest.approx(math.ldexp(T.sup_norm(), k), rel=1e-14)
        assert abs(sup - termwise_sup(S)) <= sup_rounding_bound(S)


class TestZeros:
    def test_cos2_zeros(self):
        zs = trig_zeros(cos_n(2))
        assert [z.multiplicity for z in zs] == [1, 1, 1, 1]
        expected = [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
        assert np.allclose([z.theta for z in zs], expected, atol=1e-12)

    def test_double_zero_detected(self):
        zs = trig_zeros(DOUBLE_ZERO_T)
        assert sum(z.multiplicity for z in zs) == 4
        assert zs[0].multiplicity == 2
        assert min(zs[0].theta, TWO_PI - zs[0].theta) < 1e-8
        simple = [z.theta for z in zs if z.multiplicity == 1]
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
            assert sum(z.multiplicity for z in zs) <= 2 * T.degree
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
            got = sorted(z.theta for z in trig_zeros(T))
            expected = grid_zeros(T.eval, samples=100_001)
            assert len(got) >= len(expected) - 1  # grid may miss tangential zeros
            for z in expected:
                assert min(circle_distance(z, g) for g in got) < 1e-7


class TestZeroAndFlagProperties:
    """trig_zeros and the extremal flag on random T of degree 1 - 60, on 2^k T
    and on T (1 - cos(theta - phi)), against sign changes on a grid and the
    comparison polynomial Q."""

    SCALES = (-1000, 0, 1000)
    # sign changes on 2^16 angles, refined by brentq (a bracketing method)
    GRID = 1 << 16

    @staticmethod
    def times_double_zero(T, phi):
        """T (1 - cos(theta - phi)), through the product of the two centered series."""
        factor = TrigPoly(1.0, [(-math.cos(phi), -math.sin(phi))])
        a0, pairs = series_pairs_loop(np.convolve(companion_series_loop(T), companion_series_loop(factor)))
        return TrigPoly(a0, pairs)

    @classmethod
    def case(cls, seed, n, k, double):
        rng = np.random.default_rng(seed)
        T = random_trig(rng, n)
        # phi halfway between two grid angles, so that no sample sits on the double zero
        phi = (int(rng.integers(cls.GRID)) + 0.5) * (TWO_PI / cls.GRID)
        if double:
            T = cls.times_double_zero(T, phi)
        return TrigPoly(math.ldexp(T.a0, k), np.ldexp(T.coeffs, k)), phi

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        k=st.sampled_from(SCALES),
        double=st.booleans(),
    )
    def test_zeros_are_the_sign_changes_and_the_double_zero(self, seed, n, k, double):
        T, phi = self.case(seed, n, k, double)
        zeros = trig_zeros(T)
        sup = termwise_sup(T)
        thetas = [z.theta for z in zeros]
        assert all(abs(T.eval(t)) <= 1e-8 * sup for t in thetas)
        assert thetas == sorted(thetas)
        assert all(circle_distance(a, b) > 1e-6 for i, a in enumerate(thetas) for b in thetas[i + 1 :])
        odd = [z.theta for z in zeros if z.multiplicity % 2]
        # grid_zeros multiplies neighbouring values, which under- or overflows
        # at 2^-+1000, so it reads the signs of T itself
        changes = grid_zeros(lambda t: np.ldexp(loop_eval(T, t), -k), samples=self.GRID + 1)
        changes = sorted(t % TWO_PI for t in changes)
        assert len(odd) == len(changes)
        assert all(min(circle_distance(t, c) for c in changes) <= 1e-8 for t in odd)
        if double:
            near = [z for z in zeros if circle_distance(z.theta, phi) <= 1e-6]
            assert [z.multiplicity for z in near] == [2]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        k=st.sampled_from(SCALES),
        shape=st.sampled_from(["random", "double", "top", "top+lower"]),
        log_size=st.floats(-8.0, 0.0),
    )
    def test_flag_is_set_exactly_by_a_pure_top_harmonic(self, seed, n, k, shape, log_size):
        rng = np.random.default_rng(seed)
        if shape in ("random", "double"):
            T, _ = self.case(seed, n, k, shape == "double")
            extremal = False
        else:
            # A cos(n (theta - psi)), plus a lower harmonic of sup norm
            # 10^log_size A for "top+lower"
            A, psi = float(rng.uniform(0.1, 10.0)) * rng.choice([-1.0, 1.0]), float(rng.uniform(0.0, TWO_PI))
            a0, pairs = 0.0, np.zeros((n, 2))
            pairs[-1] = A * math.cos(n * psi), A * math.sin(n * psi)
            extremal = shape == "top"
            if not extremal:
                size, j = abs(A) * 10.0**log_size, int(rng.integers(0, n))
                if j == 0:
                    a0 = size * rng.choice([-1.0, 1.0])
                else:
                    angle = float(rng.uniform(0.0, TWO_PI))
                    pairs[j - 1] = size * math.cos(angle), size * math.sin(angle)
            T = TrigPoly(math.ldexp(a0, k), np.ldexp(pairs, k))
        rep = zero_gap_certificate(T)
        assert rep.q_identically_zero is extremal
        assert comparison_flag_loop(T, rep.max_points[0]) is extremal


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
        assert zero_gap_certificate(cos_n(n)).min_distance == pytest.approx(math.pi / (2 * n), abs=1e-12)

    def test_double_zero_instance(self):
        assert zero_gap_certificate(DOUBLE_ZERO_T).min_distance == pytest.approx(DZ_MIN_DIST, abs=1e-9)

    def test_constant_sentinel(self):
        assert zero_gap_certificate(TrigPoly(1.0)).min_distance == math.inf


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
        T = TrigPoly(0.0, shift_loop(cos_n(4, amp=-2.5), 0.3))
        rep = zero_gap_certificate(T)
        assert rep.q_identically_zero
        assert rep.min_distance == pytest.approx(math.pi / 8, abs=1e-10)

    @pytest.mark.parametrize("k", [-1040, -1030, -1000, 0, 1000])
    def test_power_of_two_scale_keeps_the_certificate(self, k):
        # dyadic coefficients, so that 2^k T is exact down to subnormal scale
        rng = np.random.default_rng(6)
        cases = [
            cos_n(3),
            sin_n(2, amp=-0.75),
            # (1 - cos t)(0.75 + cos t): a double zero at 0
            TrigPoly(0.25, [(0.25, 0.0), (-0.5, 0.0)]),
            TrigPoly(0.125, [tuple(rng.integers(-64, 65, 2) / 64) for _ in range(5)]),
        ]
        for T in cases:
            S = TrigPoly(math.ldexp(T.a0, k), [(math.ldexp(a, k), math.ldexp(b, k)) for a, b in T.coeffs])
            ref, rep = zero_gap_certificate(T), zero_gap_certificate(S)
            assert rep.zeros == ref.zeros and rep.max_points == ref.max_points
            assert (rep.passed, rep.q_identically_zero) == (ref.passed, ref.q_identically_zero)
            assert rep.max_value == math.ldexp(ref.max_value, k)

    def test_derivatives_of_huge_input_do_not_overflow(self):
        # T'' has a coefficient 4.5e308 unless the root finders rescale first
        T = TrigPoly(0.0, [(5e307, 0.0), (0.0, 0.0), (5e307, 0.0)])
        ref_T = TrigPoly(0.0, [(0.5, 0.0), (0.0, 0.0), (0.5, 0.0)])
        rep, ref = zero_gap_certificate(T), zero_gap_certificate(ref_T)
        angles, ref_angles = ([z.theta for z in r.zeros] for r in (rep, ref))
        assert rep.passed and np.allclose(angles, ref_angles, rtol=0.0, atol=1e-12)
        assert rep.max_value == pytest.approx(1e308, rel=1e-12)
        M, pts = trig_max_points(T)
        assert M == pytest.approx(1e308, rel=1e-12) and pts == trig_max_points(ref_T)[1]
        assert trig_zeros(T.derivative()) == trig_zeros(ref_T.derivative())

    def test_maximum_beyond_the_largest_double_rejected(self):
        T = TrigPoly(0.0, [(1e308, 0.0), (1e308, 0.0)])
        for find in (trig_max_points, zero_gap_certificate):
            with pytest.raises(ValueError, match="largest double"):
                find(T)

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

    def test_interlacing_on_given_roots(self, monkeypatch):
        # after the certificate, interlacing_check reads the zeros and maxima
        # T keeps, proving no bracket again, and agrees with a fresh copy of
        # T that finds them itself
        for T in (cos_n(4), sin_n(3), fresh(DOUBLE_ZERO_T), random_trig(np.random.default_rng(4), 5)):
            T = trigcircle._unit_scaled(T)[1]
            rep = zero_gap_certificate(T)
            with monkeypatch.context() as m:
                m.setattr(trigcircle, "_grid_brackets", lambda *args: pytest.fail("a root set was found again"))
                kept = interlacing_check(T)
            assert kept[0] == rep.interlacing
            assert kept == interlacing_check(fresh(T))


class TestKeptAnswers:
    """T keeps its grid, zeros and maxima; what callers receive cannot alter them."""

    def test_certificate_transforms_three_times(self, monkeypatch):
        # the zero proof's stacked transform leaves its T row as T's grid,
        # which the bound on T's critical values then reads: T with T', T'
        # with T'' and T's harmonics below n, one transform each
        sizes, original = [], np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: sizes.append(1) or original(*args, **kwargs))
        T = trigcircle._unit_scaled(random_trig(np.random.default_rng(12), 12))[1]
        zero_gap_certificate(T)
        assert len(sizes) == 3
        # the kept T row equals T's own single-row transform bit for bit
        single = original(T._spectrum(), trigcircle._grid_size(12), norm="forward")
        assert T._grid.tobytes() == single.tobytes()

    def test_kept_answers_are_immutable(self):
        T = random_trig(np.random.default_rng(9), 9)
        zeros, (M, pts) = trig_zeros(T), trig_max_points(T)
        assert isinstance(zeros, tuple) and trig_zeros(T) is zeros
        with pytest.raises(AttributeError):
            zeros[0].theta = 0.0
        pts.append(0.0)
        pts[0] = -1.0
        again = trig_max_points(T)
        assert again == trig_max_points(fresh(T)) and again[1] is not trig_max_points(T)[1]
        assert again[0] == M and len(again[1]) == len(pts) - 1


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

    @pytest.mark.parametrize("a0, pair", [(0.0, (math.inf, 0.0)), (math.nan, (1.0, 0.0)), (1.0, (0.5, -math.inf))])
    def test_non_finite_coefficients_rejected(self, a0, pair):
        with pytest.raises(ValueError, match="finite"):
            TrigPoly(a0, [pair], trim=True)

    @pytest.mark.parametrize("coeffs", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1]], [1.0, 2.0], [[]]])
    def test_non_pairs_rejected(self, coeffs):
        with pytest.raises(ValueError, match="pairs"):
            TrigPoly(1.0, coeffs)

    def test_coefficients_are_read_only(self):
        T = TrigPoly(0.3, [(0.5, -0.2), (0.1, 0.4)])
        assert T.coeffs.shape == (2, 2) and T.coeffs.dtype == float
        with pytest.raises(ValueError):
            T.coeffs[0, 0] = 1.0

    def test_untrimmed_zero_leading_pair_rejected(self):
        with pytest.raises(ValueError):
            TrigPoly(1.0, [(0.0, 0.0)])

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
        assert U.a0 == T.a0 and U.coeffs.tobytes() == T.coeffs.tobytes()

    def test_json_degree_must_match_pairs(self):
        with pytest.raises(ValueError, match='"n" is 4'):
            TrigPoly.from_json({"n": 4, "a0": 0, "c": [[1, 0]]})
        with pytest.raises(ValueError):
            TrigPoly.from_json({"n": 0, "a0": 1, "c": [[1, 0]]})

    def test_json_degree_counts_pairs_before_trimming(self):
        T = TrigPoly.from_json({"n": 2, "a0": 1.0, "c": [[0.5, 0.0], [0.0, 0.0]]})
        assert T.degree == 1
        assert TrigPoly.from_json({"a0": 1.0, "c": [[0.5, 0.0], [0.0, 0.0]]}).degree == 1
