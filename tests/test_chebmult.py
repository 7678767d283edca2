import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from zerogap.chebmult import (
    _CURVATURE_WINDOW,
    _WINDOW,
    _cancelled_halves,
    _tail_terms,
    ball_multiplier,
    ball_multiplier_log,
    ball_multiplier_log_curvature,
    ball_multiplier_log_slope,
    cheb_eval,
    cheb_positive_zeros,
    cheb_tail_product,
    convergence_report,
    trig_tail_product,
)

from _oracles import (
    cheb_recurrence,
    sorted_tail_product,
    truncated_tail_product,
    whole_array_log_curvature,
    whole_array_log_slope,
    whole_array_multiplier_log,
    whole_array_tail_product,
)


class TestChebEval:
    def test_t2(self):
        assert cheb_eval(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
    def test_value_one_at_one(self, k):
        assert cheb_eval(k, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_t4_explicit_expansion(self):
        x = 0.3
        expected = 8 * x**4 - 8 * x**2 + 1  # 0.3448
        assert expected == pytest.approx(0.3448, abs=1e-12)
        assert cheb_eval(4, x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 5, 17, 60, 200])
    def test_matches_recurrence(self, k):
        xs = np.linspace(-2.0, 2.0, 41)
        ref = cheb_recurrence(k, xs)
        got = cheb_eval(k, xs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            cheb_eval(-1, 0.0)


class TestPositiveZeros:
    def test_k2(self):
        assert np.allclose(cheb_positive_zeros(2), [math.sqrt(2) / 2], atol=1e-15)

    def test_k4(self):
        t = cheb_positive_zeros(4)
        assert np.allclose(t, [math.cos(3 * math.pi / 8), math.cos(math.pi / 8)], atol=1e-15)

    def test_k3(self):
        assert np.allclose(cheb_positive_zeros(3), [math.sqrt(3) / 2], atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5, 12, 51, 200])
    def test_are_roots_increasing_in_unit_interval(self, k):
        t = cheb_positive_zeros(k)
        assert len(t) == k // 2
        assert np.all(np.diff(t) > 0)
        assert np.all((t > 0) & (t < 1))
        # |T_k'| reaches 2k^2/pi at the outermost zero, so the residual of
        # the correctly rounded root grows like k^2 * eps
        tol = max(1e-12, 2 * k**2 / math.pi * 8e-16)
        assert np.max(np.abs(cheb_eval(k, t))) < tol

    def test_too_small_order(self):
        with pytest.raises(ValueError):
            cheb_positive_zeros(1)


class TestFiniteTail:
    def test_value_one_at_origin(self):
        for n, k in [(1, 3), (2, 4), (3, 11), (6, 20)]:
            assert cheb_tail_product(n, k, 0.0) == 1.0

    def test_single_factor_root(self):
        x = 3 * math.sqrt(3) / 2  # 3 * t_{1,3}
        assert cheb_tail_product(1, 3, x) == pytest.approx(0.0, abs=1e-15)

    def test_n2_k4_at_one(self):
        expected = 1 - (1 / (4 * math.cos(math.pi / 8))) ** 2  # 0.9267766952966369
        assert expected == pytest.approx(0.92679, abs=2e-5)
        assert cheb_tail_product(2, 4, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_parity_and_range_errors(self):
        with pytest.raises(ValueError):
            cheb_tail_product(2, 5, 0.0)
        with pytest.raises(ValueError):
            cheb_tail_product(4, 4, 0.0)

    @pytest.mark.parametrize("n,k", [(2, 8), (3, 9), (1, 7), (4, 12), (5, 25), (2, 100)])
    def test_omitted_factor_identity(self, n, k):
        # dropped leading factors times the tail reproduce the scaled Chebyshev
        t = cheb_positive_zeros(k)
        xs = np.linspace(-k / 2, k / 2, 501)
        prefix = np.ones_like(xs)
        for i in range(n // 2):
            prefix *= 1 - (xs / (k * t[i])) ** 2
        if k % 2 == 1:
            prefix *= xs
        lhs = (-1.0) ** (k // 2) * cheb_eval(k, xs / k)
        rhs = prefix * cheb_tail_product(n, k, xs)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(lhs)))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_reversed_roots_are_the_sorted_order(self, n):
        # |factor - 1| = (x/root)^2 never decreases along the reversed roots,
        # so their product is the product of each point's sorted factors;
        # grids as in convergence_report, inside and far past the roots
        for k in range(n + 2, n + 239, 2):
            for half_width in (1.0, 3.5, 12.0, 40.0):
                xs = np.linspace(-half_width, half_width, 256)
                assert cheb_tail_product(n, k, xs).tobytes() == sorted_tail_product(n, k, xs).tobytes()


class TestAnalyticTail:
    def test_sinc_at_zero(self):
        assert trig_tail_product(1, 0.0) == 1.0

    def test_removable_singularity_limit(self):
        # limit of cos x / (1 - (2x/pi)^2) at pi/2 is pi/4
        assert trig_tail_product(2, math.pi / 2) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_plain_zero_of_sine(self):
        assert trig_tail_product(1, math.pi) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20])
    def test_even_function(self, n):
        xs = np.linspace(0.0, 9.0, 301)
        assert np.array_equal(trig_tail_product(n, xs), trig_tail_product(n, -xs))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_against_truncated_product_oracle(self, n):
        xs = np.linspace(0.05, 3.0, 60)
        # stay clear of the removable singularities by at least 1e-3
        if n % 2 == 0:
            sing = [(2 * i - 1) * math.pi / 2 for i in range(1, n // 2 + 1)]
        else:
            sing = [i * math.pi for i in range(1, (n - 1) // 2 + 1)]
        keep = [x for x in xs if all(abs(x - s) > 1e-3 for s in sing)]
        got = trig_tail_product(n, np.array(keep))
        ref = truncated_tail_product(n, np.array(keep))
        assert np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref))

    def test_series_window_is_smooth(self):
        # values just inside and outside the series window must agree
        for n in (2, 3, 6, 15):
            sing = (
                [(2 * i - 1) * math.pi / 2 for i in range(1, n // 2 + 1)]
                if n % 2 == 0
                else [i * math.pi for i in range(1, (n - 1) // 2 + 1)]
            )
            for x0 in sing:
                for s in (-1.0, 1.0):
                    a = trig_tail_product(n, x0 + s * 0.9995e-3)
                    b = truncated_tail_product(n, np.array([x0 + s * 0.9995e-3]))[0]
                    assert a == pytest.approx(b, rel=1e-7)


class TestBallMultiplier:
    def test_value_at_one_for_degree_one(self):
        assert ball_multiplier(1, 1.0) == pytest.approx(2 / math.pi, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 20])
    def test_value_one_at_origin(self, n):
        assert ball_multiplier(n, 0.0) == 1.0

    def test_removable_point_degree_two(self):
        assert ball_multiplier(2, 0.5) == pytest.approx(math.pi / 4, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_even_and_nonvanishing_inside(self, n):
        xs = np.linspace(0.0, 1 + 1 / n - 1e-6, 2000)
        vals = ball_multiplier(n, xs)
        assert np.array_equal(vals, ball_multiplier(n, -xs))
        assert np.all(vals > 0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_first_zero_location(self, n):
        target = 1 + 1 / n
        root = brentq(lambda x: ball_multiplier(n, x), target - 1e-3, target + 1e-3, xtol=1e-14)
        assert abs(root - target) < 1e-9


def mp_log_abs(mpmath, n):
    """log|M(x)| as a function of an mpmath number x, from the closed form of
    the tail (cos u or sin u / u over its cancelled factors) at u = n pi x / 2."""

    def log_abs_tail(t):
        u = n * mpmath.pi * t / 2
        if n % 2 == 0:
            num, cancelled = mpmath.cos(u), [(2 * i - 1) * mpmath.pi / 2 for i in range(1, n // 2 + 1)]
        else:
            num, cancelled = mpmath.sin(u) / u, [i * mpmath.pi for i in range(1, (n - 1) // 2 + 1)]
        for x0 in cancelled:
            num /= 1 - (u / x0) ** 2
        return mpmath.log(abs(num))

    return log_abs_tail


def mp_slope(mpmath, n):
    """d/dx log|M(x)| by a central difference of step 1e-20 of :func:`mp_log_abs`."""
    log_abs, h = mp_log_abs(mpmath, n), mpmath.mpf("1e-20")
    return lambda t: (log_abs(t + h) - log_abs(t - h)) / (2 * h)


class TestMultiplierLog:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 20, 201, 800])
    def test_log_of_the_product_where_it_is_a_normal_float(self, n):
        xs = np.linspace(-1.0, 1.0, 4001)
        assert ball_multiplier_log(n, xs).tobytes() == np.log(np.abs(ball_multiplier(n, xs))).tobytes()
        assert ball_multiplier_log(n, 0.0) == 0.0

    @pytest.mark.parametrize("n", [899, 900, 1000, 1001, 1200])
    def test_finite_at_high_degree(self, n):
        # finite, even, no warning, and 30-digit values; at degree 1200 the
        # tail itself falls below the normal range near |x| = 1, and the log
        # comes from the sum of the logs of its terms
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-1.0, 1.0, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            logs = ball_multiplier_log(n, xs)
            if n == 1200:
                with np.errstate(under="ignore"):
                    assert not np.all(np.abs(ball_multiplier(n, xs)) >= np.finfo(float).tiny)
        assert np.all(np.isfinite(logs)) and np.array_equal(logs, ball_multiplier_log(n, -xs))
        log_abs = mp_log_abs(mpmath, n)
        with mpmath.workdps(30):
            pole = (701 - n % 2) / n  # a cancelled zero: in its window, then just outside
            for x in (0.2468, 0.7712, 0.99937, 1.0, pole - 1e-7, pole + 1e-6):
                ref = float(log_abs(mpmath.mpf(x)))
                assert abs(ball_multiplier_log(n, x) - ref) <= 1e-12 * abs(ref), x


class TestMultiplierAtHighDegree:
    @pytest.mark.parametrize("n", [850, 900, 1000])
    def test_no_zero_where_the_denominator_overflows(self, n):
        # the denominator leaves the float range from degree about 805; the
        # value there is the signed exp of the terms' logs, a normal float
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-1.0, 1.0, 257)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = ball_multiplier(n, xs)
            logs = ball_multiplier_log(n, xs)
        assert np.all(np.abs(vals) >= np.finfo(float).tiny)
        assert np.array_equal(vals, ball_multiplier(n, -xs))
        assert np.allclose(np.abs(vals), np.exp(logs), rtol=1e-13, atol=0.0)
        log_abs = mp_log_abs(mpmath, n)
        with mpmath.workdps(30):
            for x in (0.2468, 0.7712, 0.99937, 1.0):
                ref = float(mpmath.exp(log_abs(mpmath.mpf(x))))
                assert abs(abs(ball_multiplier(n, x)) - ref) <= 1e-11 * ref, x

    @pytest.mark.parametrize("n", [1, 2, 9, 201, 799, 800])
    def test_quotient_below_the_overflow(self, n):
        # up to degree 800 every value is the plain quotient of the tail's terms
        xs = np.linspace(-1.0, 1.0, 4001)
        top, factors = _tail_terms(n, n * math.pi * np.abs(xs) / 2.0)
        den = np.ones_like(xs)
        for factor in factors:
            den *= factor
        assert ball_multiplier(n, xs).tobytes() == (top / den).tobytes()


def mp_log_slope(mpmath, n, x):
    """d/dx log|M(x)| at 60 digits (:func:`mp_slope`)."""
    with mpmath.workdps(60):
        return float(mp_slope(mpmath, n)(mpmath.mpf(x)))


def mp_log_curvature(mpmath, n, x):
    """d^2/dx^2 log|M(x)| at 60 digits, by a central difference of step
    1e-10 of :func:`mp_slope` (the step keeps the slope's points off the
    cancelled poles, where the tail is 0/0)."""
    with mpmath.workdps(60):
        slope, x, h = mp_slope(mpmath, n), mpmath.mpf(x), mpmath.mpf("1e-10")
        return float((slope(x + h) - slope(x - h)) / (2 * h))


def window_points(n, window):
    """Points of x in [0, 1] inside and just outside the window of each
    cancelled pole k pi / 2 of the tail (at x = k / n), and of the removable
    point 0 of sin u / u for odd n: relative positions within +-1 and beyond."""
    halves = range(1, n, 2) if n % 2 == 0 else range(0, n, 2)
    half_width = window * 2 / (n * math.pi)
    return [
        k / n + pos * half_width
        for k in halves
        for pos in (-1.5, -1.001, -0.999, -0.5, -1e-3, 0.0, 1e-6, 0.3, 0.999, 1.001, 3.0)
        if k or pos
    ]


class TestMultiplierLogSlope:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_high_precision_differences(self, n):
        mpmath = pytest.importorskip("mpmath")
        grid = np.linspace(-1.0, 1.0, 41)
        for x in list(grid[grid != 0.0]) + window_points(n, _WINDOW):
            ref = mp_log_slope(mpmath, n, x)
            assert abs(ball_multiplier_log_slope(n, x) - ref) <= 1e-11 * max(1.0, abs(ref)), x

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_odd_and_batched(self, n):
        xs = np.linspace(0.0, 1.0, 1001)
        slope = ball_multiplier_log_slope(n, xs)
        assert np.array_equal(ball_multiplier_log_slope(n, -xs), -slope)
        assert slope[0] == 0.0
        assert all(ball_multiplier_log_slope(n, float(x)) == s for x, s in zip(xs[::97], slope[::97]))
        # M falls from 1 at the centre towards its first zero at 1 + 1/n
        assert np.all(slope[1:] < 0.0)


class TestMultiplierLogCurvature:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_high_precision_differences(self, n):
        # measured at most 9e-13 relative, just outside the series window
        mpmath = pytest.importorskip("mpmath")
        xs = list(np.linspace(-1.0, 1.0, 41)) + window_points(n, _WINDOW) + window_points(n, _CURVATURE_WINDOW)
        for x in xs:
            ref = mp_log_curvature(mpmath, n, x)
            assert abs(ball_multiplier_log_curvature(n, x) - ref) <= 1e-11 * max(1.0, abs(ref)), x

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_even_and_batched(self, n):
        xs = np.linspace(0.0, 1.0, 1001)
        curv = ball_multiplier_log_curvature(n, xs)
        assert np.array_equal(ball_multiplier_log_curvature(n, -xs), curv)
        assert all(ball_multiplier_log_curvature(n, float(x)) == c for x, c in zip(xs[::97], curv[::97]))
        # log M is concave: M is a product of factors 1 - (x / x_i)^2 over its
        # zeros x_i beyond 1 + 1/n
        assert np.all(curv < 0.0)


def series_points(n):
    """Arguments u of the tail at each cancelled zero x0 = k pi / 2, and at 0
    for odd n, offset by 0, 1e-9, half and twice each series window either
    way, with a grid of [-n pi / 2, n pi / 2] between them."""
    centres = [k * math.pi / 2 for k in _cancelled_halves(n)] + ([0.0] if n % 2 else [])
    offsets = [s * h for h in (0.0, 1e-9, _WINDOW / 2, 2 * _WINDOW, _CURVATURE_WINDOW / 2, 2 * _CURVATURE_WINDOW) for s in (-1, 1)]
    return np.array([c + h for c in centres for h in offsets] + list(np.linspace(-n * math.pi / 2, n * math.pi / 2, 97)))


class TestSeriesOnlyInTheirWindows:
    """The tail, the log and its derivatives have the bytes of the same
    formulas with every series run on every entry."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_near_the_windows(self, n):
        u = series_points(n)
        x = 2.0 * u / (n * math.pi)
        assert trig_tail_product(n, u).tobytes() == whole_array_tail_product(n, u).tobytes()
        assert ball_multiplier_log(n, x).tobytes() == whole_array_multiplier_log(n, x).tobytes()
        assert ball_multiplier_log_slope(n, x).tobytes() == whole_array_log_slope(n, x).tobytes()
        assert ball_multiplier_log_curvature(n, x).tobytes() == whole_array_log_curvature(n, x).tobytes()

    @pytest.mark.parametrize("n", [1029, 1030])
    def test_on_the_far_branch(self, n):
        # the tail and the denominator leave the float range near |x| = 1
        x = np.concatenate([np.linspace(0.9, 1.0 + 1.0 / n, 301), -np.linspace(0.99, 1.0, 11)])
        x = np.concatenate([x, [k / n for k in _cancelled_halves(n)][-3:]])
        u = n * math.pi * x / 2.0
        with np.errstate(under="ignore"):
            assert trig_tail_product(n, u).tobytes() == whole_array_tail_product(n, u).tobytes()
            assert ball_multiplier_log(n, x).tobytes() == whole_array_multiplier_log(n, x).tobytes()
        assert ball_multiplier_log_slope(n, x).tobytes() == whole_array_log_slope(n, x).tobytes()
        assert ball_multiplier_log_curvature(n, x).tobytes() == whole_array_log_curvature(n, x).tobytes()


class TestCancelledPoles:
    """The closed form's denominator vanishes at x = k/n in multiplier coordinates."""

    def test_even_poles(self):
        assert [k / 4 for k in _cancelled_halves(4)] == [0.25, 0.75]

    def test_odd_poles(self):
        assert [k / 5 for k in _cancelled_halves(5)] == [0.4, 0.8]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_poles_inside_range(self, n):
        assert all(k % 2 != n % 2 for k in _cancelled_halves(n))
        assert all(0 < k / n <= 1 + 1 / n for k in _cancelled_halves(n))
        assert ball_multiplier(n, 0.0) == 1.0


class TestConvergence:
    def test_errors_shrink_and_meet_targets(self):
        rep = convergence_report(2, [20, 40, 100, 200], 5.0)
        e1, e2 = rep.scaled_cheb_errors, rep.tail_errors
        assert all(a > b for a, b in zip(e1, e1[1:]))
        assert e1[2] < 1e-2  # k = 100
        assert e2[3] < 1e-3  # k = 200
        assert all(a > b for a, b in zip(e2, e2[1:]))

    def test_degenerate_interval(self):
        # T_k(0) matches the target at 0 for both parities, up to the cos()
        # rounding floor for odd k
        rep = convergence_report(2, [10, 20], 0.0)
        assert all(e <= 1e-14 for e in rep.scaled_cheb_errors)
        assert rep.tail_errors == (0.0, 0.0)
        rep_odd = convergence_report(3, [9, 21], 0.0)
        assert all(e <= 1e-14 for e in rep_odd.scaled_cheb_errors)
        assert rep_odd.tail_errors == (0.0, 0.0)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            convergence_report(2, [21], 5.0)
