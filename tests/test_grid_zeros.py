"""The grid proof of trig_zeros (trigcircle._grid_brackets) against the
root-cluster kernel, against 40-digit zeros and on adversarial input.

Every polynomial must either have each of its zeros placed, simple, in a
bracket of its own, or go whole to the kernel: no zero is lost or invented
either way."""

import json
import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from zerogap import trigcircle
from zerogap.cli import main
from zerogap.trigcircle import TrigPoly, trig_zeros
from zerogap.trigcircle import circle_distance as arc

from _oracles import companion_series_loop, series_pairs_loop

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
# the zeros of both paths lie within a few ulps of 2 pi of the true ones
ULP_2PI = float(np.spacing(TWO_PI))


def random_trig(rng, n):
    return TrigPoly(float(rng.standard_normal()), rng.standard_normal((n, 2)))


def product(*factors):
    """The expanded product of trig polynomials, through their series."""
    series = np.array([1.0 + 0j])
    for T in factors:
        series = np.convolve(series, companion_series_loop(T))
    return TrigPoly(*series_pairs_loop(series))


def cos_minus(a):
    """cos t - cos a: simple zeros at +-a."""
    return TrigPoly(-math.cos(a), [(1.0, 0.0)])


POSITIVE = TrigPoly(2.0, [(0.3, 0.4)])
ONE_MINUS_COS = TrigPoly(1.0, [(-1.0, 0.0)])


def run(T, monkeypatch, grid=True):
    """(zeros, kernel calls) of trig_zeros on T, with the grid proof on or off.
    It runs on a copy of T, as T keeps its zeros once found."""
    calls = Counter()
    original = trigcircle._root_clusters

    def counted(c):
        calls["kernel"] += 1
        return original(c)

    with monkeypatch.context() as m:
        m.setattr(trigcircle, "_root_clusters", counted)
        if not grid:
            m.setattr(trigcircle, "_grid_brackets", lambda T, dT: None)
        return trig_zeros(TrigPoly(T.a0, T.coeffs)), calls["kernel"]


class TestAgreesWithTheKernel:
    @pytest.mark.parametrize("n", list(range(1, 56)) + [80, 128, 200, 300])
    def test_random_polynomials_and_derivatives(self, n, monkeypatch):
        T = random_trig(np.random.default_rng(4000 + n), n)
        for P in (T, T.derivative()):
            got, calls = run(P, monkeypatch)
            assert calls == 0
            kernel = run(P, monkeypatch, grid=False)[0]
            assert [z.multiplicity for z in got] == [z.multiplicity for z in kernel] == [1] * len(got)
            assert all(arc(a.theta, b.theta) <= 1e-12 for a, b in zip(got, kernel))


def mp_zero(T, start):
    """The zero of T nearest a float start, by 40-digit Newton steps."""
    a0 = mpmath.mpf(T.a0)
    pairs = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in T.coeffs.tolist()]

    def f(t):
        return a0 + mpmath.fsum(a * mpmath.cos(k * t) + b * mpmath.sin(k * t) for k, (a, b) in enumerate(pairs, 1))

    with mpmath.workdps(40):
        return mpmath.findroot(f, mpmath.mpf(start))


class TestAgainstFortyDigits:
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 34])
    def test_both_paths_within_a_few_ulps(self, n, monkeypatch):
        T = random_trig(np.random.default_rng(5000 + n), n)
        for P in (T, T.derivative()):
            grid, kernel = run(P, monkeypatch)[0], run(P, monkeypatch, grid=False)[0]
            assert len(grid) == len(kernel)
            for a, b in zip(grid, kernel):
                with mpmath.workdps(40):
                    exact = float(mp_zero(P, a.theta) % (2 * mpmath.pi))
                assert arc(a.theta, exact) <= 8 * ULP_2PI and arc(b.theta, exact) <= 8 * ULP_2PI


class TestStatedRoundingBounds:
    """The bounds the cell proof uses, against 40-digit values: an FFT grid
    value is off by at most 5 log2(N) eps sqrt(N) times T's 2-norm, and
    TrigPoly.eval at |theta| <= 4 pi by eps (2 pi sum k |c_k| + 2 (n + 3) sum |c_k|)."""

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_fft_grid_and_eval(self, n):
        rng = np.random.default_rng(6000 + n)
        T = random_trig(rng, n)
        N = trigcircle._grid_size(n)
        spectrum = T._spectrum()
        grid = np.fft.irfft(spectrum, N, norm="forward")
        norm2 = math.sqrt(T.a0**2 + float(np.square(T.coeffs).sum()) / 2.0)
        size = np.abs(T.coeffs).sum(axis=1)
        k = np.arange(1, n + 1)
        eval_bound = EPS * (TWO_PI * float(k @ size) + 2 * (n + 3) * (abs(T.a0) + float(size.sum())))
        with mpmath.workdps(40):
            a0 = mpmath.mpf(T.a0)
            pairs = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in T.coeffs.tolist()]

            def f(t):
                return a0 + mpmath.fsum(a * mpmath.cos(j * t) + b * mpmath.sin(j * t) for j, (a, b) in enumerate(pairs, 1))

            for j in rng.integers(0, N, 40):
                exact = f(2 * mpmath.pi * int(j) / N)
                assert abs(grid[j] - exact) <= 5.0 * math.log2(N) * EPS * math.sqrt(N) * norm2
            for t in rng.uniform(0.0, 4.0 * math.pi, 40):
                assert abs(T.eval(t) - f(mpmath.mpf(t))) <= eval_bound


class TestFineProofGrid:
    def test_degree_1024_is_decided_on_the_16n_grid(self, monkeypatch):
        # on the 4096-point sup grid (N = 4n) the curvature margins are about
        # U / 3: 3983 of the 4096 cells of this T were split, and 28,224 split
        # points evaluated; on 16n = 16384 points nearly every cell decides
        T = random_trig(np.random.default_rng(1024), 1024)
        points, polishing = Counter(), []
        original_pair, original_polish = trigcircle._eval_pair, trigcircle._newton_polish

        def counted_pair(T, dT, theta):
            if not polishing:
                points["split"] += np.size(theta)
            return original_pair(T, dT, theta)

        def flagged_polish(T, dT, theta):
            polishing.append(True)
            try:
                return original_polish(T, dT, theta)
            finally:
                polishing.pop()

        monkeypatch.setattr(trigcircle, "_eval_pair", counted_pair)
        monkeypatch.setattr(trigcircle, "_newton_polish", flagged_polish)
        got, calls = run(T, monkeypatch)
        assert calls == 0 and len(got) > 0
        assert [z.multiplicity for z in got] == [1] * len(got)
        assert points["split"] < 2822

    def test_one_16n_grid_up_to_degree_256(self, monkeypatch):
        # the proof and every transform of the certificate take the smallest
        # power of two >= 16m points for a polynomial of degree m (2 for a
        # constant), the sup norm's grid among them
        sizes, original = [], np.fft.irfft

        def recorded(a, n=None, *args, **kwargs):
            sizes.append((np.shape(a)[-1] - 1, n))
            return original(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recorded)
        rng = np.random.default_rng(16)
        for n in range(1, 257):
            T = random_trig(rng, n)
            N = 1 << (16 * n - 1).bit_length()
            trigcircle._grid_brackets(T, T.derivative())
            assert sizes == [(n, N)]
            sizes.clear()
            trigcircle.zero_gap_certificate(T)
            assert (n, N) in sizes
            assert all(size == 1 << (16 * m - 1).bit_length() for m, size in sizes)
            sizes.clear()

    @pytest.mark.parametrize("n", [256, 257, 1024])
    def test_cached_sup_norm_is_the_one_grid_maximum(self, n):
        # the proof leaves its T row on T as its grid, whose maximum sup_norm
        # reads; it must be the maximum of a transform of T alone
        T = random_trig(np.random.default_rng(n), n)
        assert trigcircle._grid_brackets(T, T.derivative()) is not None
        N = trigcircle._grid_size(n)
        assert T.sup_norm() == float(np.max(np.abs(np.fft.irfft(T._spectrum(), N, norm="forward"))))


class TestAdversarial:
    """Each case is placed correctly by the grid proof or falls back whole."""

    def test_two_zeros_in_one_grid_cell(self, monkeypatch):
        a, h = 0.7, TWO_PI / trigcircle._grid_size(2)
        assert math.floor(a / h) == math.floor((a + 1e-3) / h)
        T = product(cos_minus(a), cos_minus(a + 1e-3))
        got, calls = run(T, monkeypatch)
        assert calls == 0
        truth = sorted([a, a + 1e-3, TWO_PI - a - 1e-3, TWO_PI - a])
        assert [z.multiplicity for z in got] == [1, 1, 1, 1]
        # the zeros are 1e-3 apart, so T' at them is small: 1e-10 covers
        # the noise over |T'|
        assert all(abs(z.theta - t) <= 1e-10 for z, t in zip(got, truth))

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-9])
    def test_closer_pairs_fall_back(self, gap, monkeypatch):
        T = product(cos_minus(0.7), cos_minus(0.7 + gap))
        got, calls = run(T, monkeypatch)
        assert calls == 1
        assert got == run(T, monkeypatch, grid=False)[0]
        assert sum(z.multiplicity for z in got) == 4

    @pytest.mark.parametrize(
        "T, mults",
        [
            (product(ONE_MINUS_COS, ONE_MINUS_COS, POSITIVE), [4]),
            (product(cos_minus(1.1), cos_minus(1.1), POSITIVE), [2, 2]),
            (ONE_MINUS_COS, [2]),
        ],
        ids=["fourfold-on-grid", "double-off-grid", "double-on-grid"],
    )
    def test_even_order_touch_falls_back(self, T, mults, monkeypatch):
        got, calls = run(T, monkeypatch)
        assert calls == 1
        assert got == run(T, monkeypatch, grid=False)[0]
        assert [z.multiplicity for z in got] == mults

    @pytest.mark.parametrize(
        "T, truth",
        [
            (TrigPoly(0.0, [(0.0, 1.0)]), [0.0, math.pi]),
            (TrigPoly(0.0, [(0.0, 0.0), (1.0, 0.0)]), [math.pi / 4 * m for m in (1, 3, 5, 7)]),
            (TrigPoly(0.0, [(0.0, 0.0), (0.0, 0.0), (0.0, 1.0)]), [math.pi / 3 * m for m in range(6)]),
        ],
        ids=["sin", "cos2", "sin3"],
    )
    def test_zero_on_a_grid_angle(self, T, truth, monkeypatch):
        got, calls = run(T, monkeypatch)
        assert calls == 0
        assert [z.multiplicity for z in got] == [1] * len(truth)
        assert all(arc(z.theta, t) <= 4 * ULP_2PI for z, t in zip(got, truth))

    def test_degree_zero_and_one(self, monkeypatch):
        assert run(TrigPoly(0.5), monkeypatch) == ((), 0)
        T = TrigPoly(0.3, [(0.5, -0.2)])
        got, calls = run(T, monkeypatch)
        assert calls == 0
        # 0.3 + r cos(t - phi) = 0 at t = phi +- acos(-0.3 / r)
        r, phi = math.hypot(0.5, -0.2), math.atan2(-0.2, 0.5)
        truth = sorted((phi + s * math.acos(-0.3 / r)) % TWO_PI for s in (1, -1))
        assert all(abs(z.theta - t) <= 4 * ULP_2PI for z, t in zip(got, truth)) and len(got) == 2
        assert run(TrigPoly(2.0, [(0.5, -0.2)]), monkeypatch) == ((), 0)

    @pytest.mark.parametrize("e", [-1074 + 8, -1000, 1000])
    def test_extreme_scales_give_the_unscaled_zeros(self, e, monkeypatch):
        # 2^e T is T exactly, up to the scaling, down to subnormal coefficients
        for n in (1, 2, 9):
            T = TrigPoly(0.25, [(1.0, 0.5)] + [(0.125, -0.25)] * (n - 1))
            scaled = TrigPoly(math.ldexp(T.a0, e), np.ldexp(T.coeffs, e))
            assert run(scaled, monkeypatch) == run(T, monkeypatch)
            assert run(T, monkeypatch)[1] == 0 and len(run(T, monkeypatch)[0]) > 0

    def test_roadmap_repros_print_the_kernel_bytes(self, tmp_path, monkeypatch):
        # (1 - cos t)^k and (2 cos t - 0.3)^3 have multiple zeros, so trig-verify
        # prints exactly what the kernel alone prints
        shifted = TrigPoly(-0.3, [(2.0, 0.0)])
        for T in (product(ONE_MINUS_COS, ONE_MINUS_COS), product(*[ONE_MINUS_COS] * 3), product(*[shifted] * 3)):
            inp = tmp_path / "in.json"
            inp.write_text(json.dumps(T.to_json()))
            outputs = []
            for grid in (True, False):
                with monkeypatch.context() as m:
                    if not grid:
                        m.setattr(trigcircle, "_grid_brackets", lambda T, dT: None)
                    assert main(["trig-verify", "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 0
                outputs.append((tmp_path / "out.json").read_bytes())
            assert outputs[0] == outputs[1]
            assert max(z["multiplicity"] for z in json.loads(outputs[0])["zeros"]) >= 3
