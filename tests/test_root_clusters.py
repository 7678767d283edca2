"""The one root-cluster kernel, trigcircle._root_clusters, and the three
callers that read zeros off it: trig_zeros on the circle, the d = 2 chart of
complex_zero_distance and the one-variable branch of euclidean_zero_distance.

Multiple zeros are the point: the np.roots approximations of an m-fold root
spread by about eps^(1/m), and every count and distance below must come out
right all the same."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from zerogap import trigcircle
from zerogap.ballfinder import euclidean_zero_distance
from zerogap.cli import main
from zerogap.complexproj import ComplexHomogPoly, complex_zero_distance, hermitian_angle
from zerogap.polycore import MultiPoly
from zerogap.trigcircle import TrigPoly, trig_zeros, zero_gap_certificate

from _oracles import grid_abs_max, series_pairs_loop

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def expanded(roots):
    """Coefficients of prod (x - r), highest power first (numpy's order)."""
    return np.poly(np.asarray(roots))


def trig_from_series(series):
    a0, pairs = series_pairs_loop(np.asarray(series, dtype=complex))
    return TrigPoly(a0, pairs)


ONE_MINUS_COS = np.array([-0.5, 1.0, -0.5])  # 1 - cos t in powers e^(-it), 1, e^(it)


def one_minus_cos_power(k):
    series = np.array([1.0])
    for _ in range(k):
        series = np.convolve(series, ONE_MINUS_COS)
    return series


def cos_minus(a):
    """cos t - cos a: simple zeros at +-a."""
    return np.array([0.5, -math.cos(a), 0.5])


def random_positive(rng, n):
    """A trig polynomial of degree n with no zero: 1 + (1/2) of a unit-l1 rest."""
    rest = rng.standard_normal(2 * n + 1)
    rest = rest + rest[::-1]
    rest *= 0.5 / np.sum(np.abs(rest))
    rest[n] += 1.0
    return rest


def l1(T):
    return abs(T.a0) + float(np.abs(T.coeffs).sum())


def noise_floor(T):
    """Rounding level of T.eval on any angle: (2n + 1) eps sum |coefficients|."""
    return (2 * T.degree + 1) * EPS * l1(T)


class TestGraphs:
    """The kernel's numpy graph helpers against scipy.sparse.csgraph."""

    @pytest.mark.parametrize("seed", range(100))
    def test_components_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 14))
        adj = rng.random((k, k)) < rng.uniform(0.0, 0.5)
        adj |= adj.T
        np.fill_diagonal(adj, seed % 2)
        expected = connected_components(adj, directed=False)[1] if k else np.arange(0)
        assert np.array_equal(trigcircle._components(adj), expected)

    @pytest.mark.parametrize("seed", range(100))
    def test_longest_tree_edge_matches_scipy(self, seed):
        # distances as _root_clusters forms them, with repeated points (exact
        # zeros, which are not edges), all points equal, and tiny spreads
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 14))
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        if seed % 3:
            z[rng.integers(0, k, size=k // 2)] = z[0]
        if seed % 10 == 0:
            z[:] = z[0]
        z *= 1e-10 if seed % 7 == 0 else 1.0
        D = np.hypot(np.subtract.outer(z.real, z.real), np.subtract.outer(z.imag, z.imag))
        np.fill_diagonal(D, 1.0)
        longest = minimum_spanning_tree(csr_matrix(D)).max()
        assert trigcircle._longest_tree_edge(D) == longest
        expected = connected_components(D < longest, directed=False)[1]
        assert np.array_equal(trigcircle._components(D < longest), expected)


class TestKernel:
    @pytest.mark.parametrize(
        "roots, exact",
        [
            ([0.5] * 6, True),
            ([0.5] * 3 + [-0.5] * 2 + [0.75], True),
            ([1j, -1j, 1j, -1j, 2.0], True),
            ([0.25 + 0.5j] * 4 + [-0.75], True),
            ([0.3] * 6, False),
            ([1.0] * 8 + [np.exp(0.5j), np.exp(-0.5j)], False),
        ],
        ids=["sixfold", "three-two-one", "double-pair", "complex-fourfold", "sixfold-rounded", "eightfold-and-pair"],
    )
    def test_counts_and_centres(self, roots, exact):
        # dyadic roots expand to exact coefficients, so each disc must hold its
        # root; otherwise the expansion rounds and moves the roots a little
        centres, radii, counts = trigcircle._root_clusters(expanded(roots))
        distinct = {r: roots.count(r) for r in roots}
        assert counts.sum() == len(roots)
        assert sorted(counts.tolist()) == sorted(distinct.values())
        for root, m in distinct.items():
            k = int(np.argmin(np.abs(centres - root)))
            assert counts[k] == m
            if exact:
                assert abs(centres[k] - root) <= min(radii[k], 1e-12)
            else:
                assert abs(centres[k] - root) <= 1e-9

    def test_trailing_zeros_are_one_exact_root_at_zero(self):
        centres, radii, counts = trigcircle._root_clusters(np.append(expanded([0.5, -2.0]), [0.0, 0.0, 0.0]))
        k = int(np.flatnonzero(centres == 0.0)[0])
        assert (counts[k], radii[k]) == (3, 0.0) and counts.sum() == 5

    def test_leading_zeros_lower_the_degree(self):
        plain = trigcircle._root_clusters(expanded([0.5, -2.0]))
        padded = trigcircle._root_clusters(np.append([0.0, 0.0], expanded([0.5, -2.0])))
        for a, b in zip(plain, padded):
            assert a.tobytes() == b.tobytes()

    def test_constant_has_no_roots(self):
        assert all(part.size == 0 for part in trigcircle._root_clusters(np.array([3.0])))

    @pytest.mark.parametrize("top", [10.0, 1e50, 1e100, 1e200])
    def test_huge_root_raises_no_warning(self, top):
        # (x / top - 1) times five moderate roots: |z|^N and the products of
        # differences overflow unless they are formed from reversed
        # coefficients and in logarithms.  Beyond about 1e50 np.roots loses
        # the moderate roots; their discs then merge into one, which must
        # still hold all five.
        moderate = [0.5, -0.25, 2.0, 1j, -1j]
        c = np.convolve([1.0 / top, -1.0], np.poly(moderate))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centres, radii, counts = trigcircle._root_clusters(c / np.max(np.abs(c)))
        assert counts.sum() == 6 and np.isfinite(radii).all()
        k = int(np.argmin(np.abs(centres - top)))
        assert counts[k] == 1 and abs(centres[k] - top) <= 1e-12 * top
        for r in moderate:
            assert min(abs(centres - r) - radii) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-30, 1e-10, 1e10, 1e30])
    def test_clusters_do_not_depend_on_the_scale(self, scale):
        # the roots of (1 - cos t)^3 (cos t - cos 0.3) on the unit circle,
        # moved to |x| = scale: the Pellet split then runs on circles about
        # centres of that size, and scales its values to avoid overflow
        series = np.convolve(one_minus_cos_power(3), cos_minus(0.3)).astype(complex)
        plain = trigcircle._root_clusters(series)
        c = series * scale ** -np.arange(len(series) - 1, -1, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centres, radii, counts = trigcircle._root_clusters(c / np.max(np.abs(c)))
        assert sorted(counts.tolist()) == sorted(plain[2].tolist()) == [1, 1, 6]
        order, plain_order = np.argsort(np.angle(centres)), np.argsort(np.angle(plain[0]))
        assert np.allclose(centres[order] / scale, plain[0][plain_order], rtol=0.0, atol=1e-9)

    def test_trig_leading_pair_far_below_the_rest(self):
        # the companion roots of a leading pair 1e-13 below the largest
        # coefficient reach |z| ~ 1e13^(1/n) and beyond: no warning
        T = TrigPoly(0.2, [(1.0, 0.5), (0.0, 0.3), (0.0, 0.0), (1e-13, -1e-13)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeros = trig_zeros(T)
            rep = zero_gap_certificate(T)
        assert rep.zeros == zeros and sum(z.multiplicity for z in zeros) <= 8
        for z in zeros:
            assert abs(T.eval(z.theta)) <= 1e-8 * T.sup_norm()

    def test_temporaries_are_at_most_n_by_n_floats(self, monkeypatch):
        # past np.roots (whose companion matrix is N x N complex) the kernel
        # holds the N x N distances plus one N x N float temporary at a time
        N = 300
        rng = np.random.default_rng(3)
        c = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        z = np.roots(c)
        monkeypatch.setattr(np, "roots", lambda p: z.copy())
        tracemalloc.start()
        try:
            trigcircle._root_clusters(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * N * N * 8 + 64 * N * 8


class TestCircleMultipleZeros:
    """(1 - cos t)^k and its companions: the multiplicities must be exact."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_power_alone(self, k):
        T = trig_from_series(one_minus_cos_power(k))
        rep = zero_gap_certificate(T)
        assert [(z.multiplicity, min(z.theta, TWO_PI - z.theta) < 1e-12) for z in rep.zeros] == [(2 * k, True)]
        assert rep.max_points == (math.pi,) or np.allclose(rep.max_points, [math.pi], atol=1e-9)
        assert abs(rep.min_distance - math.pi) <= 1e-9
        assert rep.interlacing is False

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_power_times_a_positive_factor(self, k, seed):
        rng = np.random.default_rng(100 * k + seed)
        T = trig_from_series(np.convolve(one_minus_cos_power(k), random_positive(rng, int(rng.integers(1, 6)))))
        rep = zero_gap_certificate(T)
        assert [z.multiplicity for z in rep.zeros] == [2 * k]
        assert min(rep.zeros[0].theta, TWO_PI - rep.zeros[0].theta) < 1e-9
        truth = min(min(p, TWO_PI - p) for p in rep.max_points)
        assert abs(rep.min_distance - truth) <= 1e-9
        # the maximizers themselves against a dense grid
        M, grid_pts = grid_abs_max(T.eval, samples=200_001)
        assert rep.max_value == pytest.approx(M, rel=1e-8)
        for t in grid_pts:
            assert min(trigcircle.circle_distance(t, p) for p in rep.max_points) < 1e-4

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5])
    def test_power_with_simple_zeros(self, k, a):
        """(1 - cos t)^k (cos t - cos a): a 2k-fold zero at 0, simple zeros at
        +-a, the maximum at pi, so min_distance is pi - a.

        Where |T| stays below its own evaluation noise on the whole arc
        [-a, a], no double-precision evaluation can place zeros inside it:
        there the kernel must report one zero of multiplicity 2k + 2 at 0
        (all of them, counted exactly).  Elsewhere the multiplicities are
        exact and the zeros at +-a kept; the zeros and min_distance are within
        1e-9 of the truth, or within the condition of the zero at a (the
        noise over |T'(a)|) where that is larger.
        """
        T = trig_from_series(np.convolve(one_minus_cos_power(k), cos_minus(a)))
        rep = zero_gap_certificate(T)
        arc = np.linspace(-a, a, 2001)
        buried = np.max(np.abs((1.0 - np.cos(arc)) ** k * (np.cos(arc) - math.cos(a)))) < noise_floor(T)
        folded = sorted((min(z.theta, TWO_PI - z.theta), z.multiplicity) for z in rep.zeros)
        if buried:
            assert [m for _, m in folded] == [2 * k + 2] and folded[0][0] < 1e-9
            assert abs(rep.min_distance - (math.pi - a)) <= a + 1e-9
            return
        condition = max(1e-9, noise_floor(T) / ((1.0 - math.cos(a)) ** k * math.sin(a)))
        assert [m for _, m in folded] == [2 * k, 1, 1] and folded[0][0] <= condition
        assert all(abs(t - a) <= condition for t, _ in folded[1:])
        assert abs(rep.min_distance - (math.pi - a)) <= condition
        assert rep.max_points == (math.pi,) or np.allclose(rep.max_points, [math.pi], atol=1e-9)

    def test_the_buried_cases_are_few(self):
        # only a = 0.05 with k >= 4 falls below the noise floor
        buried = []
        for k in range(1, 7):
            for a in (0.05, 0.3, 0.5):
                T = trig_from_series(np.convolve(one_minus_cos_power(k), cos_minus(a)))
                arc = np.linspace(-a, a, 2001)
                if np.max(np.abs((1.0 - np.cos(arc)) ** k * (np.cos(arc) - math.cos(a)))) < noise_floor(T):
                    buried.append((k, a))
        assert buried == [(4, 0.05), (5, 0.05), (6, 0.05)]

    def test_cubed_shifted_cosine(self):
        # (2 cos t - 0.3)^3: two triple zeros at +-acos(0.15)
        f = np.array([1.0, -0.3, 1.0])
        T = trig_from_series(np.convolve(np.convolve(f, f), f))
        zeros = trig_zeros(T)
        assert [z.multiplicity for z in zeros] == [3, 3]
        assert abs(zeros[0].theta - math.acos(0.15)) <= 1e-14
        assert abs(zeros[1].theta - (TWO_PI - math.acos(0.15))) <= 1e-14

    @pytest.mark.parametrize(
        "payload, mult, distance",
        [
            ({"n": 2, "a0": 1.5, "c": [[-2, 0], [0.5, 0]]}, 4, math.pi),
            ({"n": 3, "a0": 2.5, "c": [[-3.75, 0], [1.5, 0], [-0.25, 0]]}, 6, math.pi),
        ],
        ids=["squared", "cubed"],
    )
    def test_trig_verify_on_powers_of_one_minus_cosine(self, tmp_path, payload, mult, distance):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        assert main(["trig-verify", "--input", str(inp), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [z["multiplicity"] for z in rep["zeros"]] == [mult]
        assert abs(rep["min_distance"] - distance) <= 1e-12
        assert rep["interlacing"] is False


def binomial_power_r1(r, m):
    """(x - r)^m expanded, as a one-variable MultiPoly."""
    coeffs = expanded([r] * m)[::-1]
    return MultiPoly(1, {(e,): float(c) for e, c in enumerate(coeffs)})


def binomial_power_c2(w, m):
    """(z1 - w z2)^m expanded, as a binary form."""
    return ComplexHomogPoly(2, {(j, m - j): math.comb(m, j) * (-w) ** (m - j) for j in range(m + 1)})


class TestMultipleRootsInOneVariableAndC2:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_r1_roadmap_case(self, m):
        dist, zero = euclidean_zero_distance(binomial_power_r1(0.3, m), np.array([0.9]))
        assert abs(dist - 0.6) <= 1e-12 and abs(zero[0] - 0.3) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_r1_random_roots(self, m, seed):
        rng = np.random.default_rng(10 * m + seed)
        r, p = rng.uniform(-1.0, 1.0, 2)
        dist, _ = euclidean_zero_distance(binomial_power_r1(r, m), np.array([p]))
        assert abs(dist - abs(p - r)) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    def test_c2_roadmap_case(self, m):
        p = np.array([0.6, 0.8], dtype=complex)
        truth = hermitian_angle(p, np.array([0.6, 1.0]) / math.hypot(0.6, 1.0))
        dist, _ = complex_zero_distance(binomial_power_c2(0.6, m), p)
        assert abs(dist - truth) <= 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_c2_random_roots(self, m, seed):
        rng = np.random.default_rng(20 * m + seed)
        w = complex(*rng.uniform(-1.0, 1.0, 2))
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p /= np.linalg.norm(p)
        v = np.array([w, 1.0]) / math.sqrt(1.0 + abs(w) ** 2)
        dist, zero = complex_zero_distance(binomial_power_c2(w, m), p)
        assert abs(dist - hermitian_angle(p, v)) <= 1e-12
        assert abs(abs(np.vdot(zero, v)) - 1.0) <= 1e-12

    def test_ball_multiplier_on_a_sixfold_root_is_finite(self, tmp_path):
        coeffs = expanded([0.3] * 6)[::-1]
        payload = {"dim": 1, "terms": [{"e": [e], "c": float(c)} for e, c in enumerate(coeffs)]}
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        assert main(["ball-multiplier", "--input", str(inp), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert math.isfinite(rep["distance"])
        assert abs(rep["distance"] - abs(rep["point"][0] - 0.3)) <= 1e-12
