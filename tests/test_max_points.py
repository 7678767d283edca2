"""trig_max_points polishes only the critical points that can be maxima.

The brackets of T''s zeros are proved once, and a bracket is polished only
where a rigorous bound on |T| over it reaches the maximum.  Each angle of the
Newton polish moves on its own, so M and the points must equal, bit for bit,
those of the route that polishes every critical point
(_oracles.all_critical_max_points).  Where the kernel places no critical
point, or only the centre of a merged cluster, the maxima come from Newton's
method started at the sup grid's largest |T|, never from a fixed angle.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerogap import trigcircle
from zerogap.cli import main
from zerogap.errors import VerificationError
from zerogap.trigcircle import TrigPoly, trig_max_points, trig_zeros

from _oracles import all_critical_max_points

TWO_PI = 2.0 * math.pi


def random_trig(rng, n, scale=1.0):
    return TrigPoly(scale * float(rng.standard_normal()), scale * rng.standard_normal((n, 2)))


def cos_power(k, phi):
    """cos^k(theta - phi) in the Fourier basis, from the binomial expansion."""
    a0, pairs = 0.0, np.zeros((k, 2))
    for j in range(k + 1):
        m, c = k - 2 * j, math.comb(k, j) / 2.0**k
        if m == 0:
            a0 += c
        elif m > 0:
            pairs[m - 1] += 2.0 * c * np.array([math.cos(m * phi), math.sin(m * phi)])
    return TrigPoly(a0, pairs)


def polished_sizes(monkeypatch):
    """The number of angles of each _newton_polish call, in order."""
    sizes, original = [], trigcircle._newton_polish

    def recorded(T, dT, theta):
        sizes.append(np.size(theta))
        return original(T, dT, theta)

    monkeypatch.setattr(trigcircle, "_newton_polish", recorded)
    return sizes


class TestSameAsEveryCriticalPoint:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), scale=st.sampled_from([1e-300, 1.0, 1e300]))
    def test_random_polynomials(self, seed, n, scale):
        T = random_trig(np.random.default_rng(seed), n, scale)
        assert trig_max_points(T) == all_critical_max_points(T)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 80])
    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1])
    def test_every_critical_point_of_a_pure_cosine_is_kept(self, n, phi):
        # |cos(n theta + phi)| reaches 1 at all 2n critical points
        T = TrigPoly(0.0, [(0.0, 0.0)] * (n - 1) + [(math.cos(phi), -math.sin(phi))])
        M, pts = trig_max_points(T)
        assert (M, pts) == all_critical_max_points(T)
        assert len(pts) == 2 * n and abs(M - 1.0) <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_two_maxima_tied_within_1e_10(self, seed):
        # a polynomial in 2 theta takes each value twice, pi apart; the odd
        # term splits the two largest by at most 2e-11 of the maximum
        rng = np.random.default_rng(seed)
        pairs = np.zeros((30, 2))
        pairs[1::2] = rng.standard_normal((15, 2))
        even = TrigPoly(float(rng.standard_normal()), pairs)
        top = trig_max_points(even)[0]
        pairs[0] = 1e-11 * top * np.array([math.cos(0.4), math.sin(0.4)])
        T = TrigPoly(even.a0, pairs)
        M, pts = trig_max_points(T)
        assert (M, pts) == all_critical_max_points(T)
        assert len(pts) == 2 and abs(trigcircle.circle_distance(*pts) - math.pi) <= 1e-6

    def test_cos4_takes_the_kernel(self):
        # T' = -4 cos^3 sin has triple zeros, so its grid proof fails
        T = cos_power(4, 0.0)
        dT = trigcircle._unit_scaled(T.derivative())[1]
        assert trigcircle._grid_brackets(dT, dT.derivative()) is None
        M, pts = trig_max_points(T)
        assert (M, pts) == all_critical_max_points(T)
        assert abs(M - 1.0) <= 1e-12 and np.allclose(pts, [0.0, math.pi], atol=1e-9)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_seeded_high_degrees(self, n):
        T = random_trig(np.random.default_rng(n), n)
        assert trig_max_points(T) == all_critical_max_points(T)


class TestOnlyPossibleMaximaPolished:
    @pytest.mark.parametrize("n", [48, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_polish_takes_at_most_8_angles(self, n, seed, monkeypatch):
        # T' has 2n zeros at most, 72-76 and 460-480 here
        T = random_trig(np.random.default_rng(seed), n)
        sizes = polished_sizes(monkeypatch)
        trig_max_points(T)
        assert len(sizes) == 1 and 1 <= sizes[0] <= 8


class TestNoFixedAngleForTheMaximum:
    """cos^k(theta - 1) has critical points of order k - 1 where cos vanishes.
    The kernel merges all 2k roots of z^k T' into one disc, whose centre
    fails the residual check for k = 14 (no critical point placed) and
    passes it for k = 20, at 2.62, where |T| is 5e-17."""

    @pytest.mark.parametrize("k", [14, 20])
    def test_cos_power(self, k):
        M, pts = trig_max_points(cos_power(k, 1.0))
        assert abs(M - 1.0) <= 1e-12
        assert len(pts) == 2
        assert all(min(abs(t - 1.0), abs(t - 1.0 - math.pi)) <= 1e-9 for t in pts)

    @pytest.mark.parametrize("k", [14, 20])
    def test_never_below_the_sup_grid(self, k, monkeypatch):
        # a Newton step that leaves every start for a lower |T|: the grid
        # starts stand, so M still reaches the sup grid's largest |T|
        T = cos_power(k, 1.0)
        monkeypatch.setattr(trigcircle, "_newton_polish", lambda P, dP, theta: theta + 0.5)
        M, pts = trig_max_points(T)
        assert M >= (1.0 - 1e-12) * T.sup_norm()
        N = trigcircle._grid_size(T.degree)
        assert all(min(abs(t - 1.0), abs(t - 1.0 - math.pi)) <= math.pi / N for t in pts)

    def test_trig_verify_reports_the_maximum(self, tmp_path, capsys):
        # the 14-fold zeros cannot be placed, so trig-verify refuses (exit 2,
        # no report) instead of passing with no zeros; test_cos_power checks
        # the maximum itself
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(json.dumps(cos_power(14, 1.0).to_json()))
        assert main(["trig-verify", "--input", str(inp), "--output", str(out)]) == 2
        assert not out.exists()
        assert "1 zero cluster(s) of T could not be placed" in capsys.readouterr().err

    def test_refusal_is_not_kept(self, monkeypatch):
        # trig_zeros refuses the 14-fold zeros on every call: the kernel runs
        # again each time, as T keeps no refusal
        calls, original = [], trigcircle._root_clusters
        monkeypatch.setattr(trigcircle, "_root_clusters", lambda c: calls.append(1) or original(c))
        T = cos_power(14, 1.0)
        for count in (1, 2, 3):
            with pytest.raises(VerificationError, match="could not be placed"):
                trig_zeros(T)
            assert len(calls) == count

    def test_sphere_max_in_two_variables(self, tmp_path):
        # (cos 1 x + sin 1 y)^14, expanded, restricts to cos^14(theta - 1)
        a = np.array([math.cos(1.0), math.sin(1.0)])
        terms = [{"e": [j, 14 - j], "c": math.comb(14, j) * a[0] ** j * a[1] ** (14 - j)} for j in range(15)]
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(json.dumps({"dim": 2, "terms": terms}))
        assert main(["sphere-max", "--input", str(inp), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["value"] - 1.0) <= 1e-12
        for p in [report["point"]] + report["near_maximizers"]:
            assert min(np.linalg.norm(np.array(p) - a), np.linalg.norm(np.array(p) + a)) <= 1e-9


def linear_power_terms(k, phi):
    """(cos phi x + sin phi y)^k, expanded, as JSON terms: it restricts to cos^k(theta - phi)."""
    a = np.array([math.cos(phi), math.sin(phi)])
    return [{"e": [j, k - j], "c": math.comb(k, j) * a[0] ** j * a[1] ** (k - j)} for j in range(k + 1)]


class TestUnplacedZerosAreRefused:
    """A zero that fails the residual check is refused, never dropped: a
    dropped zero would report an infinite gap that passes any bound."""

    @pytest.mark.parametrize("k", [14, 20])
    def test_trig_zeros_raises(self, k):
        with pytest.raises(VerificationError, match="could not be placed"):
            trigcircle.trig_zeros(cos_power(k, 1.0))

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("trig-verify", cos_power(20, 1.0).to_json()),
            ("sphere-verify", {"dim": 2, "terms": linear_power_terms(14, 1.0)}),
        ],
        ids=["cos20", "sphere-cos14"],
    )
    def test_cli_exits_2_with_the_refusal(self, tmp_path, capsys, command, payload):
        # cos^14 through trig-verify is test_trig_verify_reports_the_maximum
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(json.dumps(payload))
        assert main([command, "--input", str(inp), "--output", str(out)]) == 2
        assert not out.exists()
        assert "verification failed: 1 zero cluster(s) of T could not be placed" in capsys.readouterr().err
