import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerogap import covering
from zerogap.cli import _report, main
from zerogap.covering import (
    Plank,
    RefutationResult,
    SphericalSegment,
    _bang_point,
    _grid,
    refute_cover_ball,
    refute_cover_sphere,
    split_segments,
)
from zerogap.errors import VerificationError
from zerogap.polycore import AffineForm, MultiPoly

from _oracles import exact_plank_refutation, grid_scan

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402

# (budget, unit, name) of the grids of split_segments and of the plank splitter
SPHERE_GRID = (math.pi, 1.0, "pi")
BALL_GRID = (2.0, 2.0, "the diameter 2")


def orthogonal_zones(half_width):
    return [SphericalSegment(np.eye(3)[i], 0.0, half_width) for i in range(3)]


class TestSegment:
    def test_zone_contains_equator_point(self):
        zone = SphericalSegment([0, 0, 1], 0.0, 0.3)
        assert zone.contains([1, 0, 0])

    def test_zone_misses_pole(self):
        zone = SphericalSegment([0, 0, 1], 0.0, 0.3)
        assert not zone.contains([0, 0, 1])
        assert zone.clearance([0, 0, 1]) == pytest.approx(math.pi / 2 - 0.3, abs=1e-12)

    def test_margin_arithmetic(self):
        seg = SphericalSegment([0, 0, 1], 0.5, 0.2)
        lat = math.asin(0.5) + 0.25
        x = np.array([math.cos(lat), 0.0, math.sin(lat)])
        assert not seg.contains(x)
        assert seg.clearance(x) == pytest.approx(0.05, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SphericalSegment([0, 0, 1], 1.0, 0.1)
        with pytest.raises(ValueError):
            SphericalSegment([0, 0, 1], 0.0, 0.0)
        with pytest.raises(ValueError):
            SphericalSegment([0, 0, 0], 0.0, 0.1)

    def test_json_round_trip(self):
        obj = {"a": [0.0, 1.0, 0.0], "b": 0.25, "delta": 0.4}
        seg = SphericalSegment.from_json(obj)
        other = SphericalSegment.from_json(seg.to_json())
        assert seg.to_json() == other.to_json() == obj
        assert np.array_equal(seg.normal, other.normal)
        assert seg.offset == other.offset and seg.half_width == other.half_width


class TestPlank:
    def test_membership(self):
        plank = Plank([1.0, 0.0], 0.5, 0.25)
        assert plank.contains([0.6, 3.0])
        assert not plank.contains([0.8, 0.0])
        assert plank.clearance([0.8, 0.0]) == pytest.approx(0.05, abs=1e-13)

    def test_json_round_trip(self):
        plank = Plank([0.0, 1.0, 0.0], -0.2, 0.45)
        other = Plank.from_json(plank.to_json())
        assert plank.to_json() == other.to_json() == {"a": [0.0, 1.0, 0.0], "c": -0.2, "w": 0.9}
        assert np.array_equal(plank.normal, other.normal)
        assert plank.offset == other.offset and plank.half_width == other.half_width


BAD_NORMALS = {"zero": [0.0, 0.0, 0.0], "nan": [math.nan, 1.0, 0.0], "inf": [math.inf, 0.0, 0.0], "tiny": [1e-13, 0.0, 0.0]}


class TestPiecesAreAffineForms:
    """A segment or plank is the affine form of its core hyperplane with a
    half width: AffineForm checks and normalises every normal, and the sphere
    refuter multiplies the virtual segments themselves."""

    def test_plank_offset_is_its_center(self):
        plank = Plank([0.0, 3.0], 0.5, 0.25)
        assert isinstance(plank, AffineForm) and isinstance(SphericalSegment([0.0, 1.0], 0.5, 0.25), AffineForm)
        assert plank.offset == 0.5 and np.array_equal(plank.normal, [0.0, 1.0])
        assert plank.clearance([0.0, 0.8]) == abs(plank.eval([0.0, 0.8])) - 0.25

    @pytest.mark.parametrize("normal", BAD_NORMALS.values(), ids=BAD_NORMALS.keys())
    @pytest.mark.parametrize(
        "make",
        [lambda a: AffineForm(a, 0.0), lambda a: SphericalSegment(a, 0.0, 0.1), lambda a: Plank(a, 0.0, 0.1)],
        ids=["AffineForm", "SphericalSegment", "Plank"],
    )
    def test_bad_normal_refused_alike(self, make, normal):
        with pytest.raises(ValueError):
            make(normal)

    @pytest.mark.parametrize("normal", BAD_NORMALS.values(), ids=BAD_NORMALS.keys())
    @pytest.mark.parametrize(
        "command, key, piece",
        [("refute-sphere", "segments", {"b": 0.0, "delta": 0.1}), ("refute-ball", "planks", {"c": 0.0, "w": 0.2})],
        ids=["refute-sphere", "refute-ball"],
    )
    def test_bad_normal_exits_3(self, tmp_path, command, key, piece, normal):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 3, key: [{**piece, "a": [0.0, 0.0, 1.0]}, {**piece, "a": normal}]}))
        assert main([command, "--input", str(path), "--output", str(tmp_path / "out")]) == 3

    def test_refuter_multiplies_the_virtual_segments(self, monkeypatch):
        segs = [
            SphericalSegment([0, 0, 1], 0.0, 0.25),
            SphericalSegment([0, 1, 0], 0.1, 0.375),
            SphericalSegment([1, 0, 0], -0.2, 0.125),
        ]
        splits, received, built = [], [], []
        split, product, init = covering.split_segments, MultiPoly.from_affine_product.__func__, AffineForm.__init__
        monkeypatch.setattr(covering, "split_segments", lambda *a, **k: splits.append(split(*a, **k)) or splits[-1])
        monkeypatch.setattr(MultiPoly, "from_affine_product", classmethod(lambda c, f: received.append(f) or product(c, f)))
        monkeypatch.setattr(AffineForm, "__init__", lambda self, *a: built.append(type(self)) or init(self, *a))
        res = refute_cover_sphere(segs, seed=0)
        [(virtual, N)] = splits
        [forms] = received
        assert N == res.split_N >= 1 and len(forms) == len(virtual) > len(segs)
        assert all(f is v for f, v in zip(forms, virtual))
        assert set(built) == {SphericalSegment} and len(built) == len(virtual)


class TestSplitSegments:
    def test_zone_split_into_equal_pieces(self):
        zone = SphericalSegment([0, 0, 1], 0.0, 0.5)  # width 1.0
        virtual, N = split_segments([zone], margin=0.05)
        assert N >= 1
        assert all(v.half_width == pytest.approx(0.5 / N) for v in virtual)
        total = sum(v.width for v in virtual)
        assert total >= zone.width - 1e-12

    def test_already_on_grid_returned_unchanged(self):
        segs = [
            SphericalSegment([0, 0, 1], 0.0, 0.125),
            SphericalSegment([0, 1, 0], 0.2, 0.125),
        ]  # widths exactly 1/4
        virtual, N = split_segments(segs, margin=1e-6)
        assert N == 4
        assert len(virtual) == 2
        for v, s in zip(virtual, segs):
            assert v.half_width == pytest.approx(s.half_width, abs=1e-15)
            assert v.offset == pytest.approx(s.offset, abs=1e-12)

    def test_infeasible_margin(self):
        segs = [SphericalSegment([0, 0, 1], 0.0, 0.999 * math.pi / 2)]
        with pytest.raises(ValueError):
            split_segments(segs, margin=0.01 * math.pi)

    @pytest.mark.parametrize("seed", range(3))
    def test_union_contains_originals(self, seed):
        rng = np.random.default_rng(seed)
        segs = []
        for _ in range(3):
            a = rng.standard_normal(3)
            segs.append(
                SphericalSegment(a, rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.35))
            )
        virtual, _ = split_segments(segs)
        misses = 0
        for _ in range(10_000):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            if any(s.contains(x) for s in segs) and not any(
                v.contains(x) for v in virtual
            ):
                misses += 1
        assert misses == 0

    def test_pole_straddling_segment(self):
        # widened pieces pushed past the pole must not lose coverage
        seg = SphericalSegment([0, 0, 1], 0.93, 0.37)
        virtual, _ = split_segments([seg], margin=0.01)
        rng = np.random.default_rng(7)
        for _ in range(5000):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            if seg.contains(x):
                assert any(v.contains(x) for v in virtual)


def grid_outcome(grid, widths, margin, budget, unit, name):
    """The grid, or the message of the ValueError it raises."""
    try:
        return grid(widths, budget, margin, unit, name)
    except ValueError as exc:
        return str(exc)


class TestGrid:
    """_grid scans blocks of denominators in numpy; the scalar scan over every N
    (_oracles.grid_scan) must give the same N, shifts and refusals."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scalar_scan_on_random_families(self, seed):
        rng = np.random.default_rng(seed)
        budget, unit, name = (SPHERE_GRID, BALL_GRID)[seed % 2]
        k = int(rng.integers(1, 13))
        widths = (rng.dirichlet(np.ones(k)) * budget * rng.uniform(0.3, 0.999)).tolist()
        if seed % 5 == 0:  # whole multiples of a grid step, as planks of width 1/8
            widths = [unit * int(rng.integers(1, 4)) / 8 for _ in range(k)]
        for margin in (None, 1e-4, 0.01 * (budget - sum(widths)) * rng.uniform(0.0, 1.0)):
            args = (widths, margin, budget, unit, name)
            assert grid_outcome(_grid, *args) == grid_outcome(grid_scan, *args)

    @pytest.mark.parametrize(
        "widths, margin, grid",
        [
            ([math.sqrt(2) / 3, math.pi / 7], 0.0, SPHERE_GRID),
            ([3.0, 0.1], 0.1, SPHERE_GRID),
            ([2.0 - 5e-13], 0.0, BALL_GRID),
        ],
        ids=["no-grid", "nothing-to-refute", "rounded-total-reaches-budget"],
    )
    def test_refusals_match_scalar_scan(self, widths, margin, grid):
        args = (widths, margin, *grid)
        expected = grid_outcome(grid_scan, *args)
        assert isinstance(expected, str)
        assert grid_outcome(_grid, *args) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_scan_on_search_families(self, seed):
        families = 0
        for inst in workloads.make_instances("search", seed, workloads.cycle_length("search")):
            if inst.command == "refute-sphere":
                widths, grid = [SphericalSegment.from_json(s).width for s in inst.payload["segments"]], SPHERE_GRID
            elif inst.command == "refute-ball":
                widths, grid = [Plank.from_json(p).width for p in inst.payload["planks"]], BALL_GRID
            else:
                continue
            families += 1
            args = (widths, None, *grid)
            assert grid_outcome(_grid, *args) == grid_outcome(grid_scan, *args)
        assert families > 0


class TestRefuteSphere:
    def test_three_orthogonal_zones(self):
        res = refute_cover_sphere(orthogonal_zones(0.4), seed=0)
        expected = math.asin(1 / math.sqrt(3)) - 0.4
        assert min(res.clearances) == pytest.approx(expected, abs=1e-8)
        assert np.allclose(np.abs(res.point), 1 / math.sqrt(3), atol=1e-8)
        for s in orthogonal_zones(0.4):
            assert not s.contains(res.point)

    def test_single_wide_zone(self):
        res = refute_cover_sphere([SphericalSegment([0, 0, 1], 0.0, 1.5)], seed=0)
        assert res.clearances[0] == pytest.approx(math.pi / 2 - 1.5, abs=1e-8)

    def test_unequal_widths_split(self):
        segs = [
            SphericalSegment([0, 0, 1], 0.0, 0.25),
            SphericalSegment([0, 1, 0], 0.1, 0.375),
            SphericalSegment([1, 0, 0], -0.2, 0.125),
        ]
        res = refute_cover_sphere(segs, seed=0)
        assert res.split_N >= 1
        assert min(res.clearances) > 0
        for s in segs:
            assert not s.contains(res.point)

    @pytest.mark.parametrize("seed", range(5))
    def test_axis_pencil_families(self, seed):
        # equal zones around a shared axis pencil, total close to the budget
        rng = np.random.default_rng(100 + seed)
        count = int(rng.integers(2, 6))
        width = (math.pi - 0.01) / count
        segs = []
        for _ in range(count):
            a = rng.standard_normal(3)
            segs.append(SphericalSegment(a, 0.0, width / 2))
        res = refute_cover_sphere(segs, seed=seed)
        assert min(res.clearances) > 0
        for s in segs:
            assert not s.contains(res.point)

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_width_clearance_consistency(self, seed):
        # for m equal segments of half-width delta the cleared margin is at
        # least pi/(2m) - delta, since the point sits pi/(2m) from every core
        rng = np.random.default_rng(50 + seed)
        m = int(rng.integers(2, 6))
        delta = rng.uniform(0.3, 0.9) * math.pi / (2 * m)
        segs = [
            SphericalSegment(rng.standard_normal(3), rng.uniform(-0.5, 0.5), delta)
            for _ in range(m)
        ]
        res = refute_cover_sphere(segs, seed=seed)
        assert min(res.clearances) >= math.pi / (2 * m) - delta - 1e-6

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            refute_cover_sphere([SphericalSegment([0, 0, 1], 0.0, 1.7)])
        with pytest.raises(ValueError):
            refute_cover_sphere([])

    def test_equal_width_fast_path_reports_no_split(self):
        res = refute_cover_sphere(orthogonal_zones(0.4), seed=0)
        assert res.split_N == 0

    def test_circle_case(self):
        # segments on S^1 are unions of two arcs; the refuter still applies
        segs = [
            SphericalSegment([1.0, 0.0], 0.2, 0.35),
            SphericalSegment([0.6, 0.8], -0.1, 0.5),
        ]
        res = refute_cover_sphere(segs, seed=0)
        assert min(res.clearances) > 0
        for s in segs:
            assert not s.contains(res.point)

    def test_dimension_four(self):
        rng = np.random.default_rng(2)
        segs = [
            SphericalSegment(rng.standard_normal(4), rng.uniform(-0.4, 0.4), 0.3)
            for _ in range(3)
        ]
        res = refute_cover_sphere(segs, seed=0)
        assert min(res.clearances) > 0
        for s in segs:
            assert not s.contains(res.point)

    def test_result_json(self):
        res = refute_cover_sphere(orthogonal_zones(0.3), seed=0)
        obj = _report(res)
        assert set(obj) == {"point", "clearances", "total_width", "budget", "split_N"}


SEGMENT_KINDS = ("uniform", "pareto", "zones", "one-dominant")


def segment_family(seed, k, d, kind, share):
    """k segments on S^(d-1) of total width ``share`` pi: shares of the width
    uniform on [0.05, 1], Pareto-tailed, equal (zones, b = 0) or one segment
    carrying all but 1e-3 to 1e-1 of it; offsets uniform on (-0.9, 0.9)."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((k, d))
    offsets = rng.uniform(-0.9, 0.9, k)
    shares = rng.uniform(0.05, 1.0, k)
    if kind == "pareto":
        shares = rng.pareto(1.0, k) + 0.01
    elif kind == "zones":
        shares, offsets = np.ones(k), np.zeros(k)
    elif kind == "one-dominant":
        rest = 10.0 ** rng.uniform(-3.0, -1.0)
        shares = np.concatenate([[1.0 - rest], rest * shares[1:] / shares[1:].sum()])
    widths = shares / shares.sum() * share * math.pi
    return [SphericalSegment(a, b, w / 2) for a, b, w in zip(normals, offsets, widths)]


class TestSegmentFamilies:
    """Every family of total width below pi within the grid bound is refuted,
    with every clearance positive by direct membership."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 60),
        d=st.integers(2, 6),
        kind=st.sampled_from(SEGMENT_KINDS),
        log_slack=st.floats(-3.0, math.log10(0.5)),
    )
    def test_refuted(self, seed, k, d, kind, log_slack):
        # total width 0.5 pi to 0.999 pi, the slack below pi drawn on a log scale
        segs = segment_family(seed, k, d, kind, 1.0 - 10.0**log_slack)
        res = refute_cover_sphere(segs, seed=seed % 1000)
        assert len(res.clearances) == k and min(res.clearances) > 0
        assert not any(s.contains(res.point) for s in segs)


class TestRefuteBall:
    def test_single_plank(self):
        res = refute_cover_ball([Plank([1.0, 0.0], 0.0, 0.9)])
        assert abs(res.point[0]) == pytest.approx(1.0, abs=1e-8)
        assert res.clearances[0] == pytest.approx(0.1, abs=1e-8)

    def test_two_parallel_planks(self):
        planks = [Plank([1.0, 0.0], -0.3, 0.375), Plank([1.0, 0.0], 0.45, 0.375)]
        res = refute_cover_ball(planks)
        assert min(res.clearances) > 0
        for p in planks:
            assert not p.contains(res.point)

    def test_three_planks_d3(self):
        planks = [
            Plank([1.0, 0, 0], 0.2, 0.3),
            Plank([0, 1.0, 0], -0.1, 0.25),
            Plank([0.5, 0.5, math.sqrt(0.5)], 0.0, 0.2),
        ]
        res = refute_cover_ball(planks)
        assert min(res.clearances) > 0
        assert np.linalg.norm(res.point) <= 1 + 1e-9

    def test_dimension_four(self):
        rng = np.random.default_rng(5)
        planks = [
            Plank(rng.standard_normal(4), rng.uniform(-0.3, 0.3), 0.25) for _ in range(3)
        ]
        res = refute_cover_ball(planks)
        assert min(res.clearances) > 0
        assert np.linalg.norm(res.point) <= 1 + 1e-9

    def test_overwide_rejected(self):
        with pytest.raises(ValueError):
            refute_cover_ball([Plank([1.0, 0.0], 0.0, 1.05)])


KINDS = ("random", "near-parallel", "centers-near-1", "one-dominant")


def plank_family(seed, m, d, kind, slack):
    """m planks in R^d of total width 2 - slack.  Shares of the width are
    bounded below (by 0.05 / m, or 1e-3 / m beside a dominant plank), which
    keeps the clearance floor (lambda - 1) h_i / 2 above twice the rounding
    bound of ``_bang_point``, about (m + d) eps, for slack down to 1e-6."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, d))
    if kind == "near-parallel":
        U = rng.standard_normal(d) + 1e-9 * U
    c = rng.uniform(-1.0, 1.0, m)
    if kind == "centers-near-1":
        c = np.sign(c) * (1.0 + rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-9.0, -1.0, m))
    shares = rng.uniform(0.05, 1.0, m)
    if kind == "one-dominant" and m > 1:
        rest = 10.0 ** rng.uniform(-3.0, -1.0)
        shares = np.concatenate([[1.0 - rest], rest * shares[1:] / shares[1:].sum()])
    h = shares / shares.sum() * (1.0 - slack / 2.0)
    return [Plank(u, ci, hi) for u, ci, hi in zip(U, c, h)]


def flip_bound(planks):
    """Bang's bound on the flips: (1 + 4 lambda sum h|c|) / (2 lambda (lambda - 1) min h^2)."""
    h = np.array([p.half_width for p in planks])
    c = np.array([p.offset for p in planks])
    lam = 1.0 / h.sum()
    return (1.0 + 4.0 * lam * np.sum(h * np.abs(c))) / (2.0 * lam * (lam - 1.0) * h.min() ** 2)


class TestBangSignFlip:
    """Every family of total width below 2 is refuted, with the point checked
    in exact rationals and the flips within Bang's bound."""

    def check(self, planks):
        res = refute_cover_ball(planks)
        assert res.split_N == 0 and len(res.clearances) == len(planks) and min(res.clearances) > 0
        assert exact_plank_refutation(planks, res.point) == ([], False)
        x, flips = _bang_point(planks)
        assert np.array_equal(x, res.point)
        assert flips <= flip_bound(planks)

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 60),
        d=st.integers(1, 20),
        kind=st.sampled_from(KINDS),
        log_slack=st.floats(-6.0, 0.3),
    )
    def test_small_families(self, seed, m, d, kind, log_slack):
        self.check(plank_family(seed, m, d, kind, 10.0**log_slack))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=2, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(500, 3000),
        d=st.integers(1, 20),
        log_slack=st.floats(-6.0, -2.0),
    )
    def test_thousands_of_planks(self, kind, seed, m, d, log_slack):
        self.check(plank_family(seed, m, d, kind, 10.0**log_slack))

    @pytest.mark.parametrize("kind", KINDS)
    def test_slack_1e_6(self, kind):
        self.check(plank_family(7, 40, 5, kind, 1e-6))

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        d=st.integers(1, 6),
        total=st.floats(2.0, 4.0),
    )
    def test_total_width_2_or_more_exits_3(self, seed, m, d, total):
        rng = np.random.default_rng(seed)
        shares = rng.uniform(0.05, 1.0, m)
        widths = (shares / shares.sum() * total).tolist()
        while sum(widths) < 2.0:
            widths[0] = math.nextafter(widths[0], math.inf)
        planks = [
            {"a": rng.standard_normal(d).tolist(), "c": float(c), "w": w}
            for c, w in zip(rng.uniform(-1.0, 1.0, m), widths)
        ]
        with pytest.raises(ValueError, match="such a family may cover"):
            refute_cover_ball([Plank.from_json(p) for p in planks])
        assert refute_ball_cli(d, planks)[0] == 3


def refute_ball_cli(d, planks):
    """(exit code, point or None) of ``refute-ball`` on the JSON planks."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dim": d, "planks": planks}, fh)
        code = main(["refute-ball", "--input", path, "--output", out])
        if code != 0:
            return code, None
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)["point"]


class TestBelowTheRoundingFloor:
    """Where a clearance floor (lambda - 1) h_i / 2 is within rounding, the
    family ends with exit 3, or with a point verified in exact rationals;
    the sign flip never runs on without end."""

    def test_one_plank_one_ulp_below_width_2(self):
        # h = 1 - 2^-53 gives w = 1 and a threshold (h + w)/2 that rounds to 1
        planks = [{"a": [1.0, 1.0], "c": 0.0, "w": 1.9999999999999998}]
        with pytest.raises(ValueError, match="rounding bound"):
            refute_cover_ball([Plank.from_json(p) for p in planks])
        assert refute_ball_cli(2, planks) == (3, None)

    @pytest.mark.parametrize("kind", KINDS)
    def test_slack_1e_15(self, kind):
        planks = [p.to_json() for p in plank_family(3, 12, 3, kind, 1e-15)]
        code, point = refute_ball_cli(3, planks)
        assert code in (0, 3)
        if code == 0:
            family = [Plank.from_json(p) for p in planks]
            assert exact_plank_refutation(family, np.array(point)) == ([], False)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 60),
        d=st.integers(1, 20),
        kind=st.sampled_from(KINDS),
        log_slack=st.floats(-17.0, -9.0),
    )
    def test_refused_or_refuted_exactly(self, seed, m, d, kind, log_slack):
        planks = plank_family(seed, m, d, kind, 10.0**log_slack)
        try:
            res = refute_cover_ball(planks)
        except ValueError as exc:
            assert "rounding bound" in str(exc) or "such a family may cover" in str(exc)
            return
        assert exact_plank_refutation(planks, res.point) == ([], False)
