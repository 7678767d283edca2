import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize

import _oracles
from zerogap import ballfinder, chebmult, complexproj, covering, sphereopt, trigcircle
from zerogap.cli import COMMANDS, _report, main
from zerogap.polycore import AffineForm, MultiPoly, product_of_affine_forms
from zerogap.trigcircle import TrigPoly


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, command, payload, *args):
    inp = write_json(tmp_path, "input.json", payload)
    out = tmp_path / "out.txt"
    code = main([command, "--input", inp, "--output", str(out), *args])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


X1X2 = {"dim": 2, "terms": [{"e": [1, 1], "c": 1.0}]}
THREE_ZONES = {
    "dim": 3,
    "segments": [
        {"a": [1, 0, 0], "b": 0.0, "delta": 0.4},
        {"a": [0, 1, 0], "b": 0.0, "delta": 0.4},
        {"a": [0, 0, 1], "b": 0.0, "delta": 0.4},
    ],
}


class TestSphereVerify:
    def test_balanced_product(self, tmp_path):
        code, text = run_cli(tmp_path, "sphere-verify", X1X2)
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] is True
        assert rep["distance"] == pytest.approx(math.pi / 4, abs=1e-9)
        assert rep["bound"] == pytest.approx(math.pi / 4, abs=1e-12)
        assert rep["rng"] == {"name": "pcg64-gauss/1", "seed": 0}

    def test_forms_input(self, tmp_path):
        payload = {"forms": [{"a": [1, 0, 0], "b": 0.0}, {"a": [0, 1, 0], "b": 0.0}]}
        code, text = run_cli(tmp_path, "sphere-verify", payload)
        assert code == 0
        assert json.loads(text)["passed"] is True


    def test_huge_circle_coefficients(self, tmp_path):
        # d = 2 restricts to a trig polynomial whose second derivative would
        # overflow without the root finders' power-of-two rescaling
        def quadric(scale):
            return {"dim": 2, "terms": [{"e": [2, 0], "c": 0.5 * scale}, {"e": [0, 2], "c": -0.5 * scale}, {"e": [1, 1], "c": 0.1 * scale}]}

        code, text = run_cli(tmp_path, "sphere-verify", quadric(1e308))
        assert code == 0
        ref_code, ref_text = run_cli(tmp_path, "sphere-verify", quadric(1.0))
        rep, ref = json.loads(text), json.loads(ref_text)
        assert (rep["passed"], ref_code) == (True, 0)
        assert rep["distance"] == pytest.approx(ref["distance"], abs=1e-12)

    @pytest.mark.parametrize("command", ["sphere-max", "sphere-verify"])
    def test_maximum_past_the_largest_double_exits_3(self, tmp_path, capsys, command):
        # 1200 forms near <e1, x> - 0.9: log max |P| is about 770, past log(DBL_MAX) = 709.78
        normals = np.eye(3)[0] + 0.01 * np.random.default_rng(0).standard_normal((1200, 3))
        code, out = run_cli(tmp_path, command, {"forms": [{"a": a, "b": 0.9} for a in normals.tolist()]})
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert "exceeds the largest double" in err and "log_value" in err


class TestRefuteSphere:
    def test_three_zones(self, tmp_path):
        code, text = run_cli(tmp_path, "refute-sphere", THREE_ZONES)
        assert code == 0
        rep = json.loads(text)
        assert min(rep["clearances"]) > 0.2
        assert np.allclose(np.abs(rep["point"]), 1 / math.sqrt(3), atol=1e-6)

    @pytest.mark.parametrize(
        "widths, factors", [((0.3, 0.45, 0.5, 0.6), 37), ((0.5, 0.62, 0.55, 0.7), 95), ((0.4, 0.55, 0.47, 0.71), 171)]
    )
    def test_split_family_refuted_at_the_default_starts(self, tmp_path, monkeypatch, widths, factors):
        # a family that split_segments' default margin splits into 37 to 171
        # factors hands the engine the 64 default starts, not 4 per factor,
        # and its point clears every segment
        segments = [{"a": a, "b": 0.0, "delta": w / 2} for a, w in zip(np.eye(3).tolist() + [[1, 1, 1]], widths)]
        pieces = [covering.SphericalSegment.from_json(s) for s in segments]
        assert len(covering.split_segments(pieces)[0]) == factors
        starts, near_max = [], sphereopt.near_max_on_sphere

        def recorded(value, grad, X, count):
            starts.append(count)
            return near_max(value, grad, X, count)

        monkeypatch.setattr(sphereopt, "near_max_on_sphere", recorded)
        code, text = run_cli(tmp_path, "refute-sphere", {"dim": 3, "segments": segments})
        assert code == 0 and starts == [64]
        x = np.array(json.loads(text)["point"])
        for seg in segments:
            a = np.array(seg["a"]) / np.linalg.norm(seg["a"])
            assert abs(math.asin(a @ x)) > seg["delta"]

    def test_overwide_is_usage_error(self, tmp_path, capsys):
        payload = {
            "dim": 3,
            "segments": [{"a": [1, 0, 0], "b": 0.0, "delta": 1.6}],
        }
        code, _ = run_cli(tmp_path, "refute-sphere", payload)
        assert code == 3
        assert "pi" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 3 "segments": []}', encoding="utf-8")
        code = main(["refute-sphere", "--input", str(bad)])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 1" in err


class TestTrigVerify:
    def test_double_zero_instance_json(self, tmp_path):
        payload = {"n": 2, "a0": 0.4, "c": [[0.1, 0.0], [-0.5, 0.0]]}
        code, text = run_cli(tmp_path, "trig-verify", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] is True
        mult = {round(z["theta"], 6): z["multiplicity"] for z in rep["zeros"]}
        assert mult[0.0] == 2

    def test_cos2_csv(self, tmp_path):
        payload = {"n": 2, "a0": 0.0, "c": [[0.0, 0.0], [1.0, 0.0]]}
        code, text = run_cli(tmp_path, "trig-verify", payload, "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "kind,theta,value,multiplicity,arc"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds.count("zero") == 4
        assert kinds.count("max") == 4
        arcs = [float(line.split(",")[4]) for line in lines[1:]]
        assert np.allclose(arcs, math.pi / 4, atol=1e-9)

    def test_csv_values_are_scalar_evaluations(self, tmp_path):
        payload = {"n": 3, "a0": 0.2, "c": [[0.4, -1.1], [0.3, 0.0], [-0.7, 0.5]]}
        code, text = run_cli(tmp_path, "trig-verify", payload, "--format", "csv")
        assert code == 0
        T = TrigPoly.from_json(payload)
        for line in text.strip().splitlines()[1:]:
            _, theta, value, _, _ = line.split(",")
            assert value == repr(T.eval(float(theta)))

    @pytest.mark.parametrize(
        "payload",
        [{"n": 1, "a0": 0.0, "c": [[math.inf, 0.0]]}, {"n": 1, "a0": math.nan, "c": [[1.0, 0.0]]}],
    )
    def test_non_finite_coefficient_is_usage_error(self, tmp_path, capsys, payload):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(tmp_path, "trig-verify", payload)
        assert code == 3
        assert text == ""
        assert "coefficients must be finite" in capsys.readouterr().err

    def test_subnormal_cosine_is_certified(self, tmp_path):
        code, text = run_cli(tmp_path, "trig-verify", {"n": 1, "a0": 0.0, "c": [[1e-310, 0.0]]})
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] is True and rep["q_identically_zero"] is True
        assert np.allclose([z["theta"] for z in rep["zeros"]], [math.pi / 2, 3 * math.pi / 2], atol=1e-10)

    def test_degree_disagreeing_with_pairs_is_usage_error(self, tmp_path, capsys):
        payload = {"n": 4, "a0": 0, "c": [[1, 0]]}
        code, text = run_cli(tmp_path, "trig-verify", payload)
        assert code == 3
        assert text == ""
        assert '"n" is 4' in capsys.readouterr().err

    @pytest.mark.parametrize("c", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1]]])
    def test_coefficients_that_are_not_pairs_are_usage_error(self, tmp_path, capsys, c):
        # three-entry rows must not be read as three pairs
        code, text = run_cli(tmp_path, "trig-verify", {"a0": 0.5, "c": c})
        assert code == 3
        assert text == ""
        assert "list of (a_k, b_k) pairs" in capsys.readouterr().err


class TestBallCommands:
    def test_ball_pair(self, tmp_path):
        payload = {"dim": 1, "terms": [{"e": [1], "c": 1.0}]}
        code, text = run_cli(tmp_path, "ball-pair", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] is True
        assert rep["ball_distance"] == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_ball_multiplier(self, tmp_path):
        payload = {"dim": 1, "terms": [{"e": [1], "c": 1.0}]}
        code, text = run_cli(tmp_path, "ball-multiplier", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["distance"] == pytest.approx(1.0, abs=1e-9)
        assert rep["bound"] == 1.0

    def test_refute_ball(self, tmp_path):
        payload = {"dim": 2, "planks": [{"a": [1.0, 0.0], "c": 0.0, "w": 1.8}]}
        code, text = run_cli(tmp_path, "refute-ball", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["clearances"][0] == pytest.approx(0.1, abs=1e-6)

    def test_refute_ball_overwide(self, tmp_path):
        payload = {"dim": 2, "planks": [{"a": [1.0, 0.0], "c": 0.0, "w": 2.1}]}
        code, _ = run_cli(tmp_path, "refute-ball", payload)
        assert code == 3


# widths whose grid would need N = 694: 626 virtual planks, more than the splitter allows
WIDE_GRID_PLANKS = {
    "dim": 3,
    "planks": [
        {"a": a, "c": 0.0, "w": w}
        for a, w in zip(np.eye(3).tolist() + [[1, 1, 1]], (0.311, 0.472, 0.533, 0.487))
    ],
}


class TestSplitRefusal:
    """The one resource bound of the segment refuter is the width grid: a
    family whose grid needs a denominator of ``covering._MAX_GRID_N`` or more
    is refused with exit 3 and a message that names the split, before any
    virtual piece is built.  Below it every family is refuted, whatever its
    number of factors.  Plank families are never split."""

    # widths on the grid 1/100 only: 281 factors at split_segments' default
    # margin, 13 at the refuter's half of the slack
    HUNDREDTHS = {
        "dim": 3,
        "segments": [
            {"a": a, "b": 0.0, "delta": w / 2}
            for a, w in zip(np.eye(3).tolist() + [[1, 1, 1]], (0.61, 0.73, 0.59, 0.88))
        ],
    }
    # slack 1e-9 below pi: no grid 1/N with N below the bound rounds these
    # widths up within half of it
    PAST_THE_BOUND = {
        "dim": 3,
        "segments": [
            {"a": a, "b": 0.0, "delta": w / 2}
            for a, w in zip(np.eye(3).tolist(), (2**-0.5, 3**-0.5, math.pi - 2**-0.5 - 3**-0.5 - 1e-9))
        ],
    }

    def test_281_factor_family_refuted_with_exit_0(self, tmp_path):
        pieces = [covering.SphericalSegment.from_json(obj) for obj in self.HUNDREDTHS["segments"]]
        assert len(covering.split_segments(pieces)[0]) == 281
        code, text = run_cli(tmp_path, "refute-sphere", self.HUNDREDTHS)
        assert code == 0
        rep = json.loads(text)
        assert rep["split_N"] > 0 and min(rep["clearances"]) > 0
        assert not any(p.contains(rep["point"]) for p in pieces)

    def test_past_the_grid_bound_refused_with_exit_3(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "refute-sphere", self.PAST_THE_BOUND)
        assert code == 3 and out == ""
        assert f"splitting needs a width grid finer than 1/{covering._MAX_GRID_N}" in capsys.readouterr().err

    def test_past_the_grid_bound_refused_before_any_piece_is_built(self, monkeypatch):
        pieces = [covering.SphericalSegment.from_json(obj) for obj in self.PAST_THE_BOUND["segments"]]
        built, init = [], covering.SphericalSegment.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(covering.SphericalSegment, "__init__", counted)
        with pytest.raises(ValueError, match="splitting needs"):
            covering.refute_cover_sphere(pieces)
        assert built == []

    def test_wide_grid_planks_refuted_with_exit_0(self, tmp_path):
        code, text = run_cli(tmp_path, "refute-ball", WIDE_GRID_PLANKS)
        assert code == 0
        rep = json.loads(text)
        planks = [covering.Plank.from_json(p) for p in WIDE_GRID_PLANKS["planks"]]
        assert _oracles.exact_plank_refutation(planks, rep["point"]) == ([], False)
        assert rep["split_N"] == 0 and min(rep["clearances"]) > 0

    def test_wide_grid_planks_refuted_without_building_a_piece(self, monkeypatch):
        planks = [covering.Plank.from_json(p) for p in WIDE_GRID_PLANKS["planks"]]
        built, init = [], covering.Plank.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(covering.Plank, "__init__", counted)
        res = covering.refute_cover_ball(planks)
        assert built == [] and min(res.clearances) > 0


class TestRefuteBallIgnoresSeedAndStarts:
    def test_outputs_identical_apart_from_the_seed_stamp(self, tmp_path):
        texts = []
        for args in (("--seed", "0"), ("--seed", "7"), ("--starts", "8"), ("--starts", "64")):
            code, text = run_cli(tmp_path, "refute-ball", WIDE_GRID_PLANKS, *args)
            seed = 7 if args == ("--seed", "7") else 0
            assert code == 0 and json.loads(text)["rng"]["seed"] == seed
            texts.append(text.replace(f'"seed": {seed}\n', '"seed": 0\n'))
        assert len(set(texts)) == 1


class TestComplexCommands:
    def test_complex_verify(self, tmp_path):
        payload = {
            "dim": 2,
            "deg": 2,
            "terms": [{"e": [1, 1], "re": 1.0, "im": 0.0}],
        }
        code, text = run_cli(tmp_path, "complex-verify", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["distances"][0] == pytest.approx(math.pi / 4, abs=1e-7)

    def test_weighted_verify(self, tmp_path):
        payload = {
            "items": [
                {"poly": {"dim": 2, "terms": [{"e": [1, 0], "re": 1.0, "im": 0.0}]}, "delta": 0.6},
                {"poly": {"dim": 2, "terms": [{"e": [0, 1], "re": 1.0, "im": 0.0}]}, "delta": 0.8},
            ]
        }
        code, text = run_cli(tmp_path, "weighted-verify", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] == [True, True]
        assert rep["distances"][0] >= math.asin(0.6) - 1e-6


class TestScaleInvariance:
    """c P has the zero set of P for every c != 0, so the distance and the
    verdict are those of P, with no warning, at any scale."""

    @staticmethod
    def run(tmp_path, command, payload):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = run_cli(tmp_path, command, payload)
        assert [str(w.message) for w in caught] == []
        return code, json.loads(text)

    @pytest.mark.parametrize("c", [1e-310, 1e-300, 1e200, 1e300])
    @pytest.mark.parametrize(
        "command, dim, terms",
        [
            ("sphere-verify", 3, [([1, 0, 0], 1.0), ([0, 1, 1], 1.0)]),
            ("sphere-verify", 3, [([1, 0, 0], 1.0)]),
            ("ball-multiplier", 2, [([1, 0], 1.0), ([0, 2], 1.0), ([0, 0], -0.3)]),
        ],
        ids=["x1+x2x3", "x1", "ball"],
    )
    def test_real_multiple(self, tmp_path, command, dim, terms, c):
        ref_code, ref = self.run(tmp_path, command, {"dim": dim, "terms": [{"e": e, "c": k} for e, k in terms]})
        code, rep = self.run(tmp_path, command, {"dim": dim, "terms": [{"e": e, "c": c * k} for e, k in terms]})
        assert (code, rep["passed"]) == (ref_code, ref["passed"]) == (0, True)
        assert rep["distance"] == pytest.approx(ref["distance"], abs=1e-9)

    @pytest.mark.parametrize("c", [1e-300, 1e200, 1e300])
    def test_complex_multiple(self, tmp_path, c):
        # z1^2 + i z2 z3 + 0.5 z1 z2 in C^3
        terms = [([2, 0, 0], 1.0, 0.0), ([0, 1, 1], 0.0, 1.0), ([1, 1, 0], 0.5, 0.0)]

        def payload(c):
            return {"dim": 3, "terms": [{"e": e, "re": c * re, "im": c * im} for e, re, im in terms]}

        ref_code, ref = self.run(tmp_path, "complex-verify", payload(1.0))
        code, rep = self.run(tmp_path, "complex-verify", payload(c))
        assert (code, rep["passed"]) == (ref_code, ref["passed"]) == (0, [True])
        assert rep["distances"][0] == pytest.approx(ref["distances"][0], abs=1e-9)


class TestTables:
    def test_cheb_table(self, tmp_path):
        payload = {"n": 2, "k": 100, "half_width": 5.0, "points": 11}
        code, text = run_cli(tmp_path, "cheb-table", payload)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "x,t_scaled,trig,tail_k,tail,multiplier"
        assert len(lines) == 12
        row = [float(v) for v in lines[6].split(",")]  # x = 0 row
        assert row[0] == 0.0
        assert row[1] == pytest.approx(1.0, abs=1e-12)  # scaled T_k(0)
        assert row[3] == 1.0 and row[4] == 1.0 and row[5] == 1.0

    def test_lifted_diag_json_and_csv(self, tmp_path):
        code, text = run_cli(tmp_path, "lifted-diag", {"n": 2, "k": 4})
        assert code == 0
        rep = json.loads(text)
        assert rep["count"] == 2
        assert rep["spacing"] == pytest.approx(1.0)
        assert rep["cap_radius"] == pytest.approx(1.5)
        code, text = run_cli(tmp_path, "lifted-diag", {"n": 2, "k": 4}, "--format", "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "latitude,spacing,cap_radius"
        assert len(lines) == 3

    def test_convergence(self, tmp_path):
        payload = {"n": 2, "ks": [20, 40], "half_width": 5.0}
        code, text = run_cli(tmp_path, "convergence", payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["scaled_cheb_errors"][0] > rep["scaled_cheb_errors"][1]


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path):
        inp = write_json(tmp_path, "in.json", THREE_ZONES)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["refute-sphere", "--input", inp, "--output", str(out), "--seed", "5"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_recorded(self, tmp_path):
        code, text = run_cli(tmp_path, "sphere-verify", X1X2, "--seed", "42")
        assert json.loads(text)["rng"]["seed"] == 42


class TestParserBuiltOnce:
    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        # the parser is built at import; main only parses, so a usage error
        # and a run after it print what a fresh parser prints
        from zerogap import cli

        fresh = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
        first = run_cli(tmp_path, "sphere-verify", X1X2, "--seed", "4")
        with pytest.raises(SystemExit) as exc:
            main(["sphere-verify", "--starts", "abc"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith(fresh.format_usage()) and "zerogap: error:" in err
        assert run_cli(tmp_path, "sphere-verify", X1X2, "--seed", "4") == first
        assert vars(cli._PARSER.parse_args(["sphere-max", "--tol", "0.5"])) == vars(
            fresh.parse_args(["sphere-max", "--tol", "0.5"])
        )


class TestUsageErrors:
    def test_allocation_failure_is_a_usage_error(self, tmp_path, capsys):
        # 4e15 start rows in R^3 are refused by numpy at once, with no memory taken
        payload = {"dim": 3, "terms": [{"e": [1, 1, 1], "c": 1.0}]}
        code, out = run_cli(tmp_path, "sphere-max", payload, "--starts", "1000000000000000")
        assert code == 3 and out == ""
        assert "Unable to allocate" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["sphere-verify", "--tol"],
            ["sphere-verify", "--starts", "abc"],
            ["sphere-verify", "--tol", "-inf"],
        ],
    )
    def test_argument_errors_are_usage_errors(self, argv, capsys):
        # exit status 2 would read as a failed bound check
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "zerogap: error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: zerogap" in capsys.readouterr().out

    def test_bad_tolerance(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "sphere-verify", X1X2, "--tol", "-1")
        assert code == 3

    def test_dimension_above_1111_reaches_the_ascent(self, tmp_path, monkeypatch):
        # one linear term in 1112 variables: the multistart draws its starts in
        # R^1112 and hands them to the ascent, which stops here rather than run
        # the search in 1112 dimensions
        class Reached(Exception):
            pass

        shapes = []

        def no_ascent(value, grad, X):
            shapes.append(X.shape)
            assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
            raise Reached

        monkeypatch.setattr(sphereopt, "_batch_ascent", no_ascent)
        payload = {"dim": 1112, "terms": [{"e": [1] + [0] * 1111, "c": 1.0}]}
        with pytest.raises(Reached):
            run_cli(tmp_path, "sphere-max", payload)
        assert len(shapes) == 1 and shapes[0][1] == 1112

    def test_negative_seed(self, tmp_path, capsys):
        terms = [{"e": [2, 0, 0], "c": 1.0}, {"e": [0, 2, 0], "c": 1.0}, {"e": [0, 0, 2], "c": -1.0}]
        code, out = run_cli(tmp_path, "sphere-max", {"dim": 3, "terms": terms}, "--seed", "-1")
        assert code == 3 and out == ""
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
    def test_non_finite_tolerance(self, tmp_path, capsys, tol):
        # x1 + 0.999: the zero sits 3.0969 from the maximizer, far above the
        # bound pi/2, so an infinite tolerance would attach an equality circle
        payload = {"dim": 2, "terms": [{"e": [1, 0], "c": 1.0}, {"e": [0, 0], "c": 0.999}]}
        code, out = run_cli(tmp_path, "sphere-verify", payload, f"--tol={tol}")
        assert code == 3 and out == ""
        assert "tolerance must be a positive finite number" in capsys.readouterr().err
        code, out = run_cli(tmp_path, "sphere-verify", payload)
        assert code == 0 and json.loads(out)["equality"] is None

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("sphere-verify", {"dim": 3, "terms": [{"e": [0, 0, 0], "c": 1.0}]}),
            ("sphere-verify", {"dim": 2, "terms": [{"e": [0, 0], "c": 1.0}]}),
            ("complex-verify", {"dim": 2, "deg": 0, "terms": [{"e": [0, 0], "re": 1.0}]}),
        ],
        ids=["sphere-d3", "sphere-d2", "complex-d2"],
    )
    def test_constant_input_is_usage_error(self, tmp_path, capsys, command, payload):
        # the bounds pi/(2n) and arcsin(1/sqrt n) need degree n >= 1
        code, out = run_cli(tmp_path, command, payload)
        assert code == 3 and out == ""
        assert "degree must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    def test_lifted_diag_needs_positive_order(self, tmp_path, capsys, n):
        code, out = run_cli(tmp_path, "lifted-diag", {"n": n, "k": 2})
        assert code == 3 and out == ""
        assert "need n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 2, "k": 0}, "need k > n"),
            ({"n": 0, "k": 4}, "need n >= 1"),
            ({"n": 2, "k": 5}, "same parity"),
        ],
    )
    def test_cheb_table_checks_orders_before_evaluating(self, tmp_path, capsys, payload, message):
        # k = 0 would divide by zero in x / k: the only line on stderr is the error
        code, out = run_cli(tmp_path, "cheb-table", payload)
        assert code == 3 and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_missing_file(self, capsys):
        code = main(["sphere-verify", "--input", "/nonexistent/path.json"])
        assert code == 3


class TestMalformedNumbers:
    """NaN, an infinity, a fractional order or an exponent that is not a whole
    number is a usage error where the input is built."""

    @pytest.mark.parametrize(
        "command, text, bad",
        [
            ("sphere-verify", '{"dim": 3, "terms": [{"e": [1, 0, 0], "c": NaN}]}', "nan"),
            ("sphere-verify", '{"forms": [{"a": [1, 0, 0], "b": NaN}]}', "nan"),
            ("ball-pair", '{"forms": [{"a": [1, 0], "b": Infinity}]}', "inf"),
            ("complex-verify", '{"dim": 2, "terms": [{"e": [1, 0], "re": NaN}]}', "nan"),
            (
                "weighted-verify",
                '{"items": [{"poly": {"dim": 2, "terms": [{"e": [1, 0], "re": 1.0}]}, "delta": NaN}]}',
                "nan",
            ),
            ("refute-ball", '{"dim": 2, "planks": [{"a": [1, 0], "c": NaN, "w": 0.5}]}', "nan"),
            ("cheb-table", '{"n": 2, "k": 4, "half_width": Infinity}', "inf"),
            ("convergence", '{"n": 2, "ks": [4, 8], "half_width": NaN}', "nan"),
            ("lifted-diag", '{"n": 2, "k": 4.5}', "4.5"),
            ("sphere-verify", '{"dim": 2, "terms": [{"e": [1.5, 0], "c": 1.0}, {"e": [0, 1], "c": 1.0}]}', "1.5"),
            ("sphere-verify", '{"dim": 3, "terms": [{"e": [1, "2", 0], "c": 1.0}]}', "'2'"),
            ("sphere-verify", '{"dim": 2, "terms": [{"e": [true, 0], "c": 1.0}]}', "True"),
            ("sphere-max", '{"dim": 2, "terms": [{"e": [1, 0], "c": 1.0}, {"e": [true, 0], "c": 2.0}]}', "True"),
            (
                "complex-verify",
                '{"dim": 2, "terms": [{"e": [1, 0], "re": 1.0}, {"e": [true, 0], "re": 2.0}]}',
                "True",
            ),
            ("complex-verify", '{"dim": 2, "deg": 2, "terms": [{"e": [1.5, 0.5], "re": 1.0}]}', "1.5"),
        ],
        ids=[
            "sphere-coefficient",
            "sphere-form-offset",
            "ball-pair-offset",
            "complex-coefficient",
            "weighted-delta",
            "plank-centre",
            "cheb-table-half-width",
            "convergence-half-width",
            "lifted-diag-order",
            "sphere-fractional-exponent",
            "sphere-string-exponent",
            "sphere-boolean-exponent",
            "sphere-boolean-after-integer-exponent",
            "complex-boolean-after-integer-exponent",
            "complex-fractional-exponent",
        ],
    )
    def test_usage_error_naming_the_value(self, tmp_path, capsys, command, text, bad):
        inp = tmp_path / "input.json"
        inp.write_text(text, encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main([command, "--input", str(inp), "--output", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and bad in err[0]

    def test_repeated_exponent_vectors_are_summed(self, tmp_path):
        # x + 2x is 3x, whose maximum on the unit circle is 3
        twice = {"dim": 2, "terms": [{"e": [1, 0], "c": 1.0}, {"e": [1, 0], "c": 2.0}]}
        code, text = run_cli(tmp_path, "sphere-max", twice)
        assert code == 0 and json.loads(text)["value"] == 3.0
        for command, key in (("sphere-verify", "c"), ("complex-verify", "re")):
            split = {"dim": 2, "terms": [{"e": [2, 0], key: 0.25}, {"e": [0, 2], key: -1.0}, {"e": [2, 0], key: 0.75}]}
            merged = {"dim": 2, "terms": [{"e": [2, 0], key: 1.0}, {"e": [0, 2], key: -1.0}]}
            assert run_cli(tmp_path, command, split) == run_cli(tmp_path, command, merged)

    def test_whole_float_and_numpy_exponents_read_as_integers(self, tmp_path):
        exact = {"dim": 2, "terms": [{"e": [2, 0], "c": 1.0}, {"e": [0, 1], "c": 0.5}]}
        code, expected = run_cli(tmp_path, "sphere-verify", exact)
        assert code == 0
        floats = {"dim": 2, "terms": [{"e": [2.0, 0], "c": 1.0}, {"e": [0, 1.0], "c": 0.5}]}
        assert run_cli(tmp_path, "sphere-verify", floats) == (0, expected)
        assert MultiPoly(2, {(np.int64(2), np.int32(0)): 1.0}).terms == (((2, 0), 1.0),)


def _poly_input(obj):
    if "forms" in obj:
        return product_of_affine_forms([AffineForm(f["a"], f["b"]) for f in obj["forms"]])
    return MultiPoly.from_json(obj)


def legacy_report(command, obj):
    """(result, legacy JSON object) of ``command`` on ``obj`` at the CLI's default seed, starts and tolerance."""
    if command == "trig-verify":
        T = TrigPoly.from_json(obj)
        rep = trigcircle.zero_gap_certificate(T, tol=1e-6)
        return rep, _oracles.legacy_trig_verify_json(T, rep)
    if command == "sphere-max":
        res = sphereopt.maximize_abs_on_sphere(_poly_input(obj))
        return res, _oracles.legacy_sphere_max_json(res)
    if command == "sphere-verify":
        rep = sphereopt.verify_sphere_gap(_poly_input(obj))
        return rep, _oracles.legacy_sphere_gap_json(rep)
    if command == "ball-pair":
        cert = ballfinder.pair_point(_poly_input(obj))
        return cert, _oracles.legacy_pair_json(cert)
    if command == "ball-multiplier":
        poly = _poly_input(obj)
        point, dist = ballfinder.multiplier_point(poly)
        result = {"point": point, "distance": dist, "bound": 1.0 / poly.degree}
        result["passed"] = bool(dist >= result["bound"] - 1e-6)
        return result, _oracles.legacy_ball_multiplier_json(**result)
    if command == "complex-verify":
        rep = complexproj.verify_complex_gap(complexproj.ComplexHomogPoly.from_json(obj))
        return rep, _oracles.legacy_complex_gap_json(rep)
    if command == "weighted-verify":
        items = [(complexproj.ComplexHomogPoly.from_json(it["poly"]), it["delta"]) for it in obj["items"]]
        rep = complexproj.verify_weighted_gap(complexproj.WeightedSystem(items))
        return rep, _oracles.legacy_complex_gap_json(rep)
    if command == "refute-sphere":
        res = covering.refute_cover_sphere([covering.SphericalSegment.from_json(s) for s in obj["segments"]])
        return res, _oracles.legacy_refutation_json(res)
    if command == "refute-ball":
        res = covering.refute_cover_ball([covering.Plank.from_json(p) for p in obj["planks"]])
        return res, _oracles.legacy_refutation_json(res)
    if command == "lifted-diag":
        diag = ballfinder.lifted_diagnostics(obj["n"], obj["k"])
        return diag, _oracles.legacy_lifted_json(diag)
    rep = chebmult.convergence_report(obj["n"], obj["ks"], obj["half_width"])
    return rep, _oracles.legacy_convergence_json(rep)


XYZ = {"dim": 3, "terms": [{"e": [1, 1, 1], "c": 1.0}]}
QUADRIC = {"dim": 3, "terms": [{"e": [2, 0, 0], "c": 1.0}, {"e": [0, 2, 0], "c": -0.5}, {"e": [0, 0, 1], "c": 0.3}]}
FORMS_D2 = {"forms": [{"a": [1, 0], "b": 0.1}, {"a": [1, 1], "b": 0.0}]}
FORMS_D3 = {"forms": [{"a": [1, 0, 0], "b": 0.0}, {"a": [0, 1, 0], "b": 0.2}, {"a": [1, 1, 1], "b": -0.1}]}
C2 = {"dim": 2, "deg": 2, "terms": [{"e": [1, 1], "re": 1.0}, {"e": [2, 0], "re": 0.3, "im": 0.2}]}
C3 = {"dim": 3, "terms": [{"e": [2, 0, 0], "re": 1.0}, {"e": [0, 1, 1], "re": -0.7}]}
WEIGHTED = {
    "items": [{"poly": C2, "delta": 0.5}, {"poly": {"dim": 2, "terms": [{"e": [1, 0], "re": 1.0}]}, "delta": 0.5}],
}
UNEQUAL_ZONES = {
    "dim": 3,
    "segments": [{"a": [1, 0, 0], "b": 0.1, "delta": 0.3}, {"a": [0, 1, 0], "b": 0.0, "delta": 0.5}],
}


def two_planks(w1, w2):
    return {"dim": 2, "planks": [{"a": [1, 0], "c": 0.0, "w": w1}, {"a": [0, 1], "c": 0.2, "w": w2}]}


class TestLegacyReports:
    """Every JSON report equals the dict that was written by hand for it before
    one serializer wrote each report from its dataclass fields."""

    @pytest.mark.parametrize(
        "command, payload, check",
        [
            ("trig-verify", {"n": 0, "a0": 2.0, "c": []}, lambda rep: rep["degree"] == 0),
            ("trig-verify", {"n": 3, "a0": 0.0, "c": [[0, 0], [0, 0], [1.0, 0]]}, lambda rep: rep["interlacing"]),
            ("trig-verify", {"n": 3, "a0": 0.2, "c": [[0.4, -1.1], [0.3, 0.0], [-0.7, 0.5]]}, None),
            ("sphere-max", X1X2, None),
            ("sphere-max", FORMS_D3, None),
            ("sphere-max", QUADRIC, None),
            ("sphere-verify", X1X2, lambda rep: rep["equality"]["interlacing"] is True),
            ("sphere-verify", FORMS_D2, None),
            ("sphere-verify", XYZ, lambda rep: rep["equality"] is None),
            ("sphere-verify", FORMS_D3, None),
            ("sphere-verify", QUADRIC, None),
            ("ball-pair", X1X2, None),
            ("ball-pair", FORMS_D3, None),
            ("ball-multiplier", QUADRIC, None),
            ("ball-multiplier", FORMS_D3, None),
            ("complex-verify", C2, lambda rep: rep["cp1_radius"] is not None),
            ("complex-verify", C3, None),
            ("weighted-verify", WEIGHTED, None),
            ("refute-sphere", THREE_ZONES, lambda rep: rep["split_N"] == 0),
            ("refute-sphere", UNEQUAL_ZONES, lambda rep: rep["split_N"] > 0),
            ("refute-ball", two_planks(0.5, 0.5), lambda rep: rep["split_N"] == 0),
            ("refute-ball", two_planks(0.3, 0.6), lambda rep: rep["split_N"] == 0),
            ("lifted-diag", {"n": 3, "k": 9}, None),
            ("convergence", {"n": 2, "ks": [4, 8, 16], "half_width": 3.0}, None),
        ],
        ids=[
            "trig-degree-0",
            "trig-cos3",
            "trig-random",
            "sphere-max-d2",
            "sphere-max-d3-tagged",
            "sphere-max-d3",
            "sphere-verify-xy",
            "sphere-verify-d2-tagged",
            "sphere-verify-xyz",
            "sphere-verify-d3-tagged",
            "sphere-verify-quadric",
            "ball-pair-xy",
            "ball-pair-d3-tagged",
            "ball-multiplier-d3",
            "ball-multiplier-d3-tagged",
            "complex-c2",
            "complex-c3",
            "weighted",
            "refute-sphere",
            "refute-sphere-split",
            "refute-ball",
            "refute-ball-split",
            "lifted-diag",
            "convergence",
        ],
    )
    def test_report_equals_legacy_json(self, tmp_path, command, payload, check):
        result, legacy = legacy_report(command, payload)
        assert json.dumps(_report(result), sort_keys=True) == json.dumps(legacy, sort_keys=True)
        assert check is None or check(legacy)
        _, text = run_cli(tmp_path, command, payload)
        rng = {"name": "pcg64-gauss/1", "seed": 0}
        assert text == json.dumps({**legacy, "rng": rng}, sort_keys=True, indent=2) + "\n"


class TestNoSlsqp:
    @pytest.mark.parametrize(
        "command, payload, check",
        [
            ("ball-pair", X1X2, lambda rep: rep["ball_distance"] == pytest.approx(0.5, abs=1e-9)),
            (
                "ball-multiplier",
                {"dim": 2, "terms": [{"e": [2, 0], "c": 1.0}, {"e": [0, 2], "c": -1.0}, {"e": [1, 0], "c": 0.3}]},
                lambda rep: rep["distance"] >= rep["bound"] == 0.5,
            ),
            (
                "complex-verify",
                {"dim": 3, "terms": [{"e": [1, 1, 1], "re": 1.0}]},
                lambda rep: rep["distances"][0] == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-9),
            ),
        ],
        ids=["ball-pair", "ball-multiplier", "complex-verify"],
    )
    def test_untagged_input_takes_no_slsqp_solve(self, tmp_path, monkeypatch, command, payload, check):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{command} called scipy.optimize.minimize")

        for module in (scipy.optimize, ballfinder, complexproj, sphereopt):
            monkeypatch.setattr(module, "minimize", forbidden)
        code, text = run_cli(tmp_path, command, payload)
        assert code == 0
        rep = json.loads(text)
        assert rep["passed"] is True or rep["passed"] == [True]
        assert check(rep)


# one small input per command, each answered with exit code 0
SMALL_INPUTS = {
    "trig-verify": {"n": 2, "a0": 0.4, "c": [[0.1, 0.0], [-0.5, 0.0]]},
    "sphere-max": {"dim": 3, "terms": [{"e": [1, 1, 0], "c": 1.0}, {"e": [0, 0, 2], "c": 0.5}]},
    "sphere-verify": X1X2,
    "complex-verify": {"dim": 2, "terms": [{"e": [1, 1], "re": 1.0}]},
    "weighted-verify": {
        "items": [
            {"poly": {"dim": 2, "terms": [{"e": [1, 0], "re": 1.0}]}, "delta": 0.6},
            {"poly": {"dim": 2, "terms": [{"e": [0, 1], "re": 1.0}]}, "delta": 0.8},
        ]
    },
    "ball-pair": {"dim": 1, "terms": [{"e": [1], "c": 1.0}]},
    "ball-multiplier": {"dim": 2, "terms": [{"e": [2, 0], "c": 1.0}, {"e": [0, 1], "c": -0.3}]},
    "refute-sphere": THREE_ZONES,
    "refute-ball": {"dim": 2, "planks": [{"a": [1.0, 0.0], "c": 0.0, "w": 1.8}]},
    "cheb-table": {"n": 2, "k": 8, "half_width": 5.0, "points": 11},
    "lifted-diag": {"n": 2, "k": 4},
    "convergence": {"n": 2, "ks": [20, 40], "half_width": 5.0},
}

_RUN_EVERY_COMMAND = """
import json, os, sys, tempfile
import zerogap.cli
inputs = json.loads(sys.stdin.read())
with tempfile.TemporaryDirectory() as tmp:
    inp, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
    codes = {}
    for command, payload in inputs.items():
        with open(inp, "w") as f:
            json.dump(payload, f)
        codes[command] = zerogap.cli.main([command, "--input", inp, "--output", out])
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_commands_load_no_scipy():
    # the package computes with numpy alone: importing the CLI and running
    # every command once leaves no scipy module loaded
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_COMMAND],
        input=json.dumps(SMALL_INPUTS),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {command: 0 for command in SMALL_INPUTS}
    assert sorted(SMALL_INPUTS) == sorted(COMMANDS)
    assert result["scipy"] == []


def test_console_script_runs():
    # the child interpreter imports the same zerogap as this one
    proc = subprocess.run(
        [sys.executable, "-m", "zerogap.cli", "lifted-diag"],
        input='{"n": 1, "k": 3}',
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2
