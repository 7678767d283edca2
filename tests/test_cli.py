import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from zerogap import ballfinder, complexproj, sphereopt
from zerogap.cli import main
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
        assert rep["rng"] == {"name": "sobol-gauss/1", "seed": 0}

    def test_forms_input(self, tmp_path):
        payload = {"forms": [{"a": [1, 0, 0], "b": 0.0}, {"a": [0, 1, 0], "b": 0.0}]}
        code, text = run_cli(tmp_path, "sphere-verify", payload)
        assert code == 0
        assert json.loads(text)["passed"] is True


class TestRefuteSphere:
    def test_three_zones(self, tmp_path):
        code, text = run_cli(tmp_path, "refute-sphere", THREE_ZONES)
        assert code == 0
        rep = json.loads(text)
        assert min(rep["clearances"]) > 0.2
        assert np.allclose(np.abs(rep["point"]), 1 / math.sqrt(3), atol=1e-6)

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

    def test_degree_disagreeing_with_pairs_is_usage_error(self, tmp_path, capsys):
        payload = {"n": 4, "a0": 0, "c": [[1, 0]]}
        code, text = run_cli(tmp_path, "trig-verify", payload)
        assert code == 3
        assert text == ""
        assert '"n" is 4' in capsys.readouterr().err


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


class TestUsageErrors:
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
