"""Command-line interface: verify gap bounds, find far points, refute coverings.

Exit codes: 0 when the requested verification or refutation succeeded, 2
when a bound check failed or a refutation could not be verified (with a full
report still emitted), 3 for malformed arguments or input and violated
preconditions.
Given the same input, seed, tolerance, and starts, output is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import ballfinder, chebmult, complexproj, covering, sphereopt, trigcircle
from .errors import VerificationError
from .polycore import AffineForm, MultiPoly, product_of_affine_forms

COMMANDS = (
    "trig-verify",
    "sphere-max",
    "sphere-verify",
    "complex-verify",
    "weighted-verify",
    "ball-pair",
    "ball-multiplier",
    "refute-sphere",
    "refute-ball",
    "cheb-table",
    "lifted-diag",
    "convergence",
)

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 2
EXIT_USAGE = 3


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    seed: int = 0
    tol: float = 1e-6
    starts: int = 64
    fmt: str = "json"


def _rng_stamp(config):
    return {"name": sphereopt.RNG_NAME, "seed": config.seed}


def _load_input(config):
    if config.input_path in (None, "-"):
        text = sys.stdin.read()
        where = "<stdin>"
    else:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        where = config.input_path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _emit(config, text):
    if config.output_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(config, obj):
    obj = dict(obj)
    obj["rng"] = _rng_stamp(config)
    _emit(config, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(config, header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    _emit(config, buf.getvalue())


def _poly_from_obj(obj) -> MultiPoly:
    if "forms" in obj:
        forms = [AffineForm(f["a"], f["b"]) for f in obj["forms"]]
        return product_of_affine_forms(forms)
    return MultiPoly.from_json(obj)


def _cmd_trig_verify(config):
    T = trigcircle.TrigPoly.from_json(_load_input(config))
    report = trigcircle.zero_gap_certificate(T, tol=config.tol)
    zeros = report.zeros
    interlaces, _ = trigcircle.interlacing_check(T, zeros=zeros, max_points=report.max_points)
    if config.fmt == "csv":
        rows = []
        thetas = [z.theta for z in zeros] + list(report.max_points)
        values = [float(v) for v in T.eval(np.array(thetas))]
        events = sorted(
            [(z.theta, "zero", v, z.multiplicity) for z, v in zip(zeros, values)]
            + [(t, "max", v, 1) for t, v in zip(report.max_points, values[len(zeros) :])]
        )
        for i, (theta, kind, value, mult) in enumerate(events):
            nxt = events[(i + 1) % len(events)][0] + (2 * math.pi if i + 1 == len(events) else 0.0)
            rows.append((kind, theta, value, mult, nxt - theta))
        _emit_csv(config, ["kind", "theta", "value", "multiplicity", "arc"], rows)
    else:
        _emit_json(
            config,
            {
                "degree": T.degree,
                "max_value": report.max_value,
                "max_points": list(report.max_points),
                "zeros": [{"theta": z.theta, "multiplicity": z.multiplicity} for z in zeros],
                "min_distance": report.min_distance,
                "bound": report.bound,
                "passed": report.passed,
                "q_identically_zero": report.q_identically_zero,
                "interlacing": interlaces,
            },
        )
    return EXIT_OK if report.passed else EXIT_BOUND_VIOLATED


def _cmd_sphere_max(config):
    poly = _poly_from_obj(_load_input(config))
    res = sphereopt.maximize_abs_on_sphere(poly, starts=config.starts, seed=config.seed)
    _emit_json(
        config,
        {
            "value": res.value,
            "log_value": res.log_value,
            "point": res.point.tolist(),
            "near_maximizers": [p.tolist() for p in res.all_near_max],
        },
    )
    return EXIT_OK


def _cmd_sphere_verify(config):
    poly = _poly_from_obj(_load_input(config))
    rep = sphereopt.verify_sphere_gap(poly, seed=config.seed, starts=config.starts, tol=config.tol)
    _emit_json(config, rep.to_json())
    return EXIT_OK if rep.passed else EXIT_BOUND_VIOLATED


def _complex_poly_from_obj(obj):
    return complexproj.ComplexHomogPoly.from_json(obj)


def _cmd_complex_verify(config):
    poly = _complex_poly_from_obj(_load_input(config))
    rep = complexproj.verify_complex_gap(poly, seed=config.seed, starts=config.starts, tol=config.tol)
    _emit_json(config, rep.to_json())
    return EXIT_OK if rep.all_passed else EXIT_BOUND_VIOLATED


def _cmd_weighted_verify(config):
    obj = _load_input(config)
    items = [(_complex_poly_from_obj(it["poly"]), it["delta"]) for it in obj["items"]]
    system = complexproj.WeightedSystem(items)
    rep = complexproj.verify_weighted_gap(system, seed=config.seed, starts=config.starts, tol=config.tol)
    _emit_json(config, rep.to_json())
    return EXIT_OK if rep.all_passed else EXIT_BOUND_VIOLATED


def _cmd_ball_pair(config):
    poly = _poly_from_obj(_load_input(config))
    cert = ballfinder.pair_point(poly, seed=config.seed, starts=config.starts, tol=config.tol)
    _emit_json(config, cert.to_json())
    return EXIT_OK if cert.passed else EXIT_BOUND_VIOLATED


def _cmd_ball_multiplier(config):
    poly = _poly_from_obj(_load_input(config))
    point, dist = ballfinder.multiplier_point(poly, seed=config.seed, starts=config.starts)
    bound = 1.0 / poly.degree
    passed = bool(dist >= bound - config.tol)
    if config.fmt == "csv":
        xs = np.linspace(-1.0, 1.0, 257)
        rows = [(float(x), float(chebmult.ball_multiplier(poly.degree, x))) for x in xs]
        _emit_csv(config, ["x", "multiplier"], rows)
    else:
        _emit_json(
            config,
            {
                "point": point.tolist(),
                "distance": dist,
                "bound": bound,
                "passed": passed,
            },
        )
    return EXIT_OK if passed else EXIT_BOUND_VIOLATED


def _cmd_refute_sphere(config):
    obj = _load_input(config)
    segments = [covering.SphericalSegment.from_json(s) for s in obj["segments"]]
    res = covering.refute_cover_sphere(segments, seed=config.seed, starts=config.starts)
    _emit_json(config, res.to_json())
    return EXIT_OK


def _cmd_refute_ball(config):
    obj = _load_input(config)
    planks = [covering.Plank.from_json(p) for p in obj["planks"]]
    res = covering.refute_cover_ball(planks, seed=config.seed, starts=config.starts)
    _emit_json(config, res.to_json())
    return EXIT_OK


def _cmd_cheb_table(config):
    obj = _load_input(config)
    n, k = int(obj["n"]), int(obj["k"])
    chebmult.check_orders(n, k)
    half_width = float(obj.get("half_width", 5.0))
    points = int(obj.get("points", 101))
    xs = np.linspace(-half_width, half_width, points)
    sign = (-1.0) ** (k // 2)
    trig = np.cos(xs) if n % 2 == 0 else np.sin(xs)
    rows = []
    for x, tv in zip(xs, trig):
        rows.append(
            (
                float(x),
                float(sign * chebmult.cheb_eval(k, x / k)),
                float(tv),
                float(chebmult.cheb_tail_product(n, k, x)),
                float(chebmult.trig_tail_product(n, x)),
                float(chebmult.ball_multiplier(n, 2.0 * x / (n * math.pi))),
            )
        )
    _emit_csv(config, ["x", "t_scaled", "trig", "tail_k", "tail", "multiplier"], rows)
    return EXIT_OK


def _cmd_lifted_diag(config):
    obj = _load_input(config)
    diag = ballfinder.lifted_diagnostics(int(obj["n"]), int(obj["k"]))
    if config.fmt == "csv":
        rows = [(lat, diag.spacing, diag.cap_radius) for lat in diag.latitudes]
        _emit_csv(config, ["latitude", "spacing", "cap_radius"], rows)
    else:
        _emit_json(config, diag.to_json())
    return EXIT_OK


def _cmd_convergence(config):
    obj = _load_input(config)
    rep = chebmult.convergence_report(int(obj["n"]), obj["ks"], float(obj["half_width"]))
    _emit_json(
        config,
        {
            "n": rep.n,
            "ks": list(rep.ks),
            "half_width": rep.half_width,
            "scaled_cheb_errors": list(rep.scaled_cheb_errors),
            "tail_errors": list(rep.tail_errors),
        },
    )
    return EXIT_OK


_HANDLERS = {
    "trig-verify": _cmd_trig_verify,
    "sphere-max": _cmd_sphere_max,
    "sphere-verify": _cmd_sphere_verify,
    "complex-verify": _cmd_complex_verify,
    "weighted-verify": _cmd_weighted_verify,
    "ball-pair": _cmd_ball_pair,
    "ball-multiplier": _cmd_ball_multiplier,
    "refute-sphere": _cmd_refute_sphere,
    "refute-ball": _cmd_refute_ball,
    "cheb-table": _cmd_cheb_table,
    "lifted-diag": _cmd_lifted_diag,
    "convergence": _cmd_convergence,
}


def run(config: RunConfig) -> int:
    """Dispatch one command; returns the process exit code."""
    if not (config.tol > 0 and math.isfinite(config.tol)):
        raise ValueError("tolerance must be a positive finite number")
    if config.starts < 1:
        raise ValueError("starts must be at least 1")
    return _HANDLERS[config.command](config)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with EXIT_USAGE: argparse's own status 2 is EXIT_BOUND_VIOLATED here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="zerogap",
        description="Find points far from polynomial zero sets; refute insufficient coverings.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default=None, help="input JSON path (default: stdin)")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--starts", type=int, default=64)
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.output,
        seed=args.seed,
        tol=args.tol,
        starts=args.starts,
        fmt=args.fmt,
    )
    try:
        return run(config)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATED
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
