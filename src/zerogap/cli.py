"""Command-line interface: verify gap bounds, find far points, refute coverings.

Exit codes: 0 when the requested verification or refutation succeeded, 2
either when a bound check failed (with a full report still emitted) or on a
VerificationError (a message on stderr and no report: a refutation that
could not be verified, or zeros on the circle, the real line or the
projective line that could not be placed), 3
for malformed arguments or input, violated preconditions and requests too
large to allocate.
Given the same input, seed, tolerance, and starts, output is byte-identical
across runs.  A JSON report is the fields of the result it was computed as,
written by :func:`_report`, plus the generator stamp ``rng``.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import ballfinder, chebmult, complexproj, covering, sphereopt, trigcircle
from .errors import VerificationError
from .polycore import AffineForm, MultiPoly, _finite, _whole, product_of_affine_forms

EXIT_OK = 0
EXIT_BOUND_VIOLATED = 2
EXIT_USAGE = 3


def _load_input(args):
    if args.input in (None, "-"):
        text = sys.stdin.read()
        where = "<stdin>"
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        where = args.input
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _emit(args, text):
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(value):
    """The JSON value of a result: a dataclass becomes an object of its fields,
    a real array a list, a complex array {"re": [...], "im": [...]} and a numpy
    scalar its Python value; tuples and lists are mapped item by item."""
    if dataclasses.is_dataclass(value):
        return {f.name: _report(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray) and np.iscomplexobj(value):
        return {"re": value.real.tolist(), "im": value.imag.tolist()}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_report(item) for item in value]
    return value


def _emit_json(args, result, passed=True):
    """Write the JSON report of ``result``; returns the exit code that ``passed`` gives."""
    obj = _report(result)
    obj["rng"] = {"name": sphereopt.RNG_NAME, "seed": args.seed}
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_BOUND_VIOLATED


def _emit_csv(args, header, rows, passed=True):
    """Write a CSV table; returns the exit code that ``passed`` gives."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    _emit(args, buf.getvalue())
    return EXIT_OK if passed else EXIT_BOUND_VIOLATED


def _poly(args) -> MultiPoly:
    obj = _load_input(args)
    if "forms" in obj:
        return product_of_affine_forms([AffineForm(f["a"], f["b"]) for f in obj["forms"]])
    return MultiPoly.from_json(obj)


def _cmd_trig_verify(args):
    T = trigcircle.TrigPoly.from_json(_load_input(args))
    report = trigcircle.zero_gap_certificate(T, tol=args.tol)
    if args.fmt == "json":
        return _emit_json(args, report, report.passed)
    zeros = report.zeros
    thetas = [z.theta for z in zeros] + list(report.max_points)
    values = [float(v) for v in T.eval(np.array(thetas))]
    events = sorted(
        [(z.theta, "zero", v, z.multiplicity) for z, v in zip(zeros, values)]
        + [(t, "max", v, 1) for t, v in zip(report.max_points, values[len(zeros) :])]
    )
    rows = []
    for i, (theta, kind, value, mult) in enumerate(events):
        nxt = events[(i + 1) % len(events)][0] + (2 * math.pi if i + 1 == len(events) else 0.0)
        rows.append((kind, theta, value, mult, nxt - theta))
    return _emit_csv(args, ["kind", "theta", "value", "multiplicity", "arc"], rows, report.passed)


def _cmd_sphere_max(args):
    return _emit_json(args, sphereopt.maximize_abs_on_sphere(_poly(args), starts=args.starts, seed=args.seed))


def _cmd_sphere_verify(args):
    rep = sphereopt.verify_sphere_gap(_poly(args), seed=args.seed, starts=args.starts, tol=args.tol)
    return _emit_json(args, rep, rep.passed)


def _cmd_complex_verify(args):
    poly = complexproj.ComplexHomogPoly.from_json(_load_input(args))
    rep = complexproj.verify_complex_gap(poly, seed=args.seed, starts=args.starts, tol=args.tol)
    return _emit_json(args, rep, rep.all_passed)


def _cmd_weighted_verify(args):
    items = [(complexproj.ComplexHomogPoly.from_json(it["poly"]), it["delta"]) for it in _load_input(args)["items"]]
    system = complexproj.WeightedSystem(items)
    rep = complexproj.verify_weighted_gap(system, seed=args.seed, starts=args.starts, tol=args.tol)
    return _emit_json(args, rep, rep.all_passed)


def _cmd_ball_pair(args):
    cert = ballfinder.pair_point(_poly(args), seed=args.seed, starts=args.starts, tol=args.tol)
    return _emit_json(args, cert, cert.passed)


def _cmd_ball_multiplier(args):
    poly = _poly(args)
    cert = ballfinder.multiplier_point(poly, seed=args.seed, starts=args.starts, tol=args.tol)
    if args.fmt == "json":
        return _emit_json(args, cert, cert.passed)
    xs = np.linspace(-1.0, 1.0, 257)
    rows = zip(xs.tolist(), chebmult.ball_multiplier(poly.degree, xs).tolist())
    return _emit_csv(args, ["x", "multiplier"], rows, cert.passed)


def _cmd_refute_sphere(args):
    segments = [covering.SphericalSegment.from_json(s) for s in _load_input(args)["segments"]]
    return _emit_json(args, covering.refute_cover_sphere(segments, seed=args.seed, starts=args.starts))


def _cmd_refute_ball(args):
    planks = [covering.Plank.from_json(p) for p in _load_input(args)["planks"]]
    return _emit_json(args, covering.refute_cover_ball(planks))


def _cmd_cheb_table(args):
    obj = _load_input(args)
    n, k = _whole(obj["n"], "n"), _whole(obj["k"], "k")
    chebmult.check_orders(n, k)
    half_width = _finite(obj.get("half_width", 5.0), '"half_width"')
    xs = np.linspace(-half_width, half_width, _whole(obj.get("points", 101), "points"))
    sign = (-1.0) ** (k // 2)
    columns = (
        xs,
        sign * chebmult.cheb_eval(k, xs / k),
        np.cos(xs) if n % 2 == 0 else np.sin(xs),
        chebmult.cheb_tail_product(n, k, xs),
        chebmult.trig_tail_product(n, xs),
        chebmult.ball_multiplier(n, 2.0 * xs / (n * math.pi)),
    )
    rows = zip(*(c.tolist() for c in columns))
    return _emit_csv(args, ["x", "t_scaled", "trig", "tail_k", "tail", "multiplier"], rows)


def _cmd_lifted_diag(args):
    obj = _load_input(args)
    diag = ballfinder.lifted_diagnostics(_whole(obj["n"], "n"), _whole(obj["k"], "k"))
    if args.fmt == "json":
        return _emit_json(args, diag)
    rows = [(lat, diag.spacing, diag.cap_radius) for lat in diag.latitudes]
    return _emit_csv(args, ["latitude", "spacing", "cap_radius"], rows)


def _cmd_convergence(args):
    obj = _load_input(args)
    n, ks = _whole(obj["n"], "n"), [_whole(k, "ks") for k in obj["ks"]]
    half_width = _finite(obj["half_width"], '"half_width"')
    return _emit_json(args, chebmult.convergence_report(n, ks, half_width))


COMMANDS = {
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


# built once: parse_args keeps no state between calls, and a caller that runs
# many commands in one process pays for the parser once
_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    args = _PARSER.parse_args(argv)
    try:
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise ValueError("tolerance must be a positive finite number")
        if args.starts < 1:
            raise ValueError("starts must be at least 1")
        return COMMANDS[args.command](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATED
    except (ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
