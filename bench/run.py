"""zerogap benchmark: one seeded workload through the real CLI, in-process.

    python3 bench/run.py --workload circle --seed 1 --seconds 20 --trace 0

A single client runs one instance at a time in a closed loop: it calls
``zerogap.cli.main`` on input files written at set-up, and starts the next
instance when the previous one returns.  ``--seconds`` sets the work: whole
cycles of the workload's schedule, as many as fill that time at the commit
that introduced the benchmark (workloads.NOMINAL_CYCLE_S).  Every run of a
workload thus measures the same number of instances of each shape, so its
quantiles sit at the same ranks.  Afterwards every output is re-checked
independently (bench/checks.py).

A fixed reference (bench/reference.py) runs after every instance and in every
set-up probe.  Times are divided by the speed factor it gives, so that they
read as on the nominal machine at nominal speed; the raw figures and the
factor are printed beside them.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it first runs one cycle untraced, then the same loop with span wrappers
installed (bench/tracing.py), and prints the per-layer metrics; the result
hash of the traced cycle must equal the untraced one.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout that holds this file; without it the run exits with code 2.
"""

from __future__ import annotations

import os

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_REFERENCE_PASSES = 10
TAIL_BEYOND = 10

# BLAS/OpenMP pools are pinned to one thread before numpy loads: a single
# client on a small machine spreads less that way.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# import time of zerogap.cli, then the mean reference time in the same process
# (after one warm-up pass)
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import zerogap.cli; "
    "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import reference; "
    "reference.reference_seconds(); "
    f"r = [reference.reference_seconds() for _ in range({SETUP_REFERENCE_PASSES})]; "
    "print(repr(dt), repr(sum(r) / len(r)))"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Import time of zerogap.cli over fresh interpreters: (median scaled, median raw)."""
    import reference

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, ref = (float(v) for v in proc.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        scaled.append(seconds / reference.speed_factor([ref]))
    return statistics.median(scaled), statistics.median(raw)


class Outcome:
    __slots__ = ("index", "command", "code", "seconds", "output", "error")

    def __init__(self, index, command, code, seconds, output, error):
        self.index, self.command, self.code = index, command, code
        self.seconds, self.output, self.error = seconds, output, error


def write_inputs(instances, workdir):
    for inst in instances:
        (workdir / f"in-{inst.index}.json").write_text(json.dumps(inst.payload), encoding="utf-8")


def run_instance(cli, inst, seed, workdir):
    """One CLI call, timed from before the call until its output is read."""
    in_path = workdir / f"in-{inst.index}.json"
    out_path = workdir / f"out-{inst.index}.txt"
    argv = [inst.command, "--input", str(in_path), "--output", str(out_path), "--seed", str(seed), *inst.args]
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a result of the program under test
        code, err = -1, io.StringIO(f"crash: {exc!r}")
    output = out_path.read_bytes() if out_path.exists() else b""
    seconds = time.perf_counter() - t0
    out_path.unlink(missing_ok=True)
    return Outcome(inst.index, inst.command, code, seconds, output, err.getvalue().strip())


class Loop:
    """Outcomes of a closed loop, its wall time without the reference passes,
    and the speed factor those passes gave."""

    def __init__(self, outcomes, wall, factor):
        self.outcomes, self.wall, self.factor = outcomes, wall, factor


def run_loop(cli, instances, seed, workdir, on_start=None):
    """Closed loop: each call starts when the previous one has returned.

    A reference pass follows every call; its time is kept out of the wall time.
    """
    import reference

    outcomes, refs = [], []
    t0 = time.perf_counter()
    for inst in instances:
        if on_start:
            on_start(inst.index)
        outcomes.append(run_instance(cli, inst, seed, workdir))
        refs.append(reference.reference_seconds())
    wall = time.perf_counter() - t0 - sum(refs)
    return Loop(outcomes, wall, reference.speed_factor(refs))


def result_hash(outcomes):
    h = hashlib.sha256()
    for res in outcomes:
        h.update(res.output)
    return h.hexdigest()


REFUSAL = "splitting needs"


def classify(outcomes, instances):
    """Per outcome: 'solved', 'refused' (the splitter's factor limit) or 'wrong: ...'."""
    import checks

    verdicts = []
    for res in outcomes:
        inst = instances[res.index]
        if res.code == 3 and REFUSAL in res.error:
            verdicts.append("refused")
            continue
        if res.code != 0:
            verdicts.append(f"wrong: exit {res.code}: {res.error[:200]}")
            continue
        problem = checks.check(inst.command, inst.payload, res.output.decode("utf-8"), res.code)
        verdicts.append("solved" if problem is None else f"wrong: {problem}")
    return verdicts


def quantile(times, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  It moves less between runs than a single order
    statistic does when the instance times have gaps between shapes."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(times)
    n = x.size
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ x)


def tail_time(times):
    """(percentile, seconds): the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return 50.0, quantile(times, 0.5)
    q = (n - TAIL_BEYOND) / n
    return 100.0 * q, quantile(times, q)


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(loop, verdicts, setup_s, peak_rss_kb):
    """End-to-end metrics; every time is divided by the loop's speed factor."""
    outcomes, f = loop.outcomes, loop.factor
    solved = [res.seconds / f for res, v in zip(outcomes, verdicts) if v == "solved"]
    if not solved:
        return {}, None
    pct, tail = tail_time(solved)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solved_per_s": (len(solved) / (loop.wall / f), "1/s"),
        "instance_s_p50": (quantile(solved, 0.5), "s"),
        "instance_s_tail": (tail, "s"),
        "solved_frac": (len(solved) / len(outcomes), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    return metrics, (pct, len(solved))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "zerogap" / "cli.py").is_file():
        print(f"error: no zerogap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    setup_s, setup_raw = measure_setup()
    print(f"setup: median import {setup_raw!r} s raw, {setup_s!r} s scaled")
    import zerogap.cli as cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(cli, args, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    return 0


def measure(cli, args, workdir, setup_s):
    import tracing
    import workloads

    cycle = workloads.cycle_length(args.workload)
    cycles = workloads.cycles_for(args.workload, args.seconds)
    instances = workloads.make_instances(args.workload, args.seed, cycles * cycle)
    write_inputs(instances, workdir)
    print("env", json.dumps(environment(), sort_keys=True))
    print(f"work {cycles} cycles of {cycle} instances")

    if args.trace:
        first = run_loop(cli, instances[:cycle], args.seed, workdir)
        rec = tracing.Recorder()

        def on_start(i):
            rec.current_instance = i

        handle = tracing.install(rec)
        try:
            loop = run_loop(cli, instances, args.seed, workdir, on_start)
        finally:
            handle.restore()
        WORK.mkdir(exist_ok=True)
        rec.save(WORK / f"spans-{args.workload}-{args.seed}.npz")
    else:
        loop = run_loop(cli, instances, args.seed, workdir)
    outcomes = loop.outcomes
    # ru_maxrss is in KiB on Linux; read before the checks allocate their grids
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    t_check = time.perf_counter()
    verdicts = classify(outcomes, instances)
    solved = sum(v == "solved" for v in verdicts)
    wrong = [(res.index, res.command, v) for res, v in zip(outcomes, verdicts) if v.startswith("wrong")]
    digest = result_hash(outcomes[:cycle])
    print(f"result_hash {digest} (sha256 of the first {cycle} outputs)")
    print(f"instances {len(outcomes)} solved {solved} refused {verdicts.count('refused')} wrong {len(wrong)}")
    for index, command, v in wrong:
        print(f"  instance {index} {command}: {v}")
    correct = not wrong
    print(
        f"loop wall {loop.wall:.3f} s raw, speed factor {loop.factor:.4f}, "
        f"checks {time.perf_counter() - t_check:.3f} s"
    )

    if args.trace:
        first_hash = result_hash(first.outcomes)
        if first_hash != digest:
            print(f"  traced outputs differ from untraced ones ({first_hash})")
            correct = False
        first_solved = sum(v == "solved" for v in classify(first.outcomes, instances))
        first_busy = sum(res.seconds for res in first.outcomes) / first.factor
        traced_first_busy = sum(res.seconds for res in outcomes[:cycle]) / loop.factor
        metrics = tracing.layer_metrics(rec)
        metrics["trace.solved_per_s"] = (first_solved / traced_first_busy, "1/s")
        metrics["trace.untraced_solved_per_s"] = (first_solved / first_busy, "1/s")
        print(
            f"tracing overhead on the first cycle: {traced_first_busy:.3f} s traced vs "
            f"{first_busy:.3f} s untraced"
        )
    else:
        metrics, tail_info = end_to_end(loop, verdicts, setup_s, peak_rss_kb)
        if tail_info:
            print(f"instance_s_tail is p{tail_info[0]:.1f} of {tail_info[1]} solved instances")
        print(f"failed_frac {1.0 - solved / len(outcomes):.6f} ratio")
        print(f"raw solved_per_s {solved / loop.wall!r} 1/s (before the speed factor)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {
        "correct": bool(correct and solved > 0),
        "attempted": len(outcomes),
        "failed": len(outcomes) - solved,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
