"""Tests of the benchmark's own machinery: spans, wrappers, generator, names."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    # root [0,10]: children a [1,4], b [5,6], c [7,9]; a has a child g [2,3]
    start = [0.0, 1.0, 5.0, 7.0, 2.0]
    end = [10.0, 4.0, 6.0, 9.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracing.self_times(start, end, parent)
    assert own == pytest.approx([10.0 - 3.0 - 1.0 - 2.0, 2.0, 1.0, 2.0, 1.0])


def _attribute_snapshot():
    snap = {}
    for mod in tracing._zerogap_modules():
        snap[mod.__name__] = dict(vars(mod))
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{name}"] = dict(value.__dict__)
    return snap


def test_wrappers_are_installed_and_restored(tmp_path):
    import zerogap.cli as cli
    import zerogap.covering as covering

    before = _attribute_snapshot()
    rec = tracing.Recorder()
    handle = tracing.install(rec)
    try:
        assert covering.multiplier_point is not before["zerogap.covering"]["multiplier_point"]
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"n": 3, "a0": 0.2, "c": [[1.0, 0.5], [0.0, 0.3], [0.4, -1.0]]}))
        assert cli.main(["trig-verify", "--input", str(src), "--output", str(tmp_path / "out")]) == 0
    finally:
        handle.restore()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert after[owner][name] is value, f"{owner}.{name} not restored"
    metrics = tracing.layer_metrics(rec)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["trigcircle.TrigPoly.eval.calls"][0] > 0
    assert metrics["trigcircle.zero_gap_certificate.self_s"][0] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    count = workloads.cycle_length(workload) + 2
    first = workloads.make_instances(workload, 11, count)
    assert first == workloads.make_instances(workload, 11, count)
    assert first[-1] == workloads.make_instance(workload, 11, count - 1)
    other = workloads.make_instances(workload, 12, count)
    assert [i.payload for i in first] != [i.payload for i in other]


def test_few_piece_families_split_alike_for_every_seed():
    from zerogap import covering

    schedule = workloads.SCHEDULES["search"]
    for index, (command, shape) in enumerate(schedule):
        if not command.startswith("refute-") or "grid" not in shape["w"]:
            continue
        counts = set()
        for seed in range(40):
            payload = workloads.make_instance("search", seed, index).payload
            if command == "refute-sphere":
                pieces = [covering.SphericalSegment.from_json(s) for s in payload["segments"]]
                virtual, _ = covering.split_segments(pieces)
            else:
                pieces = [covering.Plank.from_json(p) for p in payload["planks"]]
                virtual, _ = covering._split_planks(pieces, None)
            counts.add(len(virtual))
        assert counts == {shape["w"]["grid"][1]}, (command, shape, counts)


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    traced = set(tracing.layer_metrics(tracing.Recorder())) | {"trace.solved_per_s", "trace.untraced_solved_per_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced


def test_checks_reject_a_wrong_answer(tmp_path):
    import zerogap.cli as cli

    inst = workloads.make_instance("circle", 3, 0)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(inst.payload))
    assert cli.main([inst.command, "--input", str(src), "--output", str(out)]) == 0
    text = out.read_text()
    assert checks.check(inst.command, inst.payload, text, 0) is None
    report = json.loads(text)
    report["zeros"] = report["zeros"][1:]
    assert checks.check(inst.command, inst.payload, json.dumps(report), 0) is not None
    report = json.loads(text)
    report["max_value"] *= 1.01
    assert checks.check(inst.command, inst.payload, json.dumps(report), 0) is not None
    assert checks.check(inst.command, inst.payload, text, 2) is not None


def test_refuter_check_uses_membership():
    payload = {"dim": 2, "planks": [{"a": [1.0, 0.0], "c": 0.0, "w": 0.5}]}
    out = {"point": [0.0, 0.9], "clearances": [-0.25], "total_width": 0.5, "budget": 2.0}
    assert "inside plank 0" in checks.check("refute-ball", payload, json.dumps(out), 0)
    out["point"] = [0.5, 0.0]
    out["clearances"] = [0.25]
    assert checks.check("refute-ball", payload, json.dumps(out), 0) is None
