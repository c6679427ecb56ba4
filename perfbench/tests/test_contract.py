"""BENCHMARK.json's shape and the metric names the benchmark emits."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declaration_shape():
    decl = load()
    assert set(decl) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert decl["command"][0] == "python3" and len(decl["command"]) <= 32
    assert decl["paths"] == ["perfbench"]
    assert isinstance(decl["run_seconds"], int) and 1 <= decl["run_seconds"] <= 60
    assert 2 <= len(decl["workloads"]) <= 8
    for workload in decl["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [w["name"] for w in decl["workloads"]]
    for metric in decl["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in decl["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in decl["end_to_end"] + decl["per_layer"]:
        names.append(metric["name"])
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = next(m for m in decl["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in decl["end_to_end"])
    assert len(json.dumps(decl)) <= 64 * 1024


def test_workloads_match_the_registry():
    from workloads import WORKLOADS

    assert [w["name"] for w in load()["workloads"]] == list(WORKLOADS)


def test_emitted_names_match_the_declaration():
    import spans
    import worker
    from workloads import Measurement

    m = Measurement(latencies=[((0, 0), 0.5), ((0, 1), 0.7)], hosts=[0.01, 0.01])
    m.add_counts(10, 20, 3, {"testout:bcast": 10})
    decl = load()
    emitted = set(worker.end_to_end(m)) | {"peak_rss_mb", "setup_s"}
    assert emitted == {metric["name"] for metric in decl["end_to_end"]}
    layers = worker.per_layer(m, m, spans.SpanRecorder(), {"attempted": 2, "failed": 0})
    assert set(layers) == {metric["name"] for metric in decl["per_layer"]}
    assert all(NAME.match(name) for name in layers)


def test_costs_are_per_input_lowest_repeats_in_reference_units():
    import worker
    from workloads import Measurement

    # Input 0 runs in three passes; pass 1 ran while the host was twice as
    # slow, which its reference times show.  Input 1 runs in pass 0 only,
    # and its own reference sample is off, but the pass's median is not.
    m = Measurement(
        latencies=[((0, 0), 0.10), ((0, 1), 0.30), ((1, 0), 0.20), ((2, 0), 0.12)],
        hosts=[0.01, 0.013, 0.02, 0.01],
    )
    assert worker.item_costs(m)[2] == ((1, 0), pytest.approx(10.0))
    assert sorted(worker.input_costs(m)) == pytest.approx([8.695652, 26.086956])
    figures = worker.end_to_end(m)
    assert figures["item_p50_ref"] == pytest.approx(17.391304)
    assert figures["items_per_ref"] == pytest.approx(2 / 34.782608)
    assert worker.wall(m)["wall.item_p50_ms"] == pytest.approx(160.0)


def test_the_reference_routine_leaves_the_collector_as_it_was():
    import gc

    import hostspeed

    assert gc.isenabled()
    assert hostspeed.reference_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: a non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mst-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
