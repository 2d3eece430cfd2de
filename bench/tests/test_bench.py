"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_short_run_has_no_failures(name):
    workload = run.set_up(name, seed=3)
    m = run.measure(workload, seconds=0.2, min_ops=3)
    assert len(m["latencies"]) >= 3
    assert m["failed"] == 0
    assert m["items"] > 0


def _deterministic(metrics: dict) -> dict:
    return {
        k: v["value"]
        for k, v in metrics.items()
        if k.endswith((".count", ".calls", ".per_point")) or k == "jets.space.misses"
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
           "--seconds", "0", "--trace", "1"]
    results = []
    for _ in range(2):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, second = (_deterministic(r["metrics"]) for r in results)
    assert len(first) == 8
    assert first == second
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_failing_ops_are_counted_not_raised():
    real = run.set_up("search", seed=3)

    def wrong(inp, out):
        raise workloads.CheckFailed("made to fail")

    def broken(inp):
        raise ZeroDivisionError("op raised")

    for workload in (
        workloads.Workload("search", real.inputs, real.op, wrong),
        workloads.Workload("search", real.inputs, broken, real.check),
    ):
        m = run.measure(workload, seconds=0.0, min_ops=4)
        assert m["failed"] == len(m["latencies"]) == 4
        assert m["items"] == 0


def test_self_times_add_up_to_parent_minus_children():
    clock = itertools.count(0.0, 1.0).__next__
    rec = tracing.Recorder(clock=clock)
    leaf = rec.spanned("leaf", lambda: None)
    mid = rec.spanned("mid", lambda: (leaf(), leaf()))
    top = rec.spanned("top", lambda: (mid(), leaf()))
    top()
    spans = rec.spans
    durations = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for (_, start, end, parent) in spans:
        if parent >= 0:
            children[parent] += end - start
    expected = {}
    for (name, *_), d, c in zip(spans, durations, children):
        expected[name] = expected.get(name, 0.0) + d - c
    assert rec.self_times() == expected
    assert sum(rec.self_times().values()) == durations[0]
    assert [row[3] for row in spans] == [-1, 0, 1, 1, 0]


def test_instrumentation_is_removed_after_use():
    from skewdiv import expr, geometry, jets

    before = (jets.Jet.__mul__, geometry.evaluate, vars(geometry.MetricJets)["gamma"])
    inst = tracing.Instrumentation(tracing.Recorder())
    inst.install()
    assert geometry.evaluate is not before[1]
    assert expr.evaluate is geometry.evaluate
    inst.remove()
    assert (jets.Jet.__mul__, geometry.evaluate, vars(geometry.MetricJets)["gamma"]) == before


def test_benchmark_json_names_match_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    workload = run.set_up("search", seed=3)
    reported = run.end_to_end(run.measure(workload, 0.0, min_ops=10), ([1.0], [1e-3]))
    for name in run.UNGATED:
        reported.pop(name)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit, _) in reported.items()
    }
