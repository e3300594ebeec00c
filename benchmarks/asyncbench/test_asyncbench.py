"""Fast checks of the benchmark's own machinery (no timing assertions)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from asyncbench import measure, tracing, yardstick  # noqa: E402
from asyncbench.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_emits_every_end_to_end_metric_for_every_workload():
    result = run_cli("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for workload in BENCH["workloads"]:
        for metric in BENCH["end_to_end"]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0


def test_quick_trace_emits_every_per_layer_metric():
    result = run_cli("--workload", "asgd_asp", "--trace", "1")
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == tracing.LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["engine.iterator_n"]["value"] > 0
    assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["paths"] == ["benchmarks/asyncbench"]
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def test_counted_pass_repeats_exactly(tmp_path):
    work = measure.EngineWorkload("asaga_durable", 1, str(tmp_path), quick=True)
    work.run()  # one-time lazy imports are not part of the comparison
    first, second = work.run(measure.count_calls), work.run(measure.count_calls)
    for key in ("extra", "sim_ms", "wire_bytes", "digest", "updates"):
        assert first[key] == second[key], key
    assert work.failure(second, first) is None
    broken = dict(second, digest="0" * 40)
    assert "digest" in work.failure(broken, first)
    assert "updates" in work.failure(dict(second, updates=1), first)


def test_calibration_cancels_a_uniform_slowdown():
    sample, before, after = 0.7, 0.24, 0.26
    base = yardstick.calibrate(sample, before, after)
    assert base == pytest.approx(0.7 * yardstick.Y_NOMINAL_S / 0.25)
    slowed = yardstick.calibrate(2 * sample, 2 * before, 2 * after)
    assert slowed == pytest.approx(base)


def test_sandwich_shares_yardsticks_between_neighbours():
    raw, cal, yards = measure.sandwich(lambda: 0.5, lambda n, _s: n < 3)
    assert raw == [0.5] * 3 and len(yards) == 4
    for i, value in enumerate(cal):
        assert value == yardstick.calibrate(0.5, yards[i], yards[i + 1])


def test_self_time_is_duration_minus_child_cover():
    # name, start, end, parent, trace:  a[0,100] { b[10,40] { c[20,30] } d[50,90] }
    spans = [
        [0, 0, 100, -1, 1],
        [1, 10, 40, 0, 1],
        [2, 20, 30, 1, 1],
        [1, 50, 90, 0, 1],
    ]
    table = tracing.span_arrays(spans)
    assert table["dur"].tolist() == [100, 30, 10, 40]
    assert table["self"].tolist() == [30, 20, 10, 40]
    assert table["self"].sum() == table["dur"][0]  # nothing lost or doubled

    names = ["bench.run", "x", "y"]
    rows = tracing.aggregate(names, [table], {1})
    assert rows["x"] == {"count": 2, "total_ns": 70, "self_ns": 60}
    assert tracing.root_coverage(rows) == pytest.approx(0.7)
    assert tracing.aggregate(names, [table], {2})["x"]["count"] == 0
    assert tracing.first_start(names, [table], "x", 1) == 10


def test_wrappers_record_nesting_and_are_removed():
    from repro.data import blocks
    from repro.engine.rdd import RDD
    from repro.optim import asgd

    original_iterator = RDD.iterator
    original_stack = blocks.stack_blocks
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert RDD.iterator is not original_iterator
            # imported-by-name references are patched too
            assert asgd.stack_blocks is blocks.stack_blocks
            assert asgd.stack_blocks is not original_stack
            raise RuntimeError("the pass failed")
    assert RDD.iterator is original_iterator
    assert blocks.stack_blocks is original_stack
    assert asgd.stack_blocks is original_stack

    outer = tracer.wrap(lambda: inner(), "outer")
    inner = tracer.wrap(lambda: None, "inner")
    outer()
    (_thread, spans), = tracer.threads
    assert [tracer.names[s[0]] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0 and spans[0][3] == -1
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]
