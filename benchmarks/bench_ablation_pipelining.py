"""Ablation: per-worker pipeline depth in the ASYNCscheduler.

The paper's model gives each worker one task at a time ("a worker is
available if it is not executing a task"). Allowing a small number of
queued tasks per worker hides the dispatch round-trip: workers never idle
between submission rounds, trading a bounded amount of extra staleness
for cluster time — a natural extension the framework's STAT machinery
supports without touching the algorithms.
"""

from benchmarks.conftest import *  # noqa: F401,F403
from repro.bench.figures import PAPER_CELL
from repro.bench.harness import run_api_experiment

DEPTHS = (1, 2, 4)


def test_pipeline_depth_tradeoff(benchmark, run_once):
    def sweep():
        out = {}
        for depth in DEPTHS:
            out[depth] = run_api_experiment(PAPER_CELL.with_overrides(
                algorithm="asgd", delay="cds:1.0", max_updates=400,
                pipeline_depth=depth,
            ))
        return out

    out = run_once(benchmark, sweep)
    # Deeper pipelines complete the same update budget in less time...
    assert out[2].elapsed_ms <= out[1].elapsed_ms
    assert out[4].elapsed_ms <= out[1].elapsed_ms * 1.02
    # ...while staleness stays bounded: per straggler task (cds:1.0 =
    # 2x as long) every other worker lands 2 results per pipeline slot.
    for depth in DEPTHS:
        assert out[depth].updates == 400
        assert out[depth].extras["max_staleness_seen"] <= depth * 2 * 8
        assert out[depth].final_error < out[depth].initial_error
    benchmark.extra_info["elapsed_ms"] = {
        d: round(out[d].elapsed_ms, 1) for d in DEPTHS
    }
