"""Ablation (Sections 4.3/5.2): ASYNCbroadcast vs naive table broadcast.

The design claim behind the ASYNCbroadcaster: Spark-style SAGA must ship
the entire (growing) table of stored parameters every iteration, so its
communication volume grows with the iteration count; history broadcast
ships each version once and re-references by id, so its volume stays flat
per iteration. "As a result of the overhead, machine learning libraries
... do not provide implementations of optimization methods such as SAGA."
"""

from benchmarks.conftest import *  # noqa: F401,F403
from repro.bench import figures
from repro.bench.figures import PAPER_CELL
from repro.bench.harness import run_api_experiment


def test_broadcast_volume_and_time(benchmark, run_once):
    out = run_once(benchmark, figures.ablation_broadcast, updates=40,
                   verbose=True)
    hist = out["cells"]["history"]
    naive = out["cells"]["naive"]
    # Identical mathematics...
    assert abs(hist.final_error - naive.final_error) < 1e-9
    # ...but the naive strategy ships far more bytes...
    assert naive.total_fetch_bytes > 5 * hist.total_fetch_bytes
    # ...and is measurably slower on a constrained interconnect.
    assert naive.elapsed_ms > hist.elapsed_ms
    benchmark.extra_info["bytes_ratio"] = round(
        naive.total_fetch_bytes / hist.total_fetch_bytes, 2
    )


def test_naive_volume_grows_superlinearly(benchmark, run_once):
    """Doubling iterations more than doubles naive bytes (table growth),
    while history bytes grow ~linearly (one fresh version per iteration).
    """

    def fetch_bytes(mode, updates):
        res = run_api_experiment(
            PAPER_CELL.with_overrides(
                dataset="tiny_dense", algorithm="saga", num_workers=4,
                num_partitions=8, max_updates=updates,
                params={"mode": mode},
            )
        )
        return res.total_fetch_bytes

    def growth_ratios():
        naive = fetch_bytes("naive", 40) / fetch_bytes("naive", 20)
        hist = fetch_bytes("history", 40) / fetch_bytes("history", 20)
        return naive, hist

    naive_growth, hist_growth = run_once(benchmark, growth_ratios)
    assert naive_growth > 3.0   # quadratic-ish total volume
    assert hist_growth < 3.0    # linear total volume
    assert naive_growth > hist_growth
    benchmark.extra_info["growth"] = {
        "naive": round(naive_growth, 2), "history": round(hist_growth, 2),
    }
