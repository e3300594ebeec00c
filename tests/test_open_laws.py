"""Laws the engine does not keep yet, as strict expected failures.

Each test states a property the paper promises, on the smallest run
that breaks it today, and names the ROADMAP item whose fix makes it
hold. ``strict=True`` turns a silent pass into a suite failure, so the
fixing change must flip the marker; ``raises=AssertionError`` (or the
one error a crash law names) keeps the test failing for the stated
reason and not for any other error. A law whose fix has landed drops
its marker and stays here as a regression test.
"""

import pytest

from repro.api import run_experiment
from repro.api.runner import prepare_experiment


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the scheduler's wait for `ready` applies no "
    "result, so bsp reaches staleness 7 at worker grain and 15 at "
    "partition grain",
)
@pytest.mark.parametrize("granularity,tasks", [("worker", 4), ("partition", 8)])
def test_bsp_keeps_staleness_below_one_round(granularity, tasks):
    """Every task of a BSP round is dispatched at one model version, so
    no applied result may be staler than the T - 1 others of its round
    (T tasks: one per worker, or one per partition)."""
    result = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 200, "seed": 0,
        "policy": "bsp", "granularity": granularity,
    })
    assert result.extras["max_staleness_seen"] <= tasks - 1


def _final_error(spec: dict) -> float:
    prep = prepare_experiment(spec)
    return float(prep.execute().final_error(prep.problem))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 12 and 20: a row's stored version advances "
    "when its task runs, not when its result is applied, so a lost task "
    "leaves rows ahead of SAGA's average; and a dead worker's partitions "
    "are not re-homed. The faulted run ends at 1.75e-4 against 5.0e-8 "
    "without the fault",
)
def test_asaga_under_a_kill_ends_near_the_fault_free_error():
    """A kill and revive lose tasks, not SAGA's gradient table: the
    faulted run ends within 2x of the fault-free error at the same
    budget."""
    spec = {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 6000, "seed": 0,
    }
    clean = _final_error(spec)
    faulted = _final_error(
        {**spec, "fault_plan": "kill:w1@30ms,revive:w1@60ms"}
    )
    assert faulted <= 2 * clean


@pytest.mark.parametrize("granularity", ["worker", "partition"])
def test_compressed_asaga_survives_a_kill_and_revive(granularity):
    """A kill and revive lose tasks, never the versions a live table
    still reads: under top-k compression (which prunes the model
    channel) the faulted run spends its whole budget."""
    result = run_experiment({
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 6000, "seed": 0,
        "compressor": "topk:0.5", "granularity": granularity,
        "fault_plan": "kill:w1@300ms,revive:w1@320ms",
    })
    assert result.updates == 6000
