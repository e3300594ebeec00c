"""Per-worker pipeline depth in the ASYNCscheduler."""

import pytest

from repro.core import ASYNCContext
from repro.core.coordinator import Coordinator
from repro.core.stat import StatTable


def test_depth_validated():
    with pytest.raises(ValueError):
        Coordinator(StatTable(2), pipeline_depth=0)


def test_depth1_worker_busy_after_one_assignment():
    c = Coordinator(StatTable(2), pipeline_depth=1)
    c.on_assigned(0, version=0)
    assert not c.stat[0].available


def test_depth2_worker_available_until_two_inflight():
    c = Coordinator(StatTable(2), pipeline_depth=2)
    c.on_assigned(0, version=0)
    assert c.stat[0].available
    c.on_assigned(0, version=1)
    assert not c.stat[0].available


def test_oldest_version_drives_staleness():
    c = Coordinator(StatTable(1), pipeline_depth=2)
    c.on_assigned(0, version=0)
    c.on_assigned(0, version=3)
    c.model_updated(5)
    # Pessimistic: staleness measured against the oldest in-flight task.
    assert c.stat.max_staleness == 5


def test_pipelined_round_reaches_deeper(ctx):
    """With depth 2, a second round dispatches while the first is still
    in flight — double the tasks land before any drain."""
    rdd = ctx.parallelize(range(8), 4)

    def submit(ac):
        rdd.map(lambda x: x).async_reduce(lambda a, b: a + b, ac)

    ac1 = ASYNCContext(ctx, pipeline_depth=1)
    submit(ac1)
    # Depth 1: second round must wait for deliveries, so submitting now
    # (ASP barrier) advances time first.
    submit(ac1)
    collected_before_wait = len(ac1.coordinator.results)
    ac1.wait_all()
    assert collected_before_wait >= 1

    ac2 = ASYNCContext(ctx, pipeline_depth=2)
    submit(ac2)
    assert ac2.in_flight == 4
    submit(ac2)  # no waiting: every worker can hold a second task
    assert ac2.in_flight == 8
    assert len(ac2.coordinator.results) == 0
    ac2.wait_all()
    assert len(ac2.drain()) == 8


def test_pipelining_reduces_elapsed_time():
    from repro.bench.figures import PAPER_CELL
    from repro.bench.harness import run_api_experiment

    def elapsed(depth):
        return run_api_experiment(PAPER_CELL.with_overrides(
            dataset="tiny_dense", algorithm="asgd", num_workers=4,
            num_partitions=8, max_updates=60, delay="cds:1.0",
            pipeline_depth=depth,
        )).elapsed_ms

    assert elapsed(2) <= elapsed(1)
