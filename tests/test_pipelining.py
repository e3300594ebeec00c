"""Per-worker pipeline depth in the ASYNCscheduler."""

import pytest

from repro.core import SSP, ASYNCContext
from repro.core.coordinator import Coordinator
from stat_rows import stat_table


def test_depth_validated(ctx):
    with pytest.raises(ValueError):
        stat_table(2, pipeline_depth=0)
    with pytest.raises(ValueError):
        ASYNCContext(ctx, pipeline_depth=0)


def test_depth1_worker_busy_after_one_assignment():
    c = Coordinator(stat_table(2, pipeline_depth=1))
    c.on_assigned(0, version=0)
    assert not c.stat[0].available


def test_depth2_worker_available_until_two_inflight():
    c = Coordinator(stat_table(2, pipeline_depth=2))
    c.on_assigned(0, version=0)
    assert c.stat[0].available
    c.on_assigned(0, version=1)
    assert not c.stat[0].available


def test_oldest_version_drives_staleness():
    c = Coordinator(stat_table(1, pipeline_depth=2))
    c.on_assigned(0, version=0)
    c.on_assigned(0, version=3)
    c.model_updated(5)
    # Pessimistic: staleness measured against the oldest in-flight task.
    assert c.stat.max_staleness == 5


def test_available_worker_holding_a_task_counts_for_ssp():
    """At depth 2 a worker holding one task is still available; its task
    is stale all the same, so SSP must hold the round."""
    c = Coordinator(stat_table(1, pipeline_depth=2))
    c.on_assigned(0, version=0)
    c.model_updated(5)
    assert c.stat[0].available
    assert c.stat.max_staleness == 5
    assert not SSP(1).ready(c.stat)


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
    from repro.api.parallel import run_cell
    from repro.bench.claims import PAPER_CELL

    def elapsed(depth):
        return run_cell(PAPER_CELL.with_overrides(
            dataset="tiny_dense", algorithm="asgd", num_workers=4,
            num_partitions=8, max_updates=60, delay="cds:1.0",
            pipeline_depth=depth,
        ))["elapsed_ms"]

    assert elapsed(2) <= elapsed(1)
