"""ASYNCContext + AsyncScheduler: rounds, barriers, collection semantics."""

import numpy as np
import pytest
from arrival_orders import ORDERS, ScriptedOrder

from repro.core import ASP, BSP, SSP, ASYNCContext
from repro.core.policies import LambdaPolicy
from repro.engine.context import ClusterContext
from repro.errors import AsyncContextError, SchedulerError, TaskError


def submit_square_round(ac, rdd, barrier=None):
    chain = rdd.async_barrier(barrier, ac.stat) if barrier else rdd
    chain.map(lambda x: x * x).async_reduce(lambda a, b: a + b, ac)


def test_round_returns_one_result_per_worker(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 8)  # 2 partitions per worker
    submit_square_round(ac, rdd)
    values = []
    while ac.has_next(block=True):
        values.append(ac.collect())
    assert len(values) == 4
    assert sum(values) == sum(x * x for x in range(8))


def test_collect_all_attributes(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    rec = ac.collect_all(block=True)
    assert rec.batch_size == 2  # elements locally reduced on the worker
    assert rec.staleness == 0
    assert rec.worker_id in range(4)
    assert rec.delivered_ms > rec.submitted_ms


def test_async_reduce_returns_before_results(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    # Submission is asynchronous: nothing has been delivered yet.
    assert ac.in_flight == 4
    assert not ac.has_next(block=False)
    ac.wait_all()
    assert ac.in_flight == 0
    assert ac.has_next(block=False)


def test_collect_nonblocking_raises_when_empty(ctx):
    ac = ASYNCContext(ctx)
    with pytest.raises(AsyncContextError):
        ac.collect(block=False)


def test_collect_blocking_raises_when_nothing_inflight(ctx):
    ac = ASYNCContext(ctx)
    with pytest.raises(AsyncContextError):
        ac.collect(block=True)


def test_availability_tracked_through_round(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    assert ac.stat.num_available == 0
    ac.wait_all()
    assert ac.stat.num_available == 4


def test_staleness_increases_with_updates(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    first = ac.collect_all(block=True)
    assert first.staleness == 0
    ac.model_updated()
    second = ac.collect_all(block=True)
    assert second.staleness == 1
    ac.model_updated()
    third = ac.collect_all(block=True)
    assert third.staleness == 2


def test_bsp_barrier_waits_for_all(ctx):
    ac = ASYNCContext(ctx, policy=BSP())
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    # Second round with BSP: barrier drains all 4 in-flight tasks first.
    submit_square_round(ac, rdd)
    assert len(ac.coordinator.results) >= 4
    ac.wait_all()
    assert ac.coordinator.collected + len(ac.coordinator.results) == 8


def test_ssp_barrier_blocks_dispatch_until_fresh(ctx):
    ac = ASYNCContext(ctx, policy=SSP(2))
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    # Apply many updates: in-flight work is now >=2 stale, SSP must wait
    # for deliveries before the next round.
    ac.model_updated(5)
    submit_square_round(ac, rdd)
    assert ac.stat.max_staleness < 2 or ac.coordinator.results


def test_barrier_from_lineage_used(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    only_even = LambdaPolicy(
        lambda s: True,
        eligible_fn=lambda s: [w for w in s.available_workers() if w % 2 == 0],
    )
    submit_square_round(ac, rdd, barrier=only_even)
    ac.wait_all()
    workers = {r.worker_id for r in ac.drain()}
    assert workers == {0, 2}


def test_unsatisfiable_barrier_raises(ctx):
    ac = ASYNCContext(
        ctx, policy=LambdaPolicy(lambda s: False, name="never")
    )
    rdd = ctx.parallelize(range(8), 4)
    with pytest.raises(SchedulerError, match="never"):
        submit_square_round(ac, rdd)


def test_task_exception_surfaces_at_collect(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)

    def bad(x):
        raise RuntimeError("kernel failure")

    rdd.map(bad).async_reduce(lambda a, b: a + b, ac)
    with pytest.raises(TaskError):
        ac.collect(block=True)


def test_worker_loss_tolerated(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    submit_square_round(ac, rdd)
    ctx.backend.kill_worker(0)
    ac.wait_all()
    got = ac.drain()
    assert len(got) == 3  # worker 0's result lost
    assert ac.lost_tasks == 1
    assert not ac.stat[0].alive
    # Next round skips the dead worker.
    submit_square_round(ac, rdd)
    ac.wait_all()
    assert {r.worker_id for r in ac.drain()} <= {1, 2, 3}


def test_async_aggregate(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(12), 4)
    rdd.async_aggregate(
        (0, 0),
        lambda acc, x: (acc[0] + x, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        ac,
    )
    totals = []
    while ac.has_next(block=True):
        totals.append(ac.collect())
    total = sum(t[0] for t in totals)
    count = sum(t[1] for t in totals)
    assert (total, count) == (sum(range(12)), 12)


def test_async_aggregate_zero_not_shared(ctx):
    """The zero value must be deep-copied per partition (Spark parity)."""
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(8), 4)
    rdd.async_aggregate(
        [],
        lambda acc, x: acc + [x],   # would alias a shared zero list
        lambda a, b: a + b,
        ac,
    )
    out = []
    while ac.has_next(block=True):
        out.extend(ac.collect())
    assert sorted(out) == list(range(8))


def test_matrix_round_with_broadcast(ctx, small_data):
    X, y, _ = small_data
    ac = ASYNCContext(ctx)
    pts = ctx.matrix(X, y, 8)
    w = np.zeros(X.shape[1])
    hb = ac.async_broadcast(w)
    from repro.optim.base import bc_value

    pts.sample(0.5, seed=1).map(
        lambda blk: (blk.X.T @ (blk.X @ bc_value(hb) - blk.y), blk.rows)
    ).async_reduce(lambda a, b: (a[0] + b[0], a[1] + b[1]), ac)
    total_rows = 0
    while ac.has_next(block=True):
        g, rows = ac.collect()
        assert g.shape == w.shape
        total_rows += rows
    assert total_rows == 128  # half of 256


@pytest.mark.parametrize("order", ORDERS)
def test_every_task_is_collected_exactly_once(order):
    """Eight workers under a scripted arrival order (order 0 ties every
    arrival), with the server collecting between rounds while results
    are still in flight: every submitted task is collected once, none
    twice and none lost."""
    with ClusterContext(8, delay_model=ScriptedOrder(order)) as sc:
        ac = ASYNCContext(sc)
        submitted = []
        submit = sc.dispatcher.submit

        def spy_submit(*args, **kwargs):
            submitted.append(submit(*args, **kwargs))
            return submitted[-1]

        sc.dispatcher.submit = spy_submit
        rdd = sc.parallelize(range(64), 16)  # 8 elements per task
        records = []
        for _ in range(40):
            rdd.async_aggregate(0, lambda n, x: n + 1, lambda a, b: a + b, ac)
            while ac.has_next(block=False):
                records.append(ac.collect_all(block=False))
        while ac.has_next(block=True):
            records.append(ac.collect_all(block=True))
        assert ac.in_flight == 0 and not ac.scheduler._tasks
        assert ac.lost_tasks == 0
    collected = sorted(r.task_id for r in records)
    assert len(submitted) == ac.scheduler.tasks_submitted >= 40
    assert collected == sorted(submitted)  # no duplicate, no loss
    assert ac.collected == len(submitted)
    assert all(r.value == 8 for r in records)


# -- next_result: the one collect call ------------------------------------------

def test_next_result_pops_fifo_then_none(ctx):
    """Non-blocking, it pops the queue in arrival order (what the
    coordinator queued) and returns ``None`` once it is empty."""
    ac = ASYNCContext(ctx)
    assert ac.next_result() is None
    submit_square_round(ac, ctx.parallelize(range(8), 4))
    assert ac.next_result() is None  # in flight, nothing queued yet
    ac.wait_all()
    queued = [r.task_id for r in ac.coordinator.results]
    assert len(queued) == 4
    got = []
    while (rec := ac.next_result(block=False)) is not None:
        got.append(rec.task_id)
    assert got == queued
    assert ac.collected == 4 and ac.next_result() is None


def test_next_result_blocks_until_a_result_or_nothing_in_flight(ctx):
    """Blocking, it advances cluster time until a result arrives, and
    returns ``None`` (without stepping) once nothing is in flight."""
    ac = ASYNCContext(ctx)
    assert ac.next_result(block=True) is None
    submit_square_round(ac, ctx.parallelize(range(8), 4))
    first = ac.next_result(block=True)
    assert first is not None and ctx.now() == first.delivered_ms
    assert ac.in_flight == 4 - 1 - len(ac.coordinator.results)
    rest = []
    while (rec := ac.next_result(block=True)) is not None:
        rest.append(rec)
    assert len(rest) == 3 and ac.in_flight == 0
    assert [r.delivered_ms for r in [first, *rest]] == sorted(
        r.delivered_ms for r in [first, *rest]
    )
    ctx.backend.queue.push(ctx.now() + 5.0, lambda: None)  # not a task
    assert ac.next_result(block=True) is None
    assert len(ctx.backend.queue) == 1  # nothing in flight: no step


def test_next_result_raises_a_task_error_ahead_of_queued_results(ctx):
    """A failed task's error comes out first, even behind results that
    arrived before it; the queued results follow, in order."""
    ac = ASYNCContext(ctx)
    submit_square_round(ac, ctx.parallelize(range(8), 4))
    ac.wait_all()
    queued = [r.task_id for r in ac.coordinator.results]

    def bad(x):
        raise RuntimeError("kernel failure")

    ctx.parallelize(range(2), 1).map(bad).async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    assert len(ac.coordinator.results) == 4 and len(ac.coordinator.errors) == 1
    with pytest.raises(TaskError, match="kernel failure"):
        ac.next_result(block=True)
    assert [r.task_id for r in iter(ac.next_result, None)] == queued


def test_version_property(ctx):
    ac = ASYNCContext(ctx)
    assert ac.version == 0
    ac.model_updated(4)
    assert ac.version == 4
    assert ac.stat.current_version == 4
