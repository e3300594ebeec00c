"""Fault tolerance: lineage recomputation, broadcast refetch, scheduling."""

import numpy as np
import pytest

from repro.cluster.faultplan import FaultPlanDriver, parse_fault_plan
from repro.errors import SchedulerError, TaskError


def schedule(ctx, plan: str) -> FaultPlanDriver:
    """Put a fault plan on ``ctx``'s event queue, outside any run."""
    return FaultPlanDriver(parse_fault_plan(plan), ctx.backend)


def test_cached_partition_recomputed_after_loss(ctx):
    computed = []

    def probe(x):
        computed.append(x)
        return x * 2

    rdd = ctx.parallelize(range(8), 4).map(probe).cache()
    assert rdd.collect() == [x * 2 for x in range(8)]
    n_first = len(computed)

    ctx.backend.kill_worker(1)  # partitions 1, 5 lived here
    out = rdd.collect()
    assert out == [x * 2 for x in range(8)]
    # Only the lost partitions recomputed.
    assert len(computed) > n_first
    assert len(computed) <= n_first + 4


def test_broadcast_refetched_on_new_worker(ctx):
    bc = ctx.broadcast(np.arange(5.0))
    env0 = ctx.backend.worker_env(0)
    bc.value(env0)
    ctx.backend.kill_worker(0)  # drops the cache and the pending fetch
    ctx.backend.revive_worker(0)
    assert env0.pending_fetch_bytes == 0
    bc.value(env0)
    assert env0.pending_fetch_bytes > 0  # cache was wiped -> refetch


def test_kill_at_schedules_future_failure(ctx):
    driver = schedule(ctx, "kill:w2@20ms")
    rdd = ctx.parallelize(range(8), 4)
    # Run enough jobs to pass t=50ms.
    for _ in range(30):
        ctx.run_job(rdd, lambda s, d: sum(d))
    assert driver.fired == 1
    assert not ctx.backend.worker_env(2).alive


def test_kill_at_fires_at_its_scheduled_time(ctx):
    driver = schedule(ctx, "kill:w3@12.5ms")
    rdd = ctx.parallelize(range(8), 4)
    while not driver.fired:
        ctx.run_job(rdd, lambda s, d: sum(d))
    assert driver.log == [
        {"event": "kill:w3@12.5ms", "applied_at_ms": 12.5, "status": "applied"}
    ]


def test_overdue_plan_event_fires_at_once(ctx):
    rdd = ctx.parallelize(range(8), 4)
    ctx.run_job(rdd, lambda s, d: None)  # advance time
    now = ctx.now()
    assert now > 0.0
    driver = schedule(ctx, "kill:w1@0ms,revive:w1@1000ms")
    assert not ctx.backend.worker_env(1).alive
    assert driver.log == [
        {"event": "kill:w1@0ms", "applied_at_ms": now, "status": "applied"}
    ]
    driver.cancel()  # the revive never fires
    assert not ctx.backend.queue
    assert not ctx.backend.worker_env(1).alive


def test_alive_workers_listing(ctx):
    backend = ctx.backend

    def alive():
        return [w for w in backend.worker_ids() if backend.worker_env(w).alive]

    assert alive() == [0, 1, 2, 3]
    backend.kill_worker(3)
    assert alive() == [0, 1, 2]
    backend.revive_worker(3)
    assert alive() == [0, 1, 2, 3]


def test_end_to_end_sgd_survives_mid_run_failure(ctx, small_data):
    """SyncSGD keeps converging if a worker dies mid-run (retry + lineage)."""
    from repro.optim import InvSqrtDecay, OptimizerConfig, build_optimizer
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, 8).cache()
    opt = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    )
    opt.fault_plan = parse_fault_plan("kill:w1@20ms")
    result = opt.run()
    assert result.updates == 30
    assert problem.error(result.w) < problem.error(problem.initial_point())


def _sync_sgd(ctx, small_data):
    from repro.optim import InvSqrtDecay, OptimizerConfig, build_optimizer
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = small_data
    points = ctx.matrix(X, y, 8).cache()
    return points, build_optimizer(
        "sgd", ctx, points, LeastSquaresProblem(X, y), InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    )


def test_sync_round_folds_every_partition_once_under_worker_loss(
    ctx, small_data, monkeypatch
):
    """A worker killed mid-round loses in-flight partitions; each goes to
    the next alive worker against the same model, so every update still
    sums the mini-batches of all 8 partitions exactly once."""
    from repro.optim.asgd import ASGDRule

    counts = []
    apply = ASGDRule.apply

    def counting_apply(self, w, record, alpha):
        counts.append(record.value[1])
        return apply(self, w, record, alpha)

    monkeypatch.setattr(ASGDRule, "apply", counting_apply)
    points, opt = _sync_sgd(ctx, small_data)
    opt.fault_plan = parse_fault_plan("kill:w1@20ms")
    result = opt.run()

    rows = sum(
        points.block(p).sample_indices(0.25, 0, "mbatch", p).size
        for p in range(points.num_partitions)
    )
    assert result.extras["lost_tasks"] == 2  # both of worker 1's tasks
    assert counts == [rows] * 30
    # The lost attempts are not results: 8 per round reached the server.
    assert result.extras["collected"] == 8 * 30


def test_sync_round_raises_when_every_worker_is_dead(ctx, small_data):
    _, opt = _sync_sgd(ctx, small_data)
    # A plan always keeps one survivor; raw queue events do not.
    for w in range(ctx.num_workers):
        ctx.backend.queue.push(20.0, ctx.backend.kill_worker, w)
    with pytest.raises(SchedulerError, match="no alive workers"):
        opt.run()


def test_sync_round_fails_a_partition_out_of_retries(
    ctx, small_data, monkeypatch
):
    from repro.engine import scheduler

    # run_job's budget, shared by the loop
    monkeypatch.setattr(scheduler, "MAX_RETRIES", 0)
    _, opt = _sync_sgd(ctx, small_data)
    opt.fault_plan = parse_fault_plan("kill:w1@20ms")
    with pytest.raises(TaskError, match=r"partition 1 failed after 1 attempt"):
        opt.run()


def test_sync_round_that_stalls_raises(ctx, small_data, monkeypatch):
    """A round whose wait gives up fails loudly instead of returning with
    tasks in flight: the backend reports one stall, then delegates."""
    run_until = ctx.backend.run_until
    stalls = [True]

    def stalling_once(predicate):
        if stalls:
            stalls.pop()
            return False
        return run_until(predicate)

    monkeypatch.setattr(ctx.backend, "run_until", stalling_once)
    _, opt = _sync_sgd(ctx, small_data)
    with pytest.raises(SchedulerError, match="stalled"):
        opt.run()


@pytest.mark.parametrize("policy", ["bsp", "frac:1.0", "frac:0.5"])
def test_quorum_policies_survive_killed_workers(policy):
    """Three of four workers die early: ``frac:β`` sizes its quorum from
    the alive workers, as ``bsp`` does, so the lone survivor finishes
    the run instead of waiting forever for the dead."""
    from repro.api import run_experiment

    res = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "policy": policy, "max_updates": 60, "seed": 0,
        "fault_plan": "kill:w1@5ms,kill:w2@5ms,kill:w3@5ms",
    })
    assert res.updates == 60
    assert res.extras["fault_events"] == 3
