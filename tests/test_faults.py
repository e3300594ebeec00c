"""Fault tolerance: lineage recomputation, broadcast refetch, scheduling."""

import numpy as np
import pytest

from repro.engine.faults import FaultInjector
from repro.errors import BackendError, SchedulerError, TaskError


def test_cached_partition_recomputed_after_loss(ctx):
    computed = []

    def probe(x):
        computed.append(x)
        return x * 2

    rdd = ctx.parallelize(range(8), 4).map(probe).cache()
    assert rdd.collect() == [x * 2 for x in range(8)]
    n_first = len(computed)

    fi = FaultInjector(ctx)
    fi.kill(1)  # partitions 1, 5 lived here
    out = rdd.collect()
    assert out == [x * 2 for x in range(8)]
    # Only the lost partitions recomputed.
    assert len(computed) > n_first
    assert len(computed) <= n_first + 4


def test_broadcast_refetched_on_new_worker(ctx):
    bc = ctx.broadcast(np.arange(5.0))
    env0 = ctx.backend.worker_env(0)
    bc.value(env0)
    env0.consume_fetch_bytes()
    fi = FaultInjector(ctx)
    fi.kill(0)
    fi.revive(0)
    bc.value(env0)
    assert env0.consume_fetch_bytes() > 0  # cache was wiped -> refetch


def test_kill_at_schedules_future_failure(ctx):
    fi = FaultInjector(ctx)
    fi.kill_at(20.0, 2)
    rdd = ctx.parallelize(range(8), 4)
    # Run enough jobs to pass t=50ms.
    for _ in range(30):
        ctx.run_job(rdd, lambda s, d: sum(d))
    assert 2 in fi.killed
    assert not ctx.backend.worker_env(2).alive


def test_kill_at_fires_at_its_scheduled_time(ctx):
    fi = FaultInjector(ctx)
    fi.kill_at(12.5, 3)
    rdd = ctx.parallelize(range(8), 4)
    while not fi.killed:
        ctx.run_job(rdd, lambda s, d: sum(d))
    assert fi.injected == [("kill", 3, 12.5)]


def test_kill_at_past_rejected(ctx):
    rdd = ctx.parallelize(range(8), 4)
    ctx.run_job(rdd, lambda s, d: None)  # advance time
    fi = FaultInjector(ctx)
    with pytest.raises(BackendError):
        fi.kill_at(0.0, 1)


def test_alive_workers_listing(ctx):
    fi = FaultInjector(ctx)
    assert fi.alive_workers() == [0, 1, 2, 3]
    fi.kill(3)
    assert fi.alive_workers() == [0, 1, 2]
    fi.revive(3)
    assert fi.alive_workers() == [0, 1, 2, 3]


def test_end_to_end_sgd_survives_mid_run_failure(ctx, small_data):
    """SyncSGD keeps converging if a worker dies mid-run (retry + lineage)."""
    from repro.optim import InvSqrtDecay, OptimizerConfig, build_optimizer
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, 8).cache()
    fi = FaultInjector(ctx)
    fi.kill_at(20.0, 1)
    result = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    ).run()
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
    FaultInjector(ctx).kill_at(20.0, 1)
    result = opt.run()

    rows = sum(
        points.block(p).sample_indices(0.25, np.random.default_rng(0)).size
        for p in range(points.num_partitions)
    )
    assert result.extras["lost_tasks"] == 2  # both of worker 1's tasks
    assert counts == [rows] * 30
    # The lost attempts are not results: 8 per round reached the server.
    assert result.extras["collected"] == 8 * 30


def test_sync_round_raises_when_every_worker_is_dead(ctx, small_data):
    _, opt = _sync_sgd(ctx, small_data)
    injector = FaultInjector(ctx)
    for w in range(ctx.num_workers):
        injector.kill_at(20.0, w)
    with pytest.raises(SchedulerError, match="no alive workers"):
        opt.run()


def test_sync_round_fails_a_partition_out_of_retries(ctx, small_data):
    ctx.scheduler.max_retries = 0  # run_job's budget, shared by the loop
    _, opt = _sync_sgd(ctx, small_data)
    FaultInjector(ctx).kill_at(20.0, 1)
    with pytest.raises(TaskError, match=r"partition 1 failed after 1 attempt"):
        opt.run()
