"""Fault tolerance: lineage recomputation, broadcast refetch, scheduling."""

import numpy as np
import pytest

from repro.engine.faults import FaultInjector
from repro.errors import BackendError


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
