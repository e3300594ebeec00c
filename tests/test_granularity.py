"""Partition-granular dispatch: parity, partition tags, validation."""

import numpy as np
import pytest
from arrival_orders import ORDERS, ScriptedOrder

from repro.api import run_experiment
from repro.core import ASYNCContext
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.errors import OptimError
from repro.optim import (
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.optim.base import bc_value


def _run_asgd_sim(granularity: str, parts: int, workers: int = 4,
                  updates: int = 40):
    X, y, _ = make_dense_regression(256, 8, cond=4.0, seed=7)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(workers) as ctx:
        points = ctx.matrix(X, y, parts).cache()
        res = build_optimizer(
            "asgd", ctx, points, problem,
            InvSqrtDecay(0.5).scaled_for_async(workers),
            OptimizerConfig(batch_fraction=0.25, max_updates=updates,
                            seed=0, granularity=granularity),
        ).run()
    return res, problem


# -- bit-identical parity -----------------------------------------------------------
def test_partition_parity_simbackend():
    """One partition per worker: partition granularity reproduces the
    worker-granular trajectory bit for bit."""
    a, _ = _run_asgd_sim("worker", parts=4)
    b, _ = _run_asgd_sim("partition", parts=4)
    assert np.array_equal(a.w, b.w)
    assert a.trace.times_ms == b.trace.times_ms
    assert np.array_equal(
        np.asarray(a.trace.snapshots), np.asarray(b.trace.snapshots)
    )
    assert a.updates == b.updates and a.rounds == b.rounds
    assert b.extras["granularity"] == "partition"
    assert b.extras["partition_tasks"] > 0
    assert a.extras["partition_tasks"] == 0


def test_worker_default_unchanged_by_refactor():
    """granularity='worker' runs submit no partition-tagged tasks."""
    res, _ = _run_asgd_sim("worker", parts=8)
    assert res.extras["granularity"] == "worker"
    assert res.extras["partition_tasks"] == 0


@pytest.mark.parametrize("order", ORDERS)
def test_multiworker_partition_granularity_converges_under_scripted_orders(
    order,
):
    X, y, _ = make_dense_regression(256, 8, cond=4.0, seed=7)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(3, delay_model=ScriptedOrder(order)) as ctx:
        points = ctx.matrix(X, y, 6).cache()
        res = build_optimizer(
            "asgd", ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(3),
            OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0,
                            granularity="partition"),
        ).run()
    assert res.updates == 30
    assert problem.error(res.w) < problem.initial_error()
    # every submitted task carried partition identity
    assert res.extras["partition_tasks"] >= res.extras["collected"]


def test_partition_staleness_tracked_per_partition():
    res = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "granularity": "partition", "max_updates": 40,
        "seed": 0,
    })
    assert res.extras["max_partition_staleness_seen"] >= 0
    assert res.extras["partition_tasks"] > 0


def test_partition_metrics_tagged():
    """TaskMetrics rows carry partition identity for partition tasks."""
    X, y, _ = make_dense_regression(64, 4, seed=1)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(2) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        ac = ASYNCContext(ctx)
        w_br = ctx.broadcast(problem.initial_point())
        mapped = points.map(
            lambda blk, _w=w_br: (
                problem.grad_sum(blk.X, blk.y, bc_value(_w)), blk.rows,
            )
        )
        mapped.async_reduce(
            lambda a, b: (a[0] + b[0], a[1] + b[1]), ac,
            granularity="partition",
        )
        ac.wait_all()
        records = ac.drain()
        assert sorted(r.partition for r in records) == [0, 1, 2, 3]
        tagged = [m for m in ctx.dispatcher.metrics_log if m.partition >= 0]
        assert sorted(m.partition for m in tagged) == [0, 1, 2, 3]


# -- config / spec validation -------------------------------------------------------
def test_bad_granularity_rejected():
    with pytest.raises(OptimError):
        OptimizerConfig(granularity="block")


def test_granularity_rejected_for_sync_optimizers():
    from repro.errors import ApiError

    with pytest.raises(ApiError, match="granularity"):
        run_experiment({
            "algorithm": "sgd", "dataset": "tiny_dense",
            "granularity": "partition", "max_updates": 4,
        })


def test_spec_granularity_round_trips():
    from repro.api import ExperimentSpec

    spec = ExperimentSpec(granularity="partition")
    assert ExperimentSpec.from_dict(spec.to_dict()).granularity == "partition"
