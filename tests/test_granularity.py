"""Partition-granular dispatch: parity, STAT rows, validation."""

import numpy as np
import pytest

from repro.api import run_experiment
from repro.cluster.threadbackend import ThreadBackend
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
    with ClusterContext(workers, seed=0) as ctx:
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


def _run_asgd_thread(granularity: str, workers: int = 1, parts: int = 1,
                     updates: int = 12):
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    backend = ThreadBackend(num_workers=workers)
    with ClusterContext(workers, backend=backend, seed=0) as ctx:
        points = ctx.matrix(X, y, parts).cache()
        res = build_optimizer(
            "asgd", ctx, points, problem,
            InvSqrtDecay(0.5).scaled_for_async(workers),
            OptimizerConfig(batch_fraction=0.25, max_updates=updates,
                            seed=0, granularity=granularity),
        ).run()
    return res


def test_partition_parity_threadbackend():
    """Same parity on real threads.

    With one worker (and one partition per worker) the thread backend is
    deterministic — results arrive FIFO — so the trajectory comparison is
    exact; multi-worker thread runs interleave nondeterministically and
    cannot be compared update for update.
    """
    a = _run_asgd_thread("worker")
    b = _run_asgd_thread("partition")
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(
        np.asarray(a.trace.snapshots), np.asarray(b.trace.snapshots)
    )
    assert b.extras["partition_tasks"] > 0


def test_partition_granularity_threadbackend_multiworker_converges():
    X, y, _ = make_dense_regression(256, 8, cond=4.0, seed=7)
    problem = LeastSquaresProblem(X, y)
    backend = ThreadBackend(num_workers=3)
    with ClusterContext(3, backend=backend, seed=0) as ctx:
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


# -- STAT partition rows ------------------------------------------------------------
@pytest.mark.parametrize("backend_kind", ["sim", "thread"])
def test_partition_stat_rows_aggregate_to_worker_rows(backend_kind):
    """Per-partition STAT rows sum back to the per-worker values."""
    X, y, _ = make_dense_regression(256, 8, cond=4.0, seed=7)
    problem = LeastSquaresProblem(X, y)
    workers, parts = 4, 8
    backend = (
        ThreadBackend(num_workers=workers) if backend_kind == "thread"
        else None
    )
    with ClusterContext(workers, backend=backend, seed=0) as ctx:
        points = ctx.matrix(X, y, parts).cache()
        ac = ASYNCContext(ctx)
        w = problem.initial_point()
        for r in range(6):
            w_br = ctx.broadcast(w)
            mapped = points.map(
                lambda blk, _w=w_br: (
                    problem.grad_sum(blk.X, blk.y, bc_value(_w)), blk.rows,
                )
            )
            ac.async_reduce(
                mapped, lambda a, b: (a[0] + b[0], a[1] + b[1]),
                granularity="partition",
            )
            while ac.has_next(block=True):
                g_sum, rows = ac.collect()
                w = w - (0.1 / rows) * g_sum
                ac.model_updated()
        ac.wait_all()
        ac.drain()

        stat = ac.stat
        assert len(stat.partitions) == parts
        rows = [stat.partitions[p] for p in sorted(stat.partitions)]
        for wid in range(workers):
            owned = [row for row in rows if row.owner == wid]
            prow_total = sum(row.tasks_completed for row in owned)
            assert prow_total == stat[wid].tasks_completed
            assert all(row.in_flight == 0 for row in owned)
        # owners follow the locality rule
        for pid, row in stat.partitions.items():
            assert row.owner == ctx.owner_of(pid)
        snap = [row.snapshot() for row in rows]
        assert [row["partition_id"] for row in snap] == list(range(parts))
        assert all(row["tasks_completed"] > 0 for row in snap)


def test_partition_staleness_tracked_per_partition():
    res = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "granularity": "partition", "max_updates": 40,
        "seed": 0,
    })
    assert res.extras["partitions_tracked"] == 8
    assert res.extras["max_partition_staleness_seen"] >= 0
    assert res.extras["partition_tasks"] > 0


def test_partition_metrics_tagged():
    """TaskMetrics rows carry partition identity for partition tasks."""
    X, y, _ = make_dense_regression(64, 4, seed=1)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(2, seed=0) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        ac = ASYNCContext(ctx)
        w_br = ctx.broadcast(problem.initial_point())
        mapped = points.map(
            lambda blk, _w=w_br: (
                problem.grad_sum(blk.X, blk.y, bc_value(_w)), blk.rows,
            )
        )
        ac.async_reduce(
            mapped, lambda a, b: (a[0] + b[0], a[1] + b[1]),
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
