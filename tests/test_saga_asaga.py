"""SAGA (Algorithm 3) and ASAGA (Algorithm 4): math, history, modes."""

import numpy as np
import pytest

from repro.engine.context import ClusterContext
from repro.optim import (
    ConstantStep,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.optim.reference import reference_saga


def build(ctx, small_data, parts=8):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, parts).cache()
    return points, problem


def test_sync_saga_converges_linearly(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "saga", ctx, points, problem, ConstantStep(0.02),
        OptimizerConfig(batch_fraction=0.1, max_updates=220, seed=0,
                        eval_every=20),
    ).run()
    errs = res.trace.errors(problem)
    assert errs[-1] < 0.1 * errs[0]
    # Constant-step SAGA keeps descending (variance reduction), unlike
    # constant-step SGD which would plateau.
    assert errs[-1] < errs[len(errs) // 2]


def test_sync_saga_matches_reference_trajectory(ctx, small_data):
    """Distributed SAGA must track the classic gradient-table SAGA."""
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "saga", ctx, points, problem, ConstantStep(0.02),
        OptimizerConfig(batch_fraction=0.1, max_updates=120, seed=0,
                        eval_every=120),
    ).run()
    _, hist = reference_saga(
        problem, alpha=0.02, batch_fraction=0.1, iterations=120, seed=0,
        record_every=120,
    )
    dist_err = problem.error(res.w)
    ref_err = hist[-1][1]
    assert abs(np.log10(dist_err) - np.log10(ref_err)) < 0.5


def test_saga_avg_hist_matches_table_invariant(ctx, small_data):
    """After a run, avg_hist must equal the mean over stored versions of
    the per-sample gradients — the SAGA table invariant."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, 4).cache()
    opt = build_optimizer(
        "saga", ctx, points, problem, ConstantStep(0.02),
        OptimizerConfig(batch_fraction=0.2, max_updates=20, seed=0),
    )
    res = opt.run()
    # Reconstruct the implied average from worker-side version tables.
    from repro.optim.saga import SagaState  # noqa: F401 (doc pointer)

    total = np.zeros(problem.dim)
    state_norm = res.extras["avg_hist_norm"]
    for split in range(points.num_partitions):
        env = ctx.backend.worker_env(ctx.owner_of(split))
        block = points.block(split)
        key = None
        for k in env.keys():
            if isinstance(k, tuple) and k[0] == "saga_ver" and k[2] == split:
                key = k
        assert key is not None, "version table missing"
        versions = env.get(key)
        assert versions.shape == (block.rows,)
        # Recompute each row's gradient at its stored version.
        channel = None
        for k in env.keys():
            if isinstance(k, tuple) and k[0] == "hbc":
                channel = k[1]
        assert channel is not None
        for v in np.unique(versions):
            rows = np.where(versions == v)[0]
            w_v = env.get(("hbc", channel, int(v)))
            if w_v is None:
                # Never touched by this worker: must be version 0.
                assert v == 0
                w_v = np.zeros(problem.dim)
            total += problem.grad_sum(block.X[rows], block.y[rows], w_v)
    implied = total / problem.n
    assert np.isclose(np.linalg.norm(implied), state_norm, rtol=1e-6)


def test_naive_mode_ships_growing_table(ctx, small_data):
    points, problem = build(ctx, small_data)
    res_naive = build_optimizer(
        "saga", ctx, points, problem, ConstantStep(0.02),
        OptimizerConfig(batch_fraction=0.2, max_updates=30, seed=0),
        mode="naive",
    ).run()
    naive_bytes = res_naive.extras["naive_broadcast_bytes"]
    # Table grows linearly: total ~ sum_t t*d*8 = O(t^2).
    d = problem.dim
    assert naive_bytes > 30 * d * 8  # strictly more than one copy per iter


def test_naive_and_history_same_math(small_data):
    """Broadcast strategy changes cost, not trajectories."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    errs = {}
    for mode in ("history", "naive"):
        with ClusterContext(4, seed=0) as c:
            pts = c.matrix(X, y, 8).cache()
            res = build_optimizer(
                "saga", c, pts, problem, ConstantStep(0.02),
                OptimizerConfig(batch_fraction=0.2, max_updates=40, seed=0),
                mode=mode,
            ).run()
            errs[mode] = problem.error(res.w)
    assert errs["history"] == pytest.approx(errs["naive"], rel=1e-9)


def test_bad_mode_rejected(ctx, small_data):
    points, problem = build(ctx, small_data)
    with pytest.raises(Exception):
        build_optimizer(
            "saga", ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(max_updates=2), mode="bogus",
        ).run()


def test_asaga_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asaga", ctx, points, problem, ConstantStep(0.02 / 4),
        OptimizerConfig(batch_fraction=0.1, max_updates=400, seed=0,
                        eval_every=50),
    ).run()
    errs = res.trace.errors(problem)
    assert errs[-1] < 0.2 * errs[0]
    assert res.extras["lost_tasks"] == 0


def test_asaga_history_cache_hits_dominate(ctx, small_data):
    """ASAGA's whole point: version reads are mostly worker-local."""
    points, problem = build(ctx, small_data)
    build_optimizer(
        "asaga", ctx, points, problem, ConstantStep(0.02 / 4),
        OptimizerConfig(batch_fraction=0.1, max_updates=200, seed=0),
    ).run()
    d_bytes = problem.dim * 8
    fetch = ctx.dispatcher.total_fetch_bytes
    # Upper bound: every round ships roughly one fresh model per worker;
    # historical versions come from cache. If history were re-shipped the
    # fetch volume would be an order of magnitude larger.
    rounds = ctx.dispatcher.metrics_log[-1].job_id
    assert fetch < 3.0 * d_bytes * (rounds + ctx.num_workers)


def test_asaga_single_worker_matches_sync(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    errs = {}
    for algorithm in ("saga", "asaga"):
        with ClusterContext(1, seed=0) as c:
            pts = c.matrix(X, y, 1).cache()
            res = build_optimizer(
                algorithm, c, pts, problem, ConstantStep(0.02),
                OptimizerConfig(batch_fraction=0.2, max_updates=60, seed=0),
            ).run()
            errs[algorithm] = problem.error(res.w)
    a, b = errs["saga"], errs["asaga"]
    assert abs(np.log10(a) - np.log10(b)) < 0.5
