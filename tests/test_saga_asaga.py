"""SAGA (Algorithm 3) and ASAGA (Algorithm 4): math, history, modes."""

import copy

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


def _run_on_loop(ctx, points, problem, name, **config):
    """Run ``name`` through a ServerLoop kept for inspection."""
    from repro.optim.loop import ServerLoop

    opt = build_optimizer(
        name, ctx, points, problem, ConstantStep(0.02),
        OptimizerConfig(batch_fraction=0.2, seed=0, **config),
    )
    loop = ServerLoop(opt, copy.deepcopy(opt.rule))
    loop.run()
    return loop


def test_saga_avg_hist_matches_table_invariant(ctx, small_data):
    """After a run, avg_hist must equal the mean over stored versions of
    the per-sample gradients — the SAGA table invariant, read off the
    server's table and the ``saga`` channel's model versions."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, 4).cache()
    loop = _run_on_loop(ctx, points, problem, "saga", max_updates=20)
    state = loop.rule.state
    channel = loop.ac.history.channel("saga")
    assert state.versions.shape == (problem.n,)
    assert state.versions.max() == 20  # sampled rows moved on
    total = np.zeros(problem.dim)
    for v in np.unique(state.versions):
        rows = np.flatnonzero(state.versions == v)
        total += problem.grad_sum(X[rows], y[rows], channel.get(int(v)))
    assert np.allclose(total / problem.n, state.avg_hist, rtol=1e-9)


@pytest.mark.parametrize("name,granularity", [
    ("saga", "worker"), ("asaga", "worker"), ("asaga", "partition"),
])
def test_no_worker_env_holds_saga_state(small_data, name, granularity):
    """SAGA's table is the server's: after a fault-free run a worker
    holds only its cached partitions and broadcast model versions."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as c:
        points = c.matrix(X, y, 8).cache()
        loop = _run_on_loop(
            c, points, problem, name, max_updates=40,
            granularity=granularity,
        )
        assert loop.rule.state.versions.max() > 0
        for w in range(c.num_workers):
            kinds = {k[0] for k in c.backend.worker_env(w).keys()}
            assert kinds <= {"rdd", "hbc"}, kinds


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
        with ClusterContext(4) as c:
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
        with ClusterContext(1) as c:
            pts = c.matrix(X, y, 1).cache()
            res = build_optimizer(
                algorithm, c, pts, problem, ConstantStep(0.02),
                OptimizerConfig(batch_fraction=0.2, max_updates=60, seed=0),
            ).run()
            errs[algorithm] = problem.error(res.w)
    a, b = errs["saga"], errs["asaga"]
    assert abs(np.log10(a) - np.log10(b)) < 0.5


def test_blocks_that_do_not_tile_the_rows_are_refused(small_data):
    """SAGA's version table is addressed by ``block.offset + idx``: blocks
    built without their offsets (each left at 0) would alias each other's
    rows, so the rule refuses them, naming the first misplaced one."""
    from repro.data.blocks import MatrixBlock
    from repro.engine.matrix import MatrixRDD
    from repro.errors import OptimError

    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(2) as c:
        points = MatrixRDD(c, [
            MatrixBlock(X[lo:lo + 64], y[lo:lo + 64], block_id=i)
            for i, lo in enumerate(range(0, 256, 64))
        ])
        opt = build_optimizer(
            "saga", c, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.1, max_updates=300, seed=0),
        )
        with pytest.raises(OptimError, match="partition 1 starts at row offset 0, not 64"):
            opt.run()
