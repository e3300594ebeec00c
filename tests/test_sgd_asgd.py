"""SGD (Algorithm 1) and ASGD (Algorithm 2) behaviour."""

import numpy as np
import pytest

from repro.cluster.stragglers import ControlledDelay
from repro.core.policies import BSP, MinAvailableFraction
from repro.engine.context import ClusterContext
from repro.optim import (
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    StalenessScaled,
    build_optimizer,
)
from repro.optim.base import OptimizerConfig as OC


def build(ctx, small_data, parts=8):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, parts).cache()
    return points, problem


def test_sync_sgd_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=0),
    ).run()
    assert res.updates == 60
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < 0.2 * start


def test_sync_sgd_error_decreases_along_trace(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0,
                        eval_every=10),
    ).run()
    errs = res.trace.errors(problem)
    assert errs[-1] < errs[0]


def test_async_sgd_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asgd", ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=240, seed=0),
    ).run()
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < 0.2 * start
    assert res.extras["lost_tasks"] == 0


def test_async_sgd_staleness_bounded_by_workers(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asgd", ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=100, seed=0),
    ).run()
    # With one in-flight task per worker, staleness < P in steady state.
    assert 0 < res.extras["max_staleness_seen"] <= ctx.num_workers


def test_async_faster_than_sync_with_straggler(small_data):
    """The paper's core claim at unit scale."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    delay = ControlledDelay(1.0, workers=(0,))

    with ClusterContext(4, seed=0, delay_model=delay) as c1:
        pts = c1.matrix(X, y, 8).cache()
        sync = build_optimizer(
            "sgd", c1, pts, problem, InvSqrtDecay(0.5),
            OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        ).run()
    with ClusterContext(4, seed=0, delay_model=delay) as c2:
        pts = c2.matrix(X, y, 8).cache()
        asyn = build_optimizer(
            "asgd", c2, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
            OptimizerConfig(batch_fraction=0.25, max_updates=160, seed=0),
        ).run()
    target = max(problem.error(sync.w), problem.error(asyn.w)) * 1.1
    t_sync = sync.trace.time_to_error(problem, target)
    t_async = asyn.trace.time_to_error(problem, target)
    assert t_async < t_sync


def test_asgd_with_bsp_barrier_serializes_rounds(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asgd", ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        policy=BSP(),
    ).run()
    # BSP gates dispatch on workers being free, not on their results
    # being applied: a round can still be on the wire when the next one
    # is dispatched, so an applied result lags by at most that round
    # plus the rest of its own.
    assert res.extras["max_staleness_seen"] <= 2 * ctx.num_workers - 1
    assert res.updates == 40


def test_asgd_fraction_barrier(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asgd", ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        policy=MinAvailableFraction(0.5),
    ).run()
    assert res.updates == 40


def test_asgd_staleness_adaptive_step_runs(ctx, small_data):
    points, problem = build(ctx, small_data)
    step = StalenessScaled(InvSqrtDecay(0.5).scaled_for_async(4))
    res = build_optimizer(
        "asgd", ctx, points, problem, step,
        OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=0),
    ).run()
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < start


def test_single_worker_async_equals_serial_shape(small_data):
    """P=1 ASGD is serial SGD; trajectories should be statistically
    indistinguishable from synchronous ``sgd`` at the same step."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    results = {}
    for algorithm in ("sgd", "asgd"):
        with ClusterContext(1, seed=0) as c:
            pts = c.matrix(X, y, 1).cache()
            res = build_optimizer(
                algorithm, c, pts, problem, InvSqrtDecay(0.5),
                OptimizerConfig(batch_fraction=0.5, max_updates=50, seed=0),
            ).run()
            results[algorithm] = problem.error(res.w)
    a, b = results["sgd"], results["asgd"]
    assert abs(np.log10(a) - np.log10(b)) < 0.5


def test_config_validation():
    with pytest.raises(Exception):
        OC(batch_fraction=0.0)
    with pytest.raises(Exception):
        OC(max_updates=0)
    with pytest.raises(Exception):
        OC(eval_every=0)


def test_metrics_window_only_this_run(ctx, small_data):
    points, problem = build(ctx, small_data)
    r1 = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=5, seed=0),
    ).run()
    r2 = build_optimizer(
        "sgd", ctx, points, problem, InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=5, seed=0),
    ).run()
    ids1 = {m.task_id for m in r1.metrics}
    ids2 = {m.task_id for m in r2.metrics}
    assert not ids1 & ids2
