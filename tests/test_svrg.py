"""SVRG (Listing 3): epoch structure, variance reduction, async inner loop."""

import numpy as np
import pytest

from repro.optim import (
    ConstantStep,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.errors import OptimError


def build(ctx, small_data, parts=8):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, parts).cache()
    return points, problem


def test_sync_svrg_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "svrg", ctx, points, problem, ConstantStep(0.15),
        OptimizerConfig(batch_fraction=0.2, max_updates=60, seed=0,
                        eval_every=10),
        inner_iterations=10,
    ).run()
    errs = res.trace.errors(problem)
    assert errs[-1] < 0.05 * errs[0]
    assert res.extras["epochs"] == 6


def test_svrg_beats_constant_step_sgd(ctx, small_data):
    """Variance reduction: same constant step, SVRG descends further."""
    points, problem = build(ctx, small_data)
    svrg = build_optimizer(
        "svrg", ctx, points, problem, ConstantStep(0.05),
        OptimizerConfig(batch_fraction=0.2, max_updates=50, seed=0),
        inner_iterations=10,
    ).run()
    sgd = build_optimizer(
        "sgd", ctx, points, problem, ConstantStep(0.05),
        OptimizerConfig(batch_fraction=0.2, max_updates=50, seed=0),
    ).run()
    assert problem.error(svrg.w) < problem.error(sgd.w)


def test_epoch_pays_full_pass(ctx, small_data):
    """Each epoch includes a full-gradient job over every partition."""
    points, problem = build(ctx, small_data)
    before = len(ctx.dispatcher.metrics_log)
    build_optimizer(
        "svrg", ctx, points, problem, ConstantStep(0.05),
        OptimizerConfig(batch_fraction=0.2, max_updates=20, seed=0),
        inner_iterations=10,
    ).run()
    log = ctx.dispatcher.metrics_log[before:]
    # 2 epochs x (1 full-pass job + 10 inner jobs) x 8 partition tasks.
    assert len(log) == 2 * 11 * 8


def test_async_svrg_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asvrg", ctx, points, problem, ConstantStep(0.15 / 4),
        OptimizerConfig(batch_fraction=0.2, max_updates=240, seed=0,
                        eval_every=40),
        inner_iterations=10,
    ).run()
    errs = res.trace.errors(problem)
    assert errs[-1] < 0.1 * errs[0]
    assert res.extras["epochs"] >= 2


def test_async_svrg_epoch_barrier_drains_inflight(ctx, small_data):
    """Between epochs everything in flight must land (Listing 3's
    synchronous reduction)."""
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asvrg", ctx, points, problem, ConstantStep(0.05 / 4),
        OptimizerConfig(batch_fraction=0.2, max_updates=80, seed=0),
        inner_iterations=5,
    ).run()
    assert res.updates == 80
    # No stranded tasks at the end.
    assert ctx.backend.pending_count() == 0


def test_inner_iterations_validated(ctx, small_data):
    points, problem = build(ctx, small_data)
    with pytest.raises(OptimError):
        build_optimizer(
            "svrg", ctx, points, problem, ConstantStep(0.05),
            OptimizerConfig(max_updates=2), inner_iterations=0,
        )


def test_svrg_direction_unbiased_at_tilde(ctx, small_data):
    """At w == w_tilde the VR direction equals the full gradient in
    expectation; with batch == full data it's exact."""
    points, problem = build(ctx, small_data, parts=4)
    opt = build_optimizer(
        "svrg", ctx, points, problem, ConstantStep(0.05),
        OptimizerConfig(batch_fraction=1.0, max_updates=1, seed=0),
        inner_iterations=1,
    )
    res = opt.run()
    w0 = problem.initial_point()
    expected = w0 - 0.05 * problem.full_gradient(w0)
    assert np.allclose(res.w, expected, atol=1e-10)
