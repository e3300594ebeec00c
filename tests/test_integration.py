"""End-to-end integration: determinism, arrival orders, full stack."""

import numpy as np
import pytest
from arrival_orders import ORDERS, ScriptedOrder

from repro.cluster.stragglers import ControlledDelay
from repro.engine.context import ClusterContext
from repro.metrics.wait_time import average_wait_ms
from repro.optim import (
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)


def test_full_asgd_run_is_deterministic(small_data):
    """Identical seeds -> bit-identical model and timeline."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run():
        with ClusterContext(4, delay_model=ControlledDelay(1.0)) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                "asgd", ctx, pts, problem,
                InvSqrtDecay(0.5).scaled_for_async(4),
                OptimizerConfig(batch_fraction=0.25, max_updates=80, seed=5),
            ).run()
            return res.w, res.elapsed_ms, tuple(res.trace.times_ms)

    w1, t1, tl1 = run()
    w2, t2, tl2 = run()
    assert np.array_equal(w1, w2)
    assert t1 == t2
    assert tl1 == tl2


def test_seed_changes_trajectory(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run(seed):
        with ClusterContext(4) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                "asgd", ctx, pts, problem,
                InvSqrtDecay(0.5).scaled_for_async(4),
                OptimizerConfig(batch_fraction=0.25, max_updates=40,
                                seed=seed),
            ).run()
            return res.w

    assert not np.array_equal(run(1), run(2))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("algorithm, step, fraction, updates", [
    ("asgd", InvSqrtDecay(0.5).scaled_for_async(4), 0.25, 100),
    ("asaga", ConstantStep(0.02 / 4), 0.2, 120),
], ids=["asgd", "asaga"])
def test_async_run_converges_under_scripted_orders(
    small_data, algorithm, step, fraction, updates, order
):
    """Model broadcast, history broadcast and SAGA's version tables hold
    up under any arrival order the workers' delays produce."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4, delay_model=ScriptedOrder(order)) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        res = build_optimizer(
            algorithm, ctx, pts, problem, step,
            OptimizerConfig(
                batch_fraction=fraction, max_updates=updates, seed=0
            ),
        ).run()
    assert res.updates == updates
    assert problem.error(res.w) < problem.error(problem.initial_point())


def test_wait_time_shape_sync_vs_async(small_data):
    """Figures 4/6 shape at unit-test scale: sync wait grows with delay,
    async wait stays flat."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def wait_for(algorithm, step, intensity, updates):
        with ClusterContext(
            4, delay_model=ControlledDelay(intensity, workers=(0,))
        ) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                algorithm, ctx, pts, problem, step,
                OptimizerConfig(batch_fraction=0.25, max_updates=updates,
                                seed=0),
            ).run()
            return average_wait_ms(res.metrics)

    sync_0 = wait_for("sgd", InvSqrtDecay(0.5), 0.0, 20)
    sync_1 = wait_for("sgd", InvSqrtDecay(0.5), 1.0, 20)
    async_0 = wait_for("asgd", InvSqrtDecay(0.125), 0.0, 80)
    async_1 = wait_for("asgd", InvSqrtDecay(0.125), 1.0, 80)

    assert sync_1 > sync_0 * 1.5          # sync wait grows with delay
    assert async_1 < async_0 * 1.5 + 0.5  # async wait roughly flat
    assert async_1 < sync_1               # async waits less than sync


def test_paper_workflow_listing_style(ctx8, small_data):
    """Spell out Algorithm 2 exactly as the paper writes it."""
    from repro.core import ASYNCContext, MinAvailableFraction
    from repro.optim.base import bc_value

    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx8.matrix(X, y, 8).cache()

    AC = ASYNCContext(ctx8)
    beta_barrier = MinAvailableFraction(0.5)
    w = np.zeros(problem.dim)
    for i in range(20):
        w_br = ctx8.broadcast(w)
        (points
            .async_barrier(beta_barrier, AC.stat)
            .sample(0.25, seed=i)
            .map(lambda blk: (problem.grad_sum(blk.X, blk.y, bc_value(w_br)),
                              blk.rows))
            .async_reduce(lambda a, b: (a[0] + b[0], a[1] + b[1]), AC))
        while AC.has_next(block=AC.in_flight > 0 and not
                          AC.coordinator.results):
            g_sum, rows = AC.collect()
            w = w - (0.05 / np.sqrt(i + 1)) * g_sum / rows
            AC.model_updated()
    AC.wait_all()
    assert problem.error(w) < problem.error(np.zeros(problem.dim))
