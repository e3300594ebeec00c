"""ServerLoop/UpdateRule: the composable async driver contract."""

import numpy as np
import pytest

from repro.api import run_experiment
from repro.core.policies import BSP
from repro.optim import (
    AsyncSAGA,
    AsyncSGD,
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    ServerLoop,
    UpdateRule,
)
from repro.optim.base import DistributedOptimizer, bc_value
from repro.optim.reducers import add_pairs, add_triples, add_vr_pairs


def build(ctx, small_data, parts=8):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, parts).cache()
    return points, problem


# -- shared reducers ----------------------------------------------------------------
def test_reducers():
    assert add_pairs((1, 2), (10, 20)) == (11, 22)
    assert add_triples((1, 2, 3), (10, 20, 30)) == (11, 22, 33)
    assert add_vr_pairs(((1, 2), 3), ((10, 20), 30)) == ((11, 22), 33)


# -- extras schema (satellite: consistent keys across async optimizers) -------------
@pytest.mark.parametrize("algorithm", ["asgd", "asaga", "asvrg", "aadmm"])
def test_async_extras_common_schema(algorithm):
    res = run_experiment({
        "algorithm": algorithm, "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 10, "eval_every": 5, "seed": 0,
    })
    for key in ("lost_tasks", "collected", "max_staleness_seen"):
        assert key in res.extras, (algorithm, key)
    assert res.extras["collected"] >= res.updates
    assert res.extras["lost_tasks"] == 0


def test_asaga_reports_collected(ctx, small_data):
    """Regression: AsyncSAGA used to omit the 'collected' count."""
    points, problem = build(ctx, small_data)
    res = AsyncSAGA(
        ctx, points, problem, ConstantStep(0.05).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=16, seed=0),
    ).run()
    assert res.extras["collected"] >= res.updates
    # algorithm-specific keys survive alongside the common schema
    assert res.extras["mode"] == "history"
    assert "avg_hist_norm" in res.extras


# -- a custom algorithm is just an UpdateRule ---------------------------------------
class _SignSGDRule(UpdateRule):
    """A deliberately exotic rule: step along the gradient's sign."""

    def publish(self, w):
        return self.opt.ctx.broadcast(w)

    def sample_fraction(self):
        return self.opt.config.batch_fraction

    def kernel(self, block, handle, seed):
        problem = self.opt.problem
        return (
            problem.grad_sum(block.X, block.y, bc_value(handle)),
            block.rows,
        )

    reduce = staticmethod(add_pairs)

    def apply(self, w, record, alpha):
        g_sum, count = record.value
        if count == 0:
            return None
        return w - alpha * np.sign(g_sum)

    def extras(self):
        return {"flavor": "sign"}


class _SignSGD(DistributedOptimizer):
    name = "signsgd-test"
    is_async = True

    def run(self):
        return ServerLoop(self, _SignSGDRule()).run()


def test_custom_update_rule_runs_through_server_loop(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = _SignSGD(
        ctx, points, problem, InvSqrtDecay(0.05),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    ).run()
    assert res.updates == 30
    assert res.algorithm == "signsgd-test"
    assert res.extras["flavor"] == "sign"
    assert res.extras["collected"] >= 30
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < start


def test_custom_rule_respects_barriers(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = _SignSGD(
        ctx, points, problem, InvSqrtDecay(0.05),
        OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0),
        policy=BSP(),
    ).run()
    assert res.updates == 12
    assert res.extras["max_staleness_seen"] <= ctx.num_workers


# -- wrappers still behave like the paper's algorithms ------------------------------
def test_asgd_wrapper_unchanged_behavior(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = AsyncSGD(
        ctx, points, problem, InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=0),
    ).run()
    assert res.updates == 60
    assert res.rounds >= 1
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < 0.2 * start
