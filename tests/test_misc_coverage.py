"""Cross-cutting determinism and configuration coverage."""

import numpy as np
import pytest

from repro.cluster.network import NetworkModel
from repro.engine.context import ClusterContext
from repro.optim import (
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)


@pytest.mark.parametrize("name,step,kwargs", [
    ("sgd", InvSqrtDecay(0.5), {}),
    ("saga", ConstantStep(0.02), {}),
    ("svrg", ConstantStep(0.1), {"inner_iterations": 5}),
])
def test_every_sync_algorithm_deterministic(name, step, kwargs, small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run():
        with ClusterContext(4) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                name, ctx, pts, problem, step,
                OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=9),
                **kwargs,
            ).run()
            return res.w, res.elapsed_ms

    (w1, t1), (w2, t2) = run(), run()
    assert np.array_equal(w1, w2)
    assert t1 == t2


def test_network_latency_changes_timeline_not_results(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run(latency_ms):
        with ClusterContext(
            4, network=NetworkModel(latency_ms=latency_ms)
        ) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                "sgd", ctx, pts, problem, InvSqrtDecay(0.5),
                OptimizerConfig(batch_fraction=0.25, max_updates=10, seed=0),
            ).run()
            return res.w, res.elapsed_ms

    w_a, t_a = run(0.25)
    w_b, t_b = run(0.75)
    assert np.array_equal(w_a, w_b)  # math unchanged
    assert t_a < t_b                 # timeline stretched
