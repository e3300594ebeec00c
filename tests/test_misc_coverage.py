"""Cross-cutting determinism and configuration coverage."""

import numpy as np
import pytest

from repro.cluster.cost import MeasuredCostModel
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
    ("admm", ConstantStep(1.0), {"rho": 1.0}),
])
def test_every_sync_algorithm_deterministic(name, step, kwargs, small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run():
        with ClusterContext(4, seed=9) as ctx:
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


def test_measured_cost_model_end_to_end(small_data):
    """The measured-cost model charges real wall time, scaled."""
    X, y, _ = small_data
    with ClusterContext(
        2, seed=0, cost_model=MeasuredCostModel(scale=10.0, floor_ms=0.5)
    ) as ctx:
        rdd = ctx.matrix(X, y, 4)
        t0 = ctx.now()
        rdd.map(lambda b: float(np.sum(b.X @ np.zeros(b.dim)))).collect()
        # 4 tasks over 2 workers: each worker runs 2 serial tasks at the
        # 0.5ms floor, so the BSP job spans at least 1ms of virtual time.
        assert ctx.now() - t0 >= 2 * 0.5


def test_network_jitter_changes_timeline_not_results(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run(jitter):
        with ClusterContext(
            4, seed=0, network=NetworkModel(jitter=jitter)
        ) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = build_optimizer(
                "sgd", ctx, pts, problem, InvSqrtDecay(0.5),
                OptimizerConfig(batch_fraction=0.25, max_updates=10, seed=0),
            ).run()
            return res.w, res.elapsed_ms

    w_a, t_a = run(0.0)
    w_b, t_b = run(0.3)
    assert np.array_equal(w_a, w_b)  # math unchanged
    assert t_a != t_b                # timeline jittered


def test_foreach_partition_side_effects(ctx):
    seen = []
    ctx.parallelize(range(10), 5).foreach_partition(
        lambda part: seen.append(list(part))
    )
    assert sorted(x for p in seen for x in p) == list(range(10))


def test_union_of_matrix_rdds(ctx, small_data):
    X, y, _ = small_data
    a = ctx.matrix(X[:128], y[:128], 4)
    b = ctx.matrix(X[128:], y[128:], 4)
    u = a.union(b)
    blocks = u.collect()
    assert sum(blk.rows for blk in blocks) == 256


def test_glom_on_matrix(ctx, small_data):
    X, y, _ = small_data
    pts = ctx.matrix(X, y, 4)
    groups = pts.glom().collect()
    assert len(groups) == 4
    assert all(len(g) == 1 for g in groups)
