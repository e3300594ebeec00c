"""Consensus ADMM (sync + async)."""

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


def cfg(updates, eval_every=5):
    # step schedule is unused by ADMM but required by the base class.
    return OptimizerConfig(batch_fraction=1.0, max_updates=updates,
                           eval_every=eval_every, seed=0)


def test_sync_admm_converges_to_optimum(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "admm", ctx, points, problem, ConstantStep(1.0), cfg(40), rho=1.0,
    ).run()
    assert problem.error(res.w) < 1e-4
    errs = res.trace.errors(problem)
    assert errs[-1] < errs[0] * 1e-3  # ADMM converges fast on LS


def test_sync_admm_monotone_progress(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "admm", ctx, points, problem, ConstantStep(1.0), cfg(30, eval_every=10),
        rho=2.0,
    ).run()
    errs = res.trace.errors(problem)
    assert all(b <= a * 1.5 for a, b in zip(errs, errs[1:]))


def test_factorizations_cached_per_partition(ctx, small_data):
    points, problem = build(ctx, small_data, parts=4)
    build_optimizer("admm", ctx, points, problem, ConstantStep(1.0), cfg(10), rho=1.0).run()
    cached = 0
    for w in range(ctx.num_workers):
        env = ctx.backend.worker_env(w)
        cached += sum(
            1 for k in env.keys()
            if isinstance(k, tuple) and k[0] == "admm_chol"
        )
    assert cached == 4  # one factorization per partition, computed once


def test_dual_state_lives_on_workers(ctx, small_data):
    points, problem = build(ctx, small_data, parts=4)
    build_optimizer("admm", ctx, points, problem, ConstantStep(1.0), cfg(5), rho=1.0).run()
    u_keys = [
        k for w in range(ctx.num_workers)
        for k in ctx.backend.worker_env(w).keys()
        if isinstance(k, tuple) and k[0] == "admm_u"
    ]
    assert len(u_keys) == 4


def test_async_admm_converges(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "aadmm", ctx, points, problem, ConstantStep(1.0), cfg(160, eval_every=20),
        rho=1.0,
    ).run()
    assert problem.error(res.w) < 1e-2
    assert res.extras["lost_tasks"] == 0


def test_async_admm_with_straggler(small_data):
    from repro.cluster.stragglers import ControlledDelay
    from repro.engine.context import ClusterContext

    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(
        4, seed=0, delay_model=ControlledDelay(1.0, workers=(0,))
    ) as c:
        points = c.matrix(X, y, 8).cache()
        res = build_optimizer(
            "aadmm", c, points, problem, ConstantStep(1.0), cfg(120, eval_every=20),
            rho=1.0,
        ).run()
    assert problem.error(res.w) < 0.05


def test_rho_validated(ctx, small_data):
    points, problem = build(ctx, small_data)
    with pytest.raises(OptimError):
        build_optimizer("admm", ctx, points, problem, ConstantStep(1.0), cfg(5), rho=0.0)


def test_non_least_squares_rejected(ctx):
    from repro.data.synthetic import make_classification
    from repro.optim.problems import LogisticRegressionProblem

    X, y, _ = make_classification(64, 4, seed=0)
    problem = LogisticRegressionProblem(X, y)
    points = ctx.matrix(X, y, 4)
    with pytest.raises(OptimError, match="least squares"):
        build_optimizer(
            "admm", ctx, points, problem, ConstantStep(1.0), cfg(5)
        ).run()


def test_sync_async_agree_on_fixed_point(ctx, small_data):
    """Both variants drive z to the same least-squares optimum."""
    points, problem = build(ctx, small_data)
    sync = build_optimizer(
        "admm", ctx, points, problem, ConstantStep(1.0), cfg(40), rho=1.0,
    ).run()
    asyn = build_optimizer(
        "aadmm", ctx, points, problem, ConstantStep(1.0), cfg(320, eval_every=40),
        rho=1.0,
    ).run()
    assert np.allclose(sync.w, problem.w_star, atol=1e-2)
    assert np.allclose(asyn.w, problem.w_star, atol=5e-2)


def test_async_admm_tasks_run_in_their_worker_env(monkeypatch):
    """aadmm tasks bind ``task_env``: each (worker, partition) factorizes
    once, and a task is priced for its solves and its fetch of ``z``,
    not at the per-task overhead alone."""
    from scipy import linalg

    from repro.api import run_experiment

    factorizations = []
    cho_factor = linalg.cho_factor

    def counting_cho_factor(*args, **kwargs):
        factorizations.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(linalg, "cho_factor", counting_cho_factor)
    res = run_experiment({
        "algorithm": "aadmm", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 20, "seed": 0,
        "cost": {"overhead_ms": 1.0, "ms_per_unit": 0.01},
    })
    assert res.updates == 20
    assert len(factorizations) == 8  # one per partition, each on its owner
    assert len(res.metrics) > 8  # so most tasks reused a cached factor
    assert min(m.compute_ms for m in res.metrics) > 1.0
    assert all(m.fetch_bytes > 0 for m in res.metrics)
