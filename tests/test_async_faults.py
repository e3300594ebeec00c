"""Fault injection against the asynchronous optimizers.

The async path tolerates worker loss by design: lost gradients are simply
never applied and the dead worker drops out of the STAT table (Section 4's
fault-tolerance inheritance from Spark, plus asynchrony's natural slack).
"""

import numpy as np

from repro.cluster.faultplan import parse_fault_plan
from repro.engine.context import ClusterContext
from repro.optim import (
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)


def run_under(plan: str, opt):
    """Run ``opt`` with a scripted fault plan."""
    opt.fault_plan = parse_fault_plan(plan)
    return opt.run()


def test_asgd_survives_mid_run_worker_loss(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        res = run_under("kill:w3@15ms", build_optimizer(
            "asgd", ctx, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
            OptimizerConfig(batch_fraction=0.25, max_updates=120, seed=0),
        ))
    assert res.updates == 120
    assert res.extras["lost_tasks"] >= 1
    assert problem.error(res.w) < 0.3 * problem.error(problem.initial_point())


def test_asgd_continues_on_surviving_workers(small_data):
    """After the kill, only live workers appear in the task trace."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        res = run_under("kill:w0@10ms", build_optimizer(
            "asgd", ctx, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
            OptimizerConfig(batch_fraction=0.25, max_updates=80, seed=0),
        ))
        late = [m for m in res.metrics if m.submitted_ms > 12.0
                and m.task_id >= 0]
        assert late, "run should continue past the failure"
        assert all(m.worker_id != 0 for m in late)


def test_asaga_survives_worker_loss(small_data):
    """SAGA state for the dead worker's partitions is lost with it; the
    remaining workers' history keeps the algorithm consistent."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        res = run_under("kill:w2@40ms", build_optimizer(
            "asaga", ctx, pts, problem, ConstantStep(0.02 / 4),
            OptimizerConfig(batch_fraction=0.2, max_updates=150, seed=0),
        ))
    assert res.updates == 150
    assert problem.error(res.w) < problem.error(problem.initial_point())


def test_all_but_one_worker_dies(small_data):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        res = run_under("kill:w1@5ms,kill:w2@8ms,kill:w3@11ms", build_optimizer(
            "asgd", ctx, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
            OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=0),
        ))
    # Worker 0 alone finishes the budget (it owns partitions 0 and 4).
    assert res.updates == 60
    survivors = {m.worker_id for m in res.metrics
                 if m.submitted_ms > 12.0 and m.task_id >= 0}
    assert survivors == {0}


def test_deterministic_under_faults(small_data):
    """Same seed + same scripted failure -> identical runs."""
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)

    def run():
        with ClusterContext(4) as ctx:
            pts = ctx.matrix(X, y, 8).cache()
            res = run_under("kill:w1@12ms", build_optimizer(
                "asgd", ctx, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
                OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=3),
            ))
            return res.w, res.elapsed_ms

    w1, t1 = run()
    w2, t2 = run()
    assert np.array_equal(w1, w2)
    assert t1 == t2
