"""SchedulingPolicy adapters: parity with the barrier era + end-to-end.

Every barrier spec, under either spelling and at either granularity,
runs bit-identical trajectories, and a policy is spec-addressable end to
end.
"""

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.registry import POLICIES
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.errors import ApiError
from repro.optim import (
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)

CLASSIC_BARRIERS = ["asp", "bsp", "ssp:2", "frac:0.5", "ct:1.5"]


def _trajectory(result):
    return (
        np.asarray(result.w),
        np.asarray(result.trace.snapshots),
        tuple(result.trace.times_ms),
        result.updates,
        result.rounds,
        result.elapsed_ms,
    )


def _assert_same_trajectory(a, b):
    ta, tb = _trajectory(a), _trajectory(b)
    assert np.array_equal(ta[0], tb[0])
    assert np.array_equal(ta[1], tb[1])
    assert ta[2:] == tb[2:]


def _run_spec(barrier=None, policy=None, granularity="worker", updates=40):
    spec = {
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": updates,
        "eval_every": 4, "seed": 3, "granularity": granularity,
    }
    if barrier is not None:
        spec["barrier"] = barrier
    if policy is not None:
        spec["policy"] = policy
    return run_experiment(spec)


# -- adapter parity ------------------------------------------------------------------
@pytest.mark.parametrize("barrier", CLASSIC_BARRIERS)
def test_policy_field_matches_barrier_field(barrier):
    """`policy=` and the legacy `barrier=` spelling run identically."""
    _assert_same_trajectory(
        _run_spec(barrier=barrier), _run_spec(policy=barrier)
    )


@pytest.mark.parametrize("barrier", CLASSIC_BARRIERS)
def test_string_spec_matches_instance(barrier):
    """Registry-resolved policies equal directly-constructed instances."""
    X, y, _ = make_dense_regression(256, 8, cond=4.0, seed=7)
    problem = LeastSquaresProblem(X, y)

    def run(pol):
        with ClusterContext(4) as ctx:
            points = ctx.matrix(X, y, 8).cache()
            return build_optimizer(
                "asgd", ctx, points, problem,
                InvSqrtDecay(0.5).scaled_for_async(4),
                OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
                policy=pol,
            ).run()

    _assert_same_trajectory(
        run(POLICIES.create(barrier)), run(POLICIES.create(barrier))
    )


@pytest.mark.parametrize("barrier", CLASSIC_BARRIERS)
def test_partition_granularity_parity_per_barrier(barrier):
    """With one partition per worker, partition-granular dispatch under
    every classic policy reproduces the worker-granular trajectory."""
    spec = {
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 4, "delay": "cds:0.6", "barrier": barrier,
        "max_updates": 40, "eval_every": 4, "seed": 3,
    }
    a = run_experiment({**spec, "granularity": "worker"})
    b = run_experiment({**spec, "granularity": "partition"})
    _assert_same_trajectory(a, b)
    assert b.extras["partition_tasks"] > 0


# -- spec-layer validation -----------------------------------------------------------
def test_barrier_and_policy_together_is_an_error():
    with pytest.raises(ApiError, match="set only one"):
        _run_spec(barrier="asp", policy="bsp")


def test_policy_on_sync_optimizer_is_an_error():
    with pytest.raises(ApiError, match="no effect on the synchronous"):
        run_experiment({
            "algorithm": "sgd", "dataset": "tiny_dense",
            "policy": "ssp:2", "max_updates": 4,
        })


# -- policies end to end -------------------------------------------------------------
def test_policy_axis_sweeps_through_grid():
    from repro.api import run_grid

    policies = ["asp", "ssp:4", "ct:1.5"]
    summaries = run_grid({
        "base": {
            "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
            "num_partitions": 8, "delay": "cds:0.6",
            "granularity": "partition", "max_updates": 20, "seed": 0,
        },
        "grid": {"policy": policies},
    })
    assert [s["spec"]["policy"] for s in summaries] == policies
    assert all(s["updates"] == 20 for s in summaries)


def test_duplicate_targets_from_a_policy_are_rejected():
    from repro.core.policies import LambdaPolicy

    dup = LambdaPolicy(
        lambda s: True,
        eligible_fn=lambda s: s.available_workers() + s.available_workers()[:1],
        name="dup",
    )
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    from repro.errors import SchedulerError

    with ClusterContext(2) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        with pytest.raises(SchedulerError, match="twice"):
            build_optimizer(
                "asgd", ctx, points, problem,
                InvSqrtDecay(0.5).scaled_for_async(2),
                OptimizerConfig(batch_fraction=0.25, max_updates=8, seed=0),
                policy=dup,
            ).run()


def test_policy_less_spec_json_is_unchanged_by_the_new_field():
    """Checkpoint keys written before the policy field existed must keep
    matching: unset policy is omitted from the canonical spec JSON."""
    from repro.api.parallel import run_key
    from repro.api.spec import ExperimentSpec as ApiSpec

    spec = ApiSpec(algorithm="asgd", max_updates=8)
    assert "policy" not in spec.to_dict()
    assert '"policy"' not in run_key(spec)
    again = ApiSpec.from_dict(spec.to_dict())
    assert again.policy is None and again == spec
    withp = spec.with_overrides(policy="asp")
    assert withp.to_dict()["policy"] == "asp"
    assert ApiSpec.from_dict(withp.to_dict()) == withp


def test_bench_spec_fails_fast_on_mis_keyed_policy():
    from repro.api.parallel import run_cell
    from repro.bench.claims import PAPER_CELL

    bad = PAPER_CELL.with_overrides(
        dataset="tiny_dense", algorithm="asgd", policy="sps:4",  # typo
    )
    with pytest.raises(ApiError, match="unknown policy"):
        run_cell(bad)


def test_bench_spec_rejects_policy_on_sync_algorithm():
    from repro.api.parallel import run_cell
    from repro.bench.claims import PAPER_CELL

    sync = PAPER_CELL.with_overrides(
        dataset="tiny_dense", algorithm="svrg", policy="ssp:2",
    )
    with pytest.raises(ApiError, match="no effect on the synchronous"):
        run_cell(sync)
