"""SchedulingPolicy adapters: parity with the barrier era + end-to-end.

The acceptance bar for the protocol redesign: every pre-existing barrier
spec routes through the new ``select``-based dispatch with bit-identical
trajectories, and the four new policies are spec-addressable end to end.
"""

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.registry import POLICIES
from repro.cluster.threadbackend import ThreadBackend
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
        with ClusterContext(4, seed=0) as ctx:
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
def test_idempotent_composition_is_bit_identical(barrier):
    """`b & b` admits exactly what `b` admits: same trajectories, so the
    select/intersection path adds nothing to the classic filters."""
    _assert_same_trajectory(
        _run_spec(barrier=barrier), _run_spec(policy=f"{barrier} & {barrier}")
    )


@pytest.mark.parametrize("barrier", ["asp", "ssp:2", "ct:1.5"])
def test_neutral_weight_composition_is_bit_identical(barrier):
    """A weight hook that returns 1.0 (fedasync:const) changes nothing."""
    _assert_same_trajectory(
        _run_spec(barrier=barrier),
        _run_spec(policy=f"{barrier} & fedasync:const"),
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


@pytest.mark.parametrize("barrier", ["asp", "ssp:2", "ct:1.5"])
def test_thread_backend_parity(barrier):
    """Same adapter parity on real threads (single worker: deterministic)."""
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)

    def run(granularity):
        backend = ThreadBackend(num_workers=1)
        with ClusterContext(1, backend=backend, seed=0) as ctx:
            points = ctx.matrix(X, y, 1).cache()
            return build_optimizer(
                "asgd", ctx, points, problem,
                InvSqrtDecay(0.5).scaled_for_async(1),
                OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0,
                                granularity=granularity),
                policy=POLICIES.create(barrier),
            ).run()

    a, b = run("worker"), run("partition")
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(
        np.asarray(a.trace.snapshots), np.asarray(b.trace.snapshots)
    )


# -- spec-layer validation -----------------------------------------------------------
def test_barrier_and_policy_together_is_an_error():
    with pytest.raises(ApiError, match="set only one"):
        _run_spec(barrier="asp", policy="bsp")


def test_policy_on_sync_optimizer_is_an_error():
    with pytest.raises(ApiError, match="no effect on the synchronous"):
        run_experiment({
            "algorithm": "sgd", "dataset": "tiny_dense",
            "policy": "sample:0.5", "max_updates": 4,
        })


# -- the four new policies, spec-addressable end to end ------------------------------
def _fed_spec(policy, updates=60):
    return {
        "algorithm": "fedavg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "policy": policy,
        "max_updates": updates, "eval_every": 8, "seed": 0,
        "params": {"local_steps": 3},
    }


def test_partition_ssp_end_to_end():
    res = run_experiment(_fed_spec("ssp_partition:4"))
    assert res.updates == 60
    assert res.extras["policy"] == "PartitionSSP(s=4)"
    assert res.extras["partition_tasks"] > 0


def test_partition_completion_filter_end_to_end():
    res = run_experiment(_fed_spec("ct_partition:1.5"))
    assert res.updates == 60
    assert res.extras["policy"] == "PartitionCompletionFilter(ratio=1.5)"


def test_client_sampling_end_to_end():
    full = run_experiment(_fed_spec("asp"))
    sampled = run_experiment(_fed_spec("sample:0.5"))
    assert sampled.updates == 60
    assert "ClientSampling" in sampled.extras["policy"]
    # sampling halves each round's dispatch, so it takes more rounds to
    # produce the same number of collected results.
    assert sampled.rounds > full.rounds


def test_staleness_weighting_end_to_end():
    plain = run_experiment(_fed_spec("asp"))
    damped = run_experiment(_fed_spec("asp & fedasync:poly"))
    assert damped.updates == 60
    assert "StalenessWeighting" in damped.extras["policy"]
    # the discount changes the trajectory (stale slots blend, not overwrite)
    assert not np.array_equal(plain.w, damped.w)


def test_migration_end_to_end_moves_partitions():
    res = run_experiment({
        "algorithm": "hogwild", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:1.0",
        "policy": {"name": "migrate", "threshold": 1.5, "min_history": 3},
        "max_updates": 160, "eval_every": 16, "seed": 0,
    })
    assert res.extras["migrations"] >= 1
    assert res.updates == 160


def test_migration_updates_partition_owners():
    from repro.api.runner import prepare_experiment

    prep = prepare_experiment({
        "algorithm": "hogwild", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:1.0", "policy": "migrate:1.5",
        "max_updates": 160, "eval_every": 16, "seed": 0,
    })
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        opt = prep.make_optimizer(ctx, points)
        from repro.optim.partitioned import HogwildRule
        from repro.optim.loop import ServerLoop

        loop = ServerLoop(opt, HogwildRule())
        res = loop.run()
        moves = loop.ac.coordinator.migration_log
        assert moves and res.extras["migrations"] == len(moves)
        # every accepted move left the overlay pointing at some worker
        for partition, old, new in moves:
            assert new != old
            assert partition in loop.ac.placement
        # and the STAT rows track the most recent dispatch worker
        snapshot = {row["partition_id"]: row["owner"]
                    for row in loop.ac.stat.partition_snapshot()}
        for partition, worker in loop.ac.placement.items():
            assert snapshot[partition] == worker


def test_policy_axis_sweeps_through_grid():
    from repro.api import run_grid

    summaries = run_grid({
        "base": _fed_spec("asp", updates=20),
        "grid": {"policy": ["asp", "sample:0.5", "asp & fedasync:poly"]},
    })
    assert [s["spec"]["policy"] for s in summaries] == [
        "asp", "sample:0.5", "asp & fedasync:poly",
    ]
    assert all(s["updates"] == 20 for s in summaries)


def test_filter_and_sample_composition_never_stalls():
    """Regression: `ct_partition & sample` used to intersect independent
    draws, occasionally selecting nothing on an idle cluster and dying
    with a SchedulerError mid-run."""
    for seed in range(8):
        res = run_experiment({
            "algorithm": "hogwild", "dataset": "tiny_dense",
            "num_workers": 4, "num_partitions": 4, "delay": "cds:1.0",
            "policy": "ct_partition:1.2 & sample:0.25",
            "max_updates": 30, "eval_every": 10, "seed": seed,
        })
        assert res.updates == 30


def test_duplicate_targets_from_a_policy_are_rejected():
    from repro.core.policies import LambdaPolicy

    dup = LambdaPolicy(
        lambda s: True, select_fn=lambda s, cs: list(cs) + list(cs[:1]),
        name="dup",
    )
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    from repro.errors import SchedulerError

    with ClusterContext(2, seed=0) as ctx:
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
    from repro.bench.claims import PAPER_CELL
    from repro.bench.harness import run_api_experiment

    bad = PAPER_CELL.with_overrides(
        dataset="tiny_dense", algorithm="asgd", policy="ssp_partiton:4",  # typo
    )
    with pytest.raises(ApiError, match="unknown policy"):
        run_api_experiment(bad)


def test_bench_spec_rejects_policy_on_sync_algorithm():
    from repro.bench.claims import PAPER_CELL
    from repro.bench.harness import run_api_experiment

    sync = PAPER_CELL.with_overrides(
        dataset="tiny_dense", algorithm="svrg", policy="fedasync:poly",
    )
    with pytest.raises(ApiError, match="no effect on the synchronous"):
        run_api_experiment(sync)


def test_sampling_policy_seed_comes_from_spec():
    """The spec's seed parameterizes sampling draws via registry defaults."""
    a = run_experiment({**_fed_spec("sample:0.5"), "seed": 1})
    b = run_experiment({**_fed_spec("sample:0.5"), "seed": 1})
    c = run_experiment({**_fed_spec("sample:0.5"), "seed": 2})
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)
