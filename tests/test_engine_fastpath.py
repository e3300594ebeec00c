"""Engine fast path: batched update application and columnar STAT parity.

The acceptance bar for the fast-path work: with ``batch_apply`` on (the
default), every trajectory — iterates, trace snapshots, times, update
and round counts — is bit-identical to the per-record path, across
granularities, policies, rules with a batched form, and rules without
one.
"""

import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.core.stat import StatTable
from repro.optim.reducers import fold_steps, stack_pairs


def _trajectory(result):
    return (
        np.asarray(result.w),
        np.asarray(result.trace.snapshots),
        tuple(result.trace.times_ms),
        result.updates,
        result.rounds,
        result.elapsed_ms,
    )


def _run(spec, batch_apply):
    prep = prepare_experiment(spec)
    prep.config.batch_apply = batch_apply
    return prep.execute()


def _assert_parity(spec):
    ta = _trajectory(_run(spec, True))
    tb = _trajectory(_run(spec, False))
    assert np.array_equal(ta[0], tb[0])
    assert np.array_equal(ta[1], tb[1])
    assert ta[2:] == tb[2:]


BASE = {
    "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
    "eval_every": 7, "seed": 3,
}


# -- batched apply is parity-pinned --------------------------------------------------
@pytest.mark.parametrize("barrier", ["asp", "ssp:2", "ct:1.5"])
def test_asgd_batching_parity_worker_granularity(barrier):
    _assert_parity({**BASE, "barrier": barrier})


def test_asgd_batching_parity_partition_granularity():
    _assert_parity({**BASE, "granularity": "partition"})


def test_hogwild_batching_parity():
    _assert_parity({**BASE, "algorithm": "hogwild"})


def test_fedavg_batching_parity():
    _assert_parity({
        "algorithm": "fedavg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
        "eval_every": 7, "seed": 0, "params": {"local_steps": 3},
    })


def test_fedavg_blend_path_batching_parity():
    """fedasync weights < 1 exercise apply_batch's slot-blend branch."""
    _assert_parity({
        "algorithm": "fedavg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
        "eval_every": 7, "seed": 0, "params": {"local_steps": 3},
        "policy": "asp & fedasync:poly",
    })


def test_thread_backend_batching_parity():
    """Same parity on real threads (single worker: deterministic)."""
    from repro.api.registry import POLICIES
    from repro.cluster.threadbackend import ThreadBackend
    from repro.data.synthetic import make_dense_regression
    from repro.engine.context import ClusterContext
    from repro.optim import (
        AsyncSGD,
        InvSqrtDecay,
        LeastSquaresProblem,
        OptimizerConfig,
    )

    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)

    def run(batch_apply):
        backend = ThreadBackend(num_workers=1)
        with ClusterContext(1, backend=backend, seed=0) as ctx:
            points = ctx.matrix(X, y, 1).cache()
            return AsyncSGD(
                ctx, points, problem,
                InvSqrtDecay(0.5).scaled_for_async(1),
                OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0,
                                batch_apply=batch_apply),
                policy=POLICIES.create("asp"),
            ).run()

    a, b = run(True), run(False)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(
        np.asarray(a.trace.snapshots), np.asarray(b.trace.snapshots)
    )


def test_ridge_gates_batching_off_and_parity_holds():
    """A coupled regularizer (lam > 0) makes ``batch_ready`` refuse the
    batched form; both settings then run per-record and match."""
    _assert_parity({**BASE, "problem": "ridge", "max_updates": 30})


def test_asgd_batch_ready_gates_on_regularizer():
    from repro.optim.asgd import ASGDRule

    rule = ASGDRule()
    rule.opt = SimpleNamespace(problem=SimpleNamespace(lam=0.0))
    assert rule.batch_ready()
    rule.opt.problem.lam = 0.1
    assert not rule.batch_ready()


def test_update_rule_apply_batch_default_is_not_implemented():
    from repro.optim.loop import UpdateRule

    rule = UpdateRule()
    assert not rule.batch_accepts(SimpleNamespace(value=(None, 1)))
    with pytest.raises(NotImplementedError):
        rule.apply_batch(np.zeros(2), [], [])


# -- the vectorized fold helpers -----------------------------------------------------
def test_fold_steps_is_a_strict_left_fold():
    """``np.subtract.reduce`` must not re-associate: the result has to be
    bitwise equal to subtracting the steps one at a time, even with
    wildly mixed magnitudes where re-association changes rounding."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal(16) * 1e8
    steps = rng.standard_normal((12, 16)) * rng.uniform(
        1e-8, 1e8, size=(12, 1)
    )
    expected = w.copy()
    for step in steps:
        expected = expected - step
    assert np.array_equal(fold_steps(w, steps), expected)


def test_stack_pairs_shapes_and_dtypes():
    records = [
        SimpleNamespace(value=(np.arange(3.0) + i, i + 1)) for i in range(4)
    ]
    G, counts = stack_pairs(records)
    assert G.shape == (4, 3)
    assert counts.shape == (4, 1) and counts.dtype == np.float64
    assert counts[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]


# -- columnar STAT reductions match the scalar references ----------------------------
def test_worker_aggregates_match_statistics_module():
    rng = np.random.default_rng(5)
    stat = StatTable(6)
    means = []
    for w in range(6):
        values = rng.uniform(1.0, 50.0, size=int(rng.integers(1, 6)))
        for v in values:
            stat[w].note_completion(0, 0.0, float(v))
        mean = 0.0  # replicate the online-mean update sequence exactly
        for n, v in enumerate(map(float, values), start=1):
            mean += (v - mean) / n
        means.append(mean)
        assert stat[w].avg_completion_ms == mean
    assert stat.mean_completion_ms() == statistics.fmean(means)
    assert stat.median_completion_ms() == statistics.median(means)


def test_partition_median_matches_statistics_module():
    rng = np.random.default_rng(9)
    stat = StatTable(4)
    avgs = []
    for p in range(7):
        row = stat.partition_row(p, owner=p % 4)
        if p == 3:
            continue  # one partition with no history must be excluded
        values = rng.uniform(1.0, 100.0, size=int(rng.integers(1, 4)))
        for v in values:
            row.note_completion(0, 0.0, float(v))
        avgs.append(row.avg_completion_ms)
    assert stat.median_partition_completion_ms() == statistics.median(avgs)


def test_max_staleness_matches_row_loop():
    stat = StatTable(5)
    stat.current_version = 100
    busy = {1: 40, 3: 90, 4: 10}
    for w, version in busy.items():
        stat[w].available = False
        stat[w].note_assigned(version)
    expected = 0
    for row in stat:
        if row.alive and not row.available and row.computing_version is not None:
            expected = max(expected, stat.current_version - row.computing_version)
    assert stat.max_staleness == expected == 90
    assert stat.available_workers() == [0, 2]
    assert stat.busy_workers() == [1, 3, 4]
