"""HIST refactor parity: SAGA/ASAGA/SVRG trajectories pinned against main.

The acceptance bar for moving the three history silos (broadcast version
cache, SAGA's ``averageHistory``, SVRG's epoch anchors) onto the shared
HIST subsystem: **bit-identical trajectories**. The digests below were
captured on main immediately before the refactor (same specs, same
seeds, Sim and Thread backends) — any numerical or scheduling drift in
the refactored path changes a digest and fails loudly.

The weight-aware tests pin the *new* behavior: ASAGA/ASVRG consume
``record.weight`` inside their variance-reduction mathematics (damping
the stale innovation) instead of the loop's generic alpha scaling.
"""

import hashlib

import numpy as np
import pytest

from repro.api import run_experiment
from repro.cluster.threadbackend import ThreadBackend
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.optim import (
    ConstantStep,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)

# Captured on main @ 7de99d9 (pre-HIST), PYTHONPATH=src, numpy in CI's
# range; full digests hash w + snapshots + times + counters, model
# digests hash w + snapshots only (thread wall-clock is not pinned).
PINNED_SIM = {
    "saga_history": "5993738a963337c9dc2051a91798a196",
    "saga_naive": "348ce9dd4df592afb9b3660fc75e7a57",
    "asaga": "548603ca8321db67479eb4df515bd58c",
    "asaga_partition": "626360377aecb1e61b722524613accb9",
    # Re-recorded when svrg moved onto the server loop: RunResult.rounds
    # now counts inner rounds (24), not epochs (4). w, snapshots and
    # times did not move: the previous loop's run hashed with rounds=24
    # gives this digest.
    "svrg": "069c5d3b5fa054ac1921b3355e2e81d9",
    "asvrg": "e05eee11ff930e8c04fb7f80dfc54aa3",
}
PINNED_THREAD = {
    "asaga_thread": "02d2c7b882cfc18c2d8584b6138c702e",
    "asvrg_thread": "c16dc078303437ed41ccff7bb7740d5a",
}

SIM_SPECS = {
    "saga_history": {
        "algorithm": "saga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 30,
        "eval_every": 5, "seed": 3,
    },
    "saga_naive": {
        "algorithm": "saga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 20,
        "eval_every": 5, "seed": 3, "params": {"mode": "naive"},
    },
    "asaga": {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 40,
        "eval_every": 5, "seed": 3,
    },
    "asaga_partition": {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 40,
        "eval_every": 5, "seed": 3, "granularity": "partition",
    },
    "svrg": {
        "algorithm": "svrg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 24,
        "eval_every": 4, "seed": 3, "params": {"inner_iterations": 6},
    },
    "asvrg": {
        "algorithm": "asvrg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 36,
        "eval_every": 4, "seed": 3, "params": {"inner_iterations": 6},
    },
}


def _full_digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.asarray(res.w)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(res.trace.snapshots)).tobytes())
    h.update(repr(tuple(res.trace.times_ms)).encode())
    h.update(repr((res.updates, res.rounds, res.elapsed_ms)).encode())
    return h.hexdigest()[:32]


def _model_digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.asarray(res.w)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(res.trace.snapshots)).tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(PINNED_SIM))
def test_sim_backend_trajectory_pinned(name):
    assert _full_digest(run_experiment(SIM_SPECS[name])) == PINNED_SIM[name]


def _thread_run(algorithm, **kwargs):
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    backend = ThreadBackend(num_workers=1)
    with ClusterContext(1, backend=backend, seed=0) as ctx:
        points = ctx.matrix(X, y, 2).cache()
        return build_optimizer(
            algorithm, ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0),
            **kwargs,
        ).run()


def test_thread_backend_asaga_pinned():
    res = _thread_run("asaga")
    assert _model_digest(res) == PINNED_THREAD["asaga_thread"]


def test_thread_backend_asvrg_pinned():
    res = _thread_run("asvrg", inner_iterations=4)
    assert _model_digest(res) == PINNED_THREAD["asvrg_thread"]


# -- HIST surface of the refactored optimizers -----------------------------------------
def test_asaga_history_channels_in_extras():
    res = run_experiment(SIM_SPECS["asaga"])
    hist = res.extras["history"]
    channels = sorted(hist)
    # The model-version channel and the averageHistory channel.
    assert any(name.endswith("/avg_hist") for name in channels)
    assert any(not name.endswith("/avg_hist") for name in channels)
    avg = next(hist[n] for n in channels if n.endswith("/avg_hist"))
    assert avg["keep"] == "last:1"
    assert avg["versions"] == 1  # bounded: only the current average
    assert res.extras["history_bytes"] == sum(
        row["stored_bytes"] for row in hist.values()
    )


def test_asvrg_anchor_channels_in_extras():
    res = run_experiment(SIM_SPECS["asvrg"])
    hist = res.extras["history"]
    assert hist["svrg/anchor"]["keep"] == "last:1"
    assert hist["svrg/mu"]["keep"] == "last:1"
    assert hist["svrg/anchor"]["versions"] == 1
    # One anchor appended per epoch; earlier ones evicted.
    assert hist["svrg/anchor"]["evicted_versions"] == res.extras["epochs"] - 1


def test_sync_saga_history_accounting_in_extras():
    res = run_experiment(SIM_SPECS["saga_history"])
    hist = res.extras["history"]
    model = next(
        row for name, row in hist.items() if not name.endswith("/avg_hist")
    )
    # keep="all": one stored version per publish (setup + each round).
    assert model["keep"] == "all"
    assert model["versions"] == res.updates + 1


def test_naive_mode_table_is_a_hist_channel():
    res = run_experiment(SIM_SPECS["saga_naive"])
    hist = res.extras["history"]
    table = next(row for name, row in hist.items() if name.endswith("/table"))
    assert table["versions"] == res.updates + 1
    assert res.extras["naive_broadcast_bytes"] > table["stored_bytes"]


# -- weight-aware variance reduction (the PR-4 follow-up) ------------------------------
def _asaga_weighted_spec(policy=None, updates=40):
    spec = {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:1.0", "max_updates": updates,
        "eval_every": 8, "seed": 3,
    }
    if policy is not None:
        spec["policy"] = policy
    return spec


def test_fedasync_and_asaga_regression():
    """ASAGA under a staleness-discount policy: weight lands in the
    history update (damped innovation), not in generic alpha scaling."""
    plain = run_experiment(_asaga_weighted_spec())
    neutral = run_experiment(_asaga_weighted_spec("asp & fedasync:const"))
    damped = run_experiment(_asaga_weighted_spec("asp & fedasync:poly"))

    # A neutral weight hook changes nothing, bit for bit.
    assert np.array_equal(plain.w, neutral.w)
    # A real discount changes the trajectory...
    assert not np.array_equal(plain.w, damped.w)
    # ...and the averageHistory itself (the table update is damped too —
    # under generic alpha scaling avg_hist would be identical to plain).
    assert damped.extras["avg_hist_norm"] != pytest.approx(
        plain.extras["avg_hist_norm"], rel=1e-12
    )
    # Still a working SAGA: the full update budget lands.
    assert damped.updates == plain.updates


def test_fedasync_and_asvrg_damps_innovation():
    spec = {
        "algorithm": "asvrg", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:1.0", "max_updates": 24,
        "eval_every": 8, "seed": 3, "params": {"inner_iterations": 6},
    }
    plain = run_experiment(spec)
    neutral = run_experiment({**spec, "policy": "asp & fedasync:const"})
    damped = run_experiment({**spec, "policy": "asp & fedasync:poly"})
    assert np.array_equal(plain.w, neutral.w)
    assert not np.array_equal(plain.w, damped.w)


def test_weighted_asaga_converges():
    from repro.api.runner import prepare_experiment

    spec = _asaga_weighted_spec("asp & fedasync:poly", updates=120)
    res = run_experiment(spec)
    problem = prepare_experiment(spec).problem
    assert problem.error(res.w) < 0.5 * problem.initial_error()
