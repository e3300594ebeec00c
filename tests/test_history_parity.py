"""HIST refactor parity: SAGA/ASAGA/SVRG trajectories pinned against main.

The acceptance bar for moving the three history silos (broadcast version
cache, SAGA's ``averageHistory``, SVRG's epoch anchors) onto the shared
HIST subsystem: **bit-identical trajectories**. The digests below were
captured on main immediately before the refactor (same specs, same
seeds) — any numerical or scheduling drift in
the refactored path changes a digest and fails loudly.
"""

import hashlib

import numpy as np
import pytest

from repro.api import run_experiment
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
# digests hash w + snapshots only. The single-worker hand-wired pins
# were recorded on a real-thread backend, since removed; one worker
# delivers in FIFO order, so the simulation reproduces them bit for bit.
# Re-recorded at TRAJECTORY_EPOCH 2 (the hash-seeded mini-batch draw),
# the only change that moved them: every spec below samples mini-batches.
PINNED_SIM = {
    "saga_history": "20e0467d1a4faa72e779a992d7dc91db",
    "saga_naive": "d231d5a2c3481e878c6f57b00ef89268",
    "asaga": "d257545cd0450ab3dd7119d2c98f923b",
    "asaga_partition": "9841e76c5b72e165025610e05369587b",
    "svrg": "c60f01b9775d193eb131d796436e817b",
    "asvrg": "a0f62a2159c7ab2748dbd23c8b1344f2",
}
PINNED_HAND_WIRED = {
    "asaga": "cd3ca93a6ce0fa4b7c2fdccffefcfe00",
    "asvrg": "4856ae9ae25a9956e51f5c56058086b5",
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


def _hand_wired_run(algorithm, **kwargs):
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(1) as ctx:
        points = ctx.matrix(X, y, 2).cache()
        return build_optimizer(
            algorithm, ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0),
            **kwargs,
        ).run()


def test_single_worker_hand_wired_asaga_pinned():
    res = _hand_wired_run("asaga")
    assert _model_digest(res) == PINNED_HAND_WIRED["asaga"]


def test_single_worker_hand_wired_asvrg_pinned():
    res = _hand_wired_run("asvrg", inner_iterations=4)
    assert _model_digest(res) == PINNED_HAND_WIRED["asvrg"]


# -- HIST surface of the refactored optimizers -----------------------------------------
def test_asaga_history_channels_in_extras():
    res = run_experiment(SIM_SPECS["asaga"])
    hist = res.extras["history"]
    # The model versions workers read by id; averageHistory is server
    # state of SagaState, not history.
    assert sorted(hist) == ["saga"]
    assert hist["saga"]["keep"] == "all"
    assert hist["saga"]["versions"] >= 1
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
