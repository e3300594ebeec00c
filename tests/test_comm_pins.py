"""Compressed trajectories pinned bit for bit.

``test_comm.py`` pins ``compressor="none"`` against a run with no COMM
layer; these pins cover the lossy collect and fetch paths themselves:
top-k with delta broadcasts at partition grain, one-bit at worker grain,
and top-k on plain ASGD. A digest hashes the final model, the trace
snapshots, ``elapsed_ms`` (which carries the codec's compute pricing)
and every ``comm_*`` ledger scalar. A change to how packets are built,
priced or decoded that keeps these digests kept every bit; a digest
moves only together with a ``TRAJECTORY_EPOCH`` bump in
``repro/utils/rng.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.api import run_experiment

BASE = {
    "num_workers": 4, "num_partitions": 8, "delay": "cds:0.6",
    "eval_every": 10, "seed": 3,
}
SPECS = {
    "asaga_topk_delta_partition": {
        "algorithm": "asaga", "params": {"mode": "history"},
        "dataset": "rcv1_like", "policy": "ssp:4",
        "granularity": "partition", "max_updates": 60,
        "compressor": {"name": "topk", "fraction": 0.1, "delta": True},
    },
    "asaga_onebit_worker": {
        "algorithm": "asaga", "params": {"mode": "history"},
        "dataset": "rcv1_like", "granularity": "worker", "max_updates": 60,
        "compressor": "onebit",
    },
    "asgd_topk": {
        "algorithm": "asgd", "dataset": "synth_logistic",
        "problem": "logistic", "max_updates": 60, "compressor": "topk:0.25",
    },
}

# sha256(...).hexdigest()[:32] at TRAJECTORY_EPOCH 5.
PINNED = {
    "asaga_topk_delta_partition": "0b2373a537e31dff689ef303dc27e5e7",
    "asaga_onebit_worker": "b9ebd85fbce1a045a25c2f7ad1375237",
    "asgd_topk": "c0ba9eb806ab02ce2f3ea320b86709c6",
}


def _digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.asarray(res.w)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(res.trace.snapshots)).tobytes())
    h.update(repr((res.updates, res.elapsed_ms)).encode())
    ledger = sorted(
        (k, v) for k, v in res.extras.items() if k.startswith("comm_")
    )
    h.update(repr(ledger).encode())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compressed_trajectory_pinned(name):
    res = run_experiment({**BASE, **SPECS[name]})
    assert res.extras["comm_collect_wire_bytes"] < res.extras[
        "comm_collect_raw_bytes"
    ]
    assert _digest(res) == PINNED[name]
