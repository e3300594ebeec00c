"""Sparse optimizer trajectories pinned across the CSR mini-batch swap.

Every digest below was recorded at the commit *before* sparse mini-batches
stopped being scipy matrices (``MatrixBlock.take_rows`` returning
``X[idx]``, gradients through scipy's ``csr_matvec``/``csc_matvec``). The
array-level gather and the ``np.bincount`` products accumulate in the same
order as those loops, so the swap is a host-only change and ``sha1(w)`` of
every run must not move, on either side of the size boundary
(``ARRAY_ROWS_MAX_NNZ``) that keeps large subsets with scipy. A scipy build that fuses the multiply-add in its
sparse loops would break that identity on its platform; the pins are this
(x86_64, scipy wheels) host's and CI's, not a tolerance.

Logistic runs reuse the regression analogs with sign labels, passed
through ``prepare_experiment``'s shared-dataset hook like ``run_grid``
does.
"""

import hashlib

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.data.registry import get_dataset

BASE = {
    "num_workers": 4, "num_partitions": 8, "delay": "cds:0.6",
    "eval_every": 10, "seed": 3,
}
ALGOS = {
    "asgd": {"algorithm": "asgd", "max_updates": 60},
    "sgd": {"algorithm": "sgd", "max_updates": 12},
    "asaga": {
        "algorithm": "asaga", "params": {"mode": "history"},
        "barrier": "ssp:4", "granularity": "partition", "max_updates": 80,
    },
    "saga": {"algorithm": "saga", "max_updates": 12},
    "svrg": {
        "algorithm": "svrg", "params": {"inner_iterations": 6},
        "max_updates": 18,
    },
    "asvrg": {
        "algorithm": "asvrg", "params": {"inner_iterations": 6},
        "max_updates": 36,
    },
    "fedavg": {
        "algorithm": "fedavg", "granularity": "partition",
        "params": {"local_steps": 3}, "max_updates": 24,
    },
    "hogwild": {
        "algorithm": "hogwild", "granularity": "partition", "max_updates": 60,
    },
    "async_lbfgs": {"algorithm": "async_lbfgs", "max_updates": 24},
}

# sha1(w).hexdigest()[:16], Sim backend, recorded at 67786bc.
PINNED = {
    "asgd/tiny_sparse/least_squares": "2d7e5b93e07cff17",
    "asgd/tiny_sparse/logistic": "ca4cc453b53a0067",
    "asgd/rcv1_like/least_squares": "327bf0e1086c933c",
    "asgd/rcv1_like/logistic": "8b2fa5615232d241",
    "sgd/tiny_sparse/least_squares": "f93c5740ed018d34",
    "sgd/tiny_sparse/logistic": "75781994b12ea9a4",
    "sgd/rcv1_like/least_squares": "de9d887758bc09f8",
    "sgd/rcv1_like/logistic": "4ad8fc99f860f878",
    "asaga/tiny_sparse/least_squares": "33061ff9093ba244",
    "asaga/tiny_sparse/logistic": "a0a10372ce123310",
    "asaga/rcv1_like/least_squares": "55db77245e54bb5a",
    "asaga/rcv1_like/logistic": "81a6e0302d1f9f8e",
    "saga/tiny_sparse/least_squares": "1e1cff0858f034dd",
    "saga/tiny_sparse/logistic": "8df044a1686baee8",
    "saga/rcv1_like/least_squares": "2b9c9bae98953713",
    "saga/rcv1_like/logistic": "a47379d3bb15d481",
    "svrg/tiny_sparse/least_squares": "82f68e117d04dfcc",
    "svrg/tiny_sparse/logistic": "12dc1ffdc57f9e34",
    "svrg/rcv1_like/least_squares": "8c650e37727d94cb",
    "svrg/rcv1_like/logistic": "6eba2606764e22d5",
    "asvrg/tiny_sparse/least_squares": "fe81664c80a58093",
    "asvrg/tiny_sparse/logistic": "7754fe7c20649947",
    "asvrg/rcv1_like/least_squares": "96e481d4b18ce642",
    "asvrg/rcv1_like/logistic": "ca92e403648122b0",
    "fedavg/tiny_sparse/least_squares": "60af8f6bdf2d073d",
    "fedavg/tiny_sparse/logistic": "923280228658496e",
    "fedavg/rcv1_like/least_squares": "614b1898665c7e9c",
    "fedavg/rcv1_like/logistic": "cca842811775fef8",
    "hogwild/tiny_sparse/least_squares": "2a72176b1826cb22",
    "hogwild/tiny_sparse/logistic": "1285b0dbfc490812",
    "hogwild/rcv1_like/least_squares": "30ac2ffa2bb21f1f",
    "hogwild/rcv1_like/logistic": "aa8f1ed0a3ebd5a5",
    "async_lbfgs/tiny_sparse/least_squares": "a3c3ddabd3d76a2a",
    "async_lbfgs/tiny_sparse/logistic": "e81d5d186d7d8b17",
    "async_lbfgs/rcv1_like/least_squares": "0c918d95a715fde3",
    "async_lbfgs/rcv1_like/logistic": "28c19ec917d47210",
}


@pytest.fixture(scope="module")
def datasets():
    """``(X, y, dspec)`` per (dataset, problem); logistic gets sign labels."""
    out = {}
    for name in ("tiny_sparse", "rcv1_like"):
        X, y, dspec = get_dataset(name, seed=BASE["seed"])
        out[name, "least_squares"] = (X, y, dspec)
        out[name, "logistic"] = (X, np.where(y > 0, 1.0, -1.0), dspec)
    return out


def run_digest(algo, dataset, problem, datasets):
    spec = dict(BASE, dataset=dataset, problem=problem, **ALGOS[algo])
    prepared = prepare_experiment(
        spec, _dataset=datasets[dataset, problem]
    )
    w = np.ascontiguousarray(prepared.execute().w)
    return hashlib.sha1(w.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_sparse_trajectory_pinned(key, datasets):
    algo, dataset, problem = key.split("/")
    assert run_digest(algo, dataset, problem, datasets) == PINNED[key]


@pytest.mark.parametrize("algo", ["asgd", "asaga", "saga", "fedavg"])
def test_size_boundary_moves_speed_not_bits(algo, datasets, monkeypatch):
    """Every row subset through scipy (boundary 0, the parent's behaviour)
    lands on the same pins as every subset through the array path."""
    monkeypatch.setattr("repro.data.blocks.ARRAY_ROWS_MAX_NNZ", 0)
    key = f"{algo}/rcv1_like/logistic"
    assert run_digest(algo, "rcv1_like", "logistic", datasets) == PINNED[key]
