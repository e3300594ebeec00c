"""Sparse optimizer trajectories pinned across the move off scipy.

Every digest below was recorded at the commit *before* sparse mini-batches
stopped being scipy matrices (``MatrixBlock.take_rows`` returning
``X[idx]``, gradients through scipy's ``csr_matvec``/``csc_matvec``). The
NumPy ``Csr`` gather and its ``np.bincount`` products accumulate in the
same order as those loops, for mini-batches and whole matrices alike, so
``sha1(w)`` of every run must not move. A scipy build that fuses the
multiply-add in its sparse loops would break that identity on its
platform; the pins are this (x86_64, scipy wheels) host's and CI's, not a
tolerance. scipy itself is only this file's oracle: the last test forms
every product with scipy's operators and lands on the same pins. The
pins were re-recorded once since, when TRAJECTORY_EPOCH 2 changed the
mini-batch draw every one of these runs samples through.

Logistic runs reuse the regression analogs with sign labels, passed
through ``prepare_experiment``'s shared-dataset hook like ``run_grid``
does.
"""

import hashlib

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.data.blocks import Csr
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
    "async_lbfgs": {"algorithm": "async_lbfgs", "max_updates": 24},
}

# sha1(w).hexdigest()[:16], Sim backend, recorded at 67786bc and
# re-recorded at TRAJECTORY_EPOCH 2 (the hash-seeded mini-batch draw).
PINNED = {
    "asgd/tiny_sparse/least_squares": "05262e63128a6dbe",
    "asgd/tiny_sparse/logistic": "e5593a41aa5c11f6",
    "asgd/rcv1_like/least_squares": "f03c13bc2a389514",
    "asgd/rcv1_like/logistic": "27ba0791797ab0f3",
    "sgd/tiny_sparse/least_squares": "d350e0779bbee36b",
    "sgd/tiny_sparse/logistic": "8651e8d9ef590c64",
    "sgd/rcv1_like/least_squares": "9737958bc52be9dd",
    "sgd/rcv1_like/logistic": "a6d6ad10aa8edf1b",
    "asaga/tiny_sparse/least_squares": "170d0895c21b980e",
    "asaga/tiny_sparse/logistic": "411f1c0b64a38e16",
    "asaga/rcv1_like/least_squares": "4b3adfa02c825776",
    "asaga/rcv1_like/logistic": "302133c86ed7597b",
    "saga/tiny_sparse/least_squares": "784171a94eca042d",
    "saga/tiny_sparse/logistic": "56a4a76da825f466",
    "saga/rcv1_like/least_squares": "0ac39eb4cfad1858",
    "saga/rcv1_like/logistic": "eb4164f907071b5c",
    "svrg/tiny_sparse/least_squares": "4a7ccde23e3ed72d",
    "svrg/tiny_sparse/logistic": "6498c23327b5d2de",
    "svrg/rcv1_like/least_squares": "7c70148e3cdaea67",
    "svrg/rcv1_like/logistic": "ccb9925e7b79bda8",
    "asvrg/tiny_sparse/least_squares": "e9f8f52c7b3f3068",
    "asvrg/tiny_sparse/logistic": "5d7bacfa345a0a60",
    "asvrg/rcv1_like/least_squares": "8d86e932f975cf33",
    "asvrg/rcv1_like/logistic": "fd07bb4787dadbf3",
    "async_lbfgs/tiny_sparse/least_squares": "f0acf92afce28bf8",
    "async_lbfgs/tiny_sparse/logistic": "c330fd95b3011fa3",
    "async_lbfgs/rcv1_like/least_squares": "6b7213744c7048c2",
    "async_lbfgs/rcv1_like/logistic": "867872bc62de057c",
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


def _scipy_products(monkeypatch):
    """Boundary 0, the parent's behaviour: every sparse product a problem
    forms (mini-batch, grouped, whole-matrix, the least-squares gram) is
    scipy's operator on the same triplet."""
    from scipy import sparse

    from repro.optim import problems

    def sp(X):
        if type(X) is not Csr:
            return X
        return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)

    def grouped(X, y, ws, group, link):
        S, out = sp(X), np.empty((len(ws), X.shape[1]))
        for g, w in enumerate(ws):
            rows = np.flatnonzero(group == g)
            out[g] = S[rows].T @ link(S[rows] @ w, y[rows])
        return out

    monkeypatch.setattr(problems, "matvec", lambda X, w: sp(X) @ w)
    monkeypatch.setattr(problems, "rmatvec", lambda X, r: sp(X).T @ r)
    monkeypatch.setattr(problems, "grouped_products", grouped)
    monkeypatch.setattr(problems, "gram", lambda X: (sp(X).T @ sp(X)).toarray())


@pytest.mark.parametrize("algo", ["asgd", "asaga", "saga"])
def test_size_boundary_moves_speed_not_bits(algo, datasets, monkeypatch):
    """Every product through scipy (boundary 0, the parent's behaviour)
    lands on the same pins as every product through ``Csr``."""
    _scipy_products(monkeypatch)
    key = f"{algo}/rcv1_like/least_squares"
    assert run_digest(algo, "rcv1_like", "least_squares", datasets) == PINNED[key]
    key = f"{algo}/rcv1_like/logistic"
    assert run_digest(algo, "rcv1_like", "logistic", datasets) == PINNED[key]
