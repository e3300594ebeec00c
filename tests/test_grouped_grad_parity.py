"""SAGA's historical gradients in one grouped pass, pinned to the loop.

``Problem.grad_sum_grouped`` evaluates every row of a batch at its own
stored model version. Its definition is the per-version loop the ASAGA
kernel used to run: ``take_rows`` of each version's rows, ``grad_sum`` at
that version, added into ``zeros(dim)`` in ascending version order. The
grouped products must agree with that loop bit for bit, for dense and
``Csr`` batches alike; otherwise every pinned ASAGA trajectory moves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.api import run_experiment
from repro.data import blocks
from repro.data.blocks import MatrixBlock
from repro.optim import saga
from repro.optim.asaga import ASAGARule
from repro.optim.problems import (
    LeastSquaresProblem,
    LogisticRegressionProblem,
    Problem,
)

PROBLEMS = {
    "least_squares": LeastSquaresProblem,
    "logistic": LogisticRegressionProblem,
}


def loop_reference(problem, sub, row_versions, models):
    """The pre-grouped ASAGA kernel's historical-gradient loop."""
    g_old = np.zeros(problem.dim)
    for v in np.unique(row_versions):
        part = sub.take_rows(np.flatnonzero(row_versions == v))
        g_old = g_old + problem.grad_sum(part.X, part.y, models[v])
    return g_old


def grouped(problem, sub, row_versions, models):
    distinct = np.unique(row_versions)
    group = distinct.searchsorted(row_versions)
    ws = [models[v] for v in distinct]
    return problem.grad_sum_grouped(sub.X, sub.y, ws, group)


@st.composite
def cases(draw):
    rows = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = sparse.random(
        rows, dim, density=draw(st.sampled_from([0.1, 0.4, 1.0])),
        random_state=rng, format="csr",
    )
    # Rows with no stored entries, beyond what the density leaves.
    empty = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    keep = np.isin(np.arange(rows), empty, invert=True).astype(np.float64)
    X = (sparse.diags(keep) @ X).tocsr()
    X.eliminate_zeros()
    labels = np.where(rng.random(rows) < 0.5, -1.0, 1.0)
    batch = draw(st.integers(0, rows))
    idx = np.sort(rng.choice(rows, size=batch, replace=False))
    shape = draw(st.sampled_from(["one", "distinct", "random"]))
    if shape == "one":
        row_versions = np.full(batch, draw(st.integers(0, 9)), dtype=np.int64)
    elif shape == "distinct":
        row_versions = rng.permutation(batch).astype(np.int64) * 3
    else:
        row_versions = rng.integers(0, 5, size=batch)
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    models = {
        v: rng.normal(scale=scale, size=dim) for v in range(3 * max(batch, 10))
    }
    models[0] = np.zeros(dim)  # the initial model: exact zero products
    return X, labels, idx, row_versions, models


@settings(max_examples=60, deadline=None)
@given(
    case=cases(),
    problem_name=st.sampled_from(sorted(PROBLEMS)),
    form=st.sampled_from(["dense", "sparse"]),
)
def test_grouped_gradients_equal_the_version_loop(case, problem_name, form):
    X, labels, idx, row_versions, models = case
    y = labels if problem_name == "logistic" else labels * 0.5 + 0.25
    X = X.toarray() if form == "dense" else X
    problem = PROBLEMS[problem_name](X, y)
    sub = MatrixBlock(X=problem.X, y=problem.y).take_rows(idx)
    want = loop_reference(problem, sub, row_versions, models)
    got = grouped(problem, sub, row_versions, models)
    assert got.shape == want.shape == (problem.dim,)
    assert got.tobytes() == want.tobytes()


class _PlainProblem(Problem):
    """A registered-style problem that only implements ``grad_sum``."""

    def loss_sum(self, X, y, w):
        r = blocks.matvec(X, w) - y
        return float(r @ r)

    def grad_sum(self, X, y, w):
        return blocks.rmatvec(X, np.tanh(blocks.matvec(X, w) - y))

    def solve_optimum(self):
        return np.zeros(self.dim)


@settings(max_examples=30, deadline=None)
@given(case=cases(), form=st.sampled_from(["dense", "sparse"]))
def test_base_class_loop_serves_a_grad_sum_only_problem(case, form):
    X, labels, idx, row_versions, models = case
    X = X.toarray() if form == "dense" else X
    problem = _PlainProblem(X, labels)
    sub = MatrixBlock(X=problem.X, y=problem.y).take_rows(idx)
    want = loop_reference(problem, sub, row_versions, models)
    got = grouped(problem, sub, row_versions, models)
    assert got.tobytes() == want.tobytes()


# Sparse gathers above this many nonzeros used to switch to scipy's
# ``X[idx]``; every gather is now one ``Csr`` path, checked on both sides.
OLD_SWITCH_NNZ = 4096


@pytest.mark.parametrize("side", [0, OLD_SWITCH_NNZ])
def test_sparse_asaga_task_gathers_once_and_grads_at_most_once(
    side, monkeypatch
):
    """Counted, not timed: one gather (``gather_rows``, and no
    ``take_rows`` sub-block) and at most one ``grad_sum`` per task,
    however many distinct versions the batch holds. Side 0 runs
    ``tiny_sparse``, whose every gather is below the old switch; side 4096
    runs ``rcv1_like``, whose every gather holds at least that many
    nonzeros."""
    tasks = []
    live = {}

    def counting(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            if live:
                live[key] += 1
                if key == "versions":
                    live["distinct"] = max(live["distinct"], len(args[3]))
                if key == "gathers":
                    live["nnz"] = out.nnz
            return out

        monkeypatch.setattr(cls, name, wrapper)

    counting(MatrixBlock, "take_rows", "take_rows")
    counting(saga, "gather_rows", "gathers")
    counting(LeastSquaresProblem, "grad_sum", "grad_sum")
    counting(LeastSquaresProblem, "grad_sum_grouped", "versions")
    kernel = ASAGARule.kernel

    def counted_kernel(self, block, handle, seed):
        live.update(
            take_rows=0, gathers=0, grad_sum=0, versions=0, distinct=0, nnz=0
        )
        try:
            return kernel(self, block, handle, seed)
        finally:
            tasks.append(dict(live))
            live.clear()

    monkeypatch.setattr(ASAGARule, "kernel", counted_kernel)
    run_experiment({
        "algorithm": "asaga",
        "dataset": "rcv1_like" if side else "tiny_sparse", "num_workers": 4,
        "num_partitions": 4, "batch_fraction": 0.5, "max_updates": 40,
        "eval_every": 20, "seed": 2,
    })
    assert tasks
    assert max(t["distinct"] for t in tasks) >= 3
    for t in tasks:
        assert t["gathers"] == 1
        assert t["take_rows"] == 0
        assert t["grad_sum"] <= 1
        assert t["versions"] == 1
        assert (t["nnz"] >= OLD_SWITCH_NNZ) == bool(side)
