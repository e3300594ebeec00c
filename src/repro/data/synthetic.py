"""Synthetic dataset generators shaped after the paper's Table 2.

Each generator controls the properties that drive SGD/SAGA convergence
behaviour — conditioning, sparsity, noise level, label structure — while
keeping sizes laptop-friendly. Determinism: same seed, same dataset,
byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.data.blocks import Csr
from repro.errors import DataError
from repro.utils.rng import spawn_generator

__all__ = [
    "make_dense_regression",
    "make_sparse_regression",
    "make_classification",
]


def _column_scales(d: int, cond: float) -> np.ndarray:
    """Geometric column scaling producing an approximate condition number."""
    if cond < 1:
        raise DataError("cond must be >= 1")
    return np.geomspace(1.0, 1.0 / cond, d)


def make_dense_regression(
    n: int,
    d: int,
    *,
    noise: float = 0.01,
    cond: float = 10.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense least-squares instance ``y = X w* + noise``.

    Returns ``(X, y, w_true)``. Column scaling sets the conditioning of
    ``X^T X``, which controls how hard the problem is for first-order
    methods (mnist8m/epsilon analogs use moderate conditioning).
    """
    if n <= 0 or d <= 0:
        raise DataError("n and d must be positive")
    rng = spawn_generator(seed, "dense-reg", n, d)
    X = rng.standard_normal((n, d)) * _column_scales(d, cond)
    w_true = rng.standard_normal(d)
    y = X @ w_true + noise * rng.standard_normal(n)
    return X, y, w_true


def make_sparse_regression(
    n: int,
    d: int,
    *,
    density: float = 0.002,
    noise: float = 0.01,
    seed: int = 0,
    normalize_rows: bool = True,
) -> tuple[Csr, np.ndarray, np.ndarray]:
    """Sparse least-squares instance (the rcv1-like regime).

    Every row gets the same number of nonzeros ``max(1, density*d)`` at
    uniform positions with N(0,1) values, then (by default) L2-normalized
    rows — rcv1's tf-idf vectors are unit-norm, which is what makes
    constant-ish step sizes workable on it. Returns ``(X, y, w_true)``
    with ``X`` a :class:`~repro.data.blocks.Csr`.
    """
    if not 0 < density <= 1:
        raise DataError(f"density must be in (0, 1], got {density}")
    rng = spawn_generator(seed, "sparse-reg", n, d)
    nnz_per_row = max(1, int(round(density * d)))
    indptr = np.arange(0, (n + 1) * nnz_per_row, nnz_per_row, dtype=np.intp)
    cols = np.empty(n * nnz_per_row, dtype=np.intp)
    for i in range(n):
        cols[i * nnz_per_row : (i + 1) * nnz_per_row] = np.sort(
            rng.choice(d, size=nnz_per_row, replace=False)
        )
    vals = rng.standard_normal(n * nnz_per_row)
    if normalize_rows:
        norms = np.sqrt(
            np.add.reduceat(vals * vals, indptr[:-1])
        )
        norms[norms == 0] = 1.0
        vals = vals / np.repeat(norms, nnz_per_row)
    X = Csr(vals, cols, indptr, (n, d))
    w_true = rng.standard_normal(d)
    y = X @ w_true + noise * rng.standard_normal(n)
    return X, y, w_true


def make_classification(
    n: int,
    d: int,
    *,
    margin: float = 1.0,
    flip: float = 0.02,
    cond: float = 5.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binary labels in {-1, +1} from a logistic ground-truth model.

    ``flip`` is the label-noise probability; used by the logistic
    regression problem and the classification examples.
    """
    if not 0 <= flip < 0.5:
        raise DataError("flip must be in [0, 0.5)")
    rng = spawn_generator(seed, "classif", n, d)
    X = rng.standard_normal((n, d)) * _column_scales(d, cond)
    w_true = rng.standard_normal(d) * margin
    logits = X @ w_true
    probs = 1.0 / (1.0 + np.exp(-logits))
    y = np.where(rng.random(n) < probs, 1.0, -1.0)
    flips = rng.random(n) < flip
    y[flips] *= -1.0
    return X, y, w_true
