"""Synthetic dataset generators."""

import numpy as np
import pytest
from scipy import sparse

from repro.data.blocks import Csr
from repro.data.synthetic import (
    make_classification,
    make_dense_regression,
    make_sparse_regression,
)
from repro.errors import DataError
from test_blocks import to_scipy


def test_dense_shapes_and_determinism():
    X1, y1, w1 = make_dense_regression(100, 10, seed=5)
    X2, y2, w2 = make_dense_regression(100, 10, seed=5)
    assert X1.shape == (100, 10) and y1.shape == (100,)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    assert np.array_equal(w1, w2)


def test_dense_seed_changes_data():
    X1, _, _ = make_dense_regression(50, 5, seed=1)
    X2, _, _ = make_dense_regression(50, 5, seed=2)
    assert not np.array_equal(X1, X2)


def test_dense_low_noise_fits_w_true():
    X, y, w_true = make_dense_regression(500, 8, noise=0.0, seed=0)
    assert np.allclose(X @ w_true, y)


def test_dense_conditioning_scales_columns():
    X, _, _ = make_dense_regression(2000, 10, cond=100.0, seed=0)
    norms = np.linalg.norm(X, axis=0)
    assert norms[0] / norms[-1] > 30  # roughly cond


def test_dense_validates():
    with pytest.raises(DataError):
        make_dense_regression(0, 5)
    with pytest.raises(DataError):
        make_dense_regression(10, 5, cond=0.5)


def test_sparse_density_and_format():
    X, y, _ = make_sparse_regression(200, 100, density=0.05, seed=0)
    assert type(X) is Csr
    nnz_per_row = np.diff(X.indptr)
    assert np.all(nnz_per_row == 5)


def test_sparse_rows_normalized():
    X, _, _ = make_sparse_regression(100, 50, density=0.1, seed=0)
    norms = sparse.linalg.norm(to_scipy(X), axis=1)
    assert np.allclose(norms, 1.0)


def test_sparse_unnormalized_option():
    X, _, _ = make_sparse_regression(
        100, 50, density=0.1, seed=0, normalize_rows=False
    )
    norms = sparse.linalg.norm(to_scipy(X), axis=1)
    assert not np.allclose(norms, 1.0)


def test_sparse_deterministic():
    X1, y1, _ = make_sparse_regression(50, 30, density=0.1, seed=3)
    X2, y2, _ = make_sparse_regression(50, 30, density=0.1, seed=3)
    assert (to_scipy(X1) != to_scipy(X2)).nnz == 0
    assert np.array_equal(y1, y2)


def test_sparse_validates_density():
    with pytest.raises(DataError):
        make_sparse_regression(10, 10, density=0.0)


def test_classification_labels_pm1():
    X, y, _ = make_classification(300, 10, seed=0)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    # Roughly balanced-ish (ground truth is symmetric).
    assert 0.2 < np.mean(y == 1.0) < 0.8


def test_classification_flip_noise():
    _, y0, _ = make_classification(2000, 5, flip=0.0, seed=1)
    _, y1, _ = make_classification(2000, 5, flip=0.4, seed=1)
    assert np.mean(y0 != y1) > 0.2


def test_classification_validates_flip():
    with pytest.raises(DataError):
        make_classification(10, 5, flip=0.6)


def test_classification_separable_when_margin_large():
    X, y, w = make_classification(500, 8, margin=10.0, flip=0.0, seed=0)
    preds = np.sign(X @ w)
    assert np.mean(preds == y) > 0.95
