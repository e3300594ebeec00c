"""Synthetic dataset generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.data.blocks import Csr
from repro.data.registry import REGISTRY, get_dataset
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


# -- one resident copy: memory ratchets and bit pins --------------------------

def _traced_peak(make, *args, **kwargs):
    """``make(*args, **kwargs)`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = make(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


@pytest.mark.parametrize("make", [make_dense_regression, make_classification])
def test_dense_generators_hold_one_copy_of_X(make):
    """``X`` is scaled in place: generating peaks at about ``X`` itself
    (1.09x and 1.02x measured), not at the two copies an out-of-place
    ``standard_normal(...) * scales`` held (2.08x and 2.01x)."""
    (X, _, _), peak = _traced_peak(make, 4096, 256)
    assert peak <= 1.15 * X.nbytes


def test_sparse_generator_allocates_in_the_kept_dtypes():
    """Indices are built in ``index_dtype`` (no narrowing copy in
    ``Csr``) and values normalised in place: rcv1_like's shape peaks at
    2.5x its stored bytes, where it reached 3.3x. Most of what remains is
    ``y = X @ w``'s gather and ``row_of_nnz``, which ``X`` keeps."""
    (X, _, _), peak = _traced_peak(
        make_sparse_regression, 8192, 256, density=0.02
    )
    assert X.indices.dtype == X.indptr.dtype == np.int32
    stored = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    assert peak <= 2.75 * stored


def _dataset_digest(X, y) -> str:
    h = hashlib.sha1()
    arrays = (X.data, X.indices, X.indptr) if type(X) is Csr else (X,)
    for a in (*arrays, y):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: sha1 of every registered dataset's ``X`` (a dense array, or a ``Csr``'s
#: data, indices and indptr), then ``y``, each with its dtype and shape.
#: Recorded before the generators filled in place and unchanged by it:
#: memory work must not move a bit of the data.
DATASET_PINS = {
    ("epsilon_like", 0): "a39dc6c014af2b8209948787041f55a02f5d6d03",
    ("epsilon_like", 3): "386df0409de9f4f1343b8d6a80f86714a4234811",
    ("mnist8m_like", 0): "fe860d1a58cf9986d76791f569348f711b662a2c",
    ("mnist8m_like", 3): "ffafab5c06cf83d25023737975357bed8f7a364e",
    ("rcv1_like", 0): "8012d3d324a677d7675ffaa501e933620c01604b",
    ("rcv1_like", 3): "b9a557edf0f1049c9bd0d17f577c85399584f8f6",
    ("synth_logistic", 0): "7a16a9542a0f0f2ff9ca3a37713b7a76aa34a8af",
    ("synth_logistic", 3): "2c2c3a061067425ff9966ff8e975436aa253b9a1",
    ("tiny_dense", 0): "89362a823e04fb107b38f250d4eab4cdb4a3d76a",
    ("tiny_dense", 3): "47a9f1a8f3718d08fc60a6a6a072412944ab1df4",
    ("tiny_sparse", 0): "a86f0f159f21fe9e6eeeb350780da55e80e8bee1",
    ("tiny_sparse", 3): "dd98857d0c9ccc0e9b59ce149e9f084e5cf95988",
}


def test_every_registered_dataset_is_pinned():
    assert {name for name, _ in DATASET_PINS} == set(REGISTRY)


@pytest.mark.parametrize("name,seed", sorted(DATASET_PINS))
def test_registered_dataset_bits_pinned(name, seed):
    X, y, _ = get_dataset(name, seed=seed)
    assert _dataset_digest(X, y) == DATASET_PINS[name, seed]
