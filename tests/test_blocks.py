"""MatrixBlock: slicing, sampling, cost units, id tracking."""

import numpy as np
import pytest
from scipy import sparse

from repro.data.blocks import MatrixBlock, split_matrix, stack_blocks
from repro.errors import DataError


def make_block(n=20, d=4, offset=0, seed=0):
    rng = np.random.default_rng(seed)
    return MatrixBlock(
        X=rng.standard_normal((n, d)), y=rng.standard_normal(n),
        offset=offset, block_id=0,
    )


def test_shape_properties():
    b = make_block(20, 4)
    assert b.rows == 20 and b.dim == 4
    assert not b.is_sparse
    assert b.nnz == 80


def test_mismatched_rows_raise():
    with pytest.raises(DataError):
        MatrixBlock(X=np.zeros((3, 2)), y=np.zeros(4))


def test_y_must_be_1d():
    with pytest.raises(DataError):
        MatrixBlock(X=np.zeros((3, 2)), y=np.zeros((3, 1)))


def test_take_rows_tracks_source_ids():
    b = make_block(10)
    sub = b.take_rows(np.array([2, 5, 7]))
    assert sub.rows == 3
    assert np.array_equal(sub.ids, [2, 5, 7])
    # Composition: selecting from the sub-block maps to source rows.
    subsub = sub.take_rows(np.array([0, 2]))
    assert np.array_equal(subsub.ids, [2, 7])


def test_global_ids_offset():
    b = make_block(10, offset=100)
    assert np.array_equal(b.global_ids(np.array([0, 3])), [100, 103])


def test_sample_indices_size_matches_fraction():
    b = make_block(100)
    rng = np.random.default_rng(0)
    idx = b.sample_indices(0.25, rng)
    assert len(idx) == 25
    assert len(np.unique(idx)) == 25  # without replacement


def test_sample_indices_at_least_one():
    b = make_block(10)
    idx = b.sample_indices(0.01, np.random.default_rng(0))
    assert len(idx) == 1


def test_sample_with_replacement_can_repeat():
    b = make_block(3)
    idx = b.sample_indices(1.0, np.random.default_rng(3),
                           with_replacement=True)
    assert len(idx) == 3
    assert idx.max() < 3


def test_sample_fraction_validated():
    b = make_block()
    with pytest.raises(DataError):
        b.sample_indices(0.0, np.random.default_rng(0))
    with pytest.raises(DataError):
        b.sample_indices(1.5, np.random.default_rng(0))


def test_dense_cost_units_is_rows():
    b = make_block(50, 4)
    assert b.cost_units() == 50.0
    assert b.cost_units(10) == 10.0


def test_sparse_cost_units_scaled_by_density():
    X = sparse.random(100, 50, density=0.1, format="csr", random_state=0)
    b = MatrixBlock(X=X, y=np.zeros(100))
    # avg nnz per row = 5, dim 50 -> cost 100 * 5/50 = 10
    assert b.cost_units() == pytest.approx(100 * (X.nnz / 100) / 50)


def test_split_matrix_partitions_cover_everything():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((103, 5))
    y = rng.standard_normal(103)
    blocks = split_matrix(X, y, 8)
    assert len(blocks) == 8
    assert sum(b.rows for b in blocks) == 103
    # Sizes balanced within 1 row.
    sizes = [b.rows for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    # Offsets are cumulative and data round-trips.
    rebuilt = np.vstack([b.X for b in blocks])
    assert np.array_equal(rebuilt, X)
    for b in blocks:
        assert np.array_equal(b.X, X[b.offset:b.offset + b.rows])


def test_split_matrix_sparse_stays_csr():
    X = sparse.random(64, 16, density=0.2, format="coo", random_state=0)
    y = np.zeros(64)
    blocks = split_matrix(X, y, 4)
    assert all(sparse.isspmatrix_csr(b.X) for b in blocks)


def test_split_matrix_validation():
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(DataError):
        split_matrix(X, y, 0)
    with pytest.raises(DataError):
        split_matrix(X, y, 5)
    with pytest.raises(DataError):
        split_matrix(X, np.zeros(3), 2)


def test_stack_blocks_round_trips_dense_segments():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((37, 5))
    y = rng.standard_normal(37)
    blocks = split_matrix(X, y, 4)
    sx, sy, bounds = stack_blocks(blocks)
    assert bounds[-1] == 37
    assert np.array_equal(sx, X) and np.array_equal(sy, y)
    for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        assert np.array_equal(sx[lo:hi], block.X)
        assert np.array_equal(sy[lo:hi], block.y)


def test_stack_blocks_round_trips_csr_segments():
    X = sparse.random(41, 9, density=0.3, format="csr", random_state=1)
    y = np.arange(41.0)
    blocks = split_matrix(X, y, 5)
    sx, sy, bounds = stack_blocks(blocks)
    assert sparse.isspmatrix_csr(sx) and sx.shape == X.shape
    # Same values in the same within-row storage order, not just equal
    # as matrices.
    assert np.array_equal(sx.data, X.data)
    assert np.array_equal(sx.indices, X.indices)
    assert np.array_equal(sx.indptr, X.indptr)
    assert np.array_equal(sy, y)
    for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        assert (sx[lo:hi] != block.X).nnz == 0


def test_stack_blocks_validation():
    with pytest.raises(DataError):
        stack_blocks([])
    dense = split_matrix(np.zeros((4, 3)), np.zeros(4), 1)
    csr = split_matrix(sparse.eye(4, 3, format="csr"), np.zeros(4), 1)
    with pytest.raises(DataError):
        stack_blocks(dense + csr)
