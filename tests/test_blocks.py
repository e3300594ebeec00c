"""MatrixBlock: slicing, sampling, cost units, id tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from repro.data.blocks import (
    ARRAY_ROWS_MAX_NNZ,
    CsrRows,
    MatrixBlock,
    split_matrix,
    stack_blocks,
)
from repro.errors import DataError
from repro.utils.sizeof import sizeof_bytes


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


# -- CSR mini-batches: the array-level gather against scipy's ``X[idx]`` ------

SOURCES = ("direct", "split", "stack", "int64", "reversed_rows")


@st.composite
def csr_block_and_idx(draw):
    """A CSR block (with empty rows) in one of the storages the repo
    produces, and row indices: unsorted, repeated, negative, empty or all."""
    n = draw(st.integers(0, 10))
    d = draw(st.integers(1, 7))
    mask = draw(hnp.arrays(np.bool_, (n, d)))
    vals = draw(hnp.arrays(
        np.float64, (n, d), elements=st.floats(-1e3, 1e3, width=32),
    ))
    X = sparse.csr_matrix(np.where(mask, vals, 0.0))
    y = draw(hnp.arrays(np.float64, (n,), elements=st.sampled_from([-1.0, 1.0])))
    source = draw(st.sampled_from(SOURCES))
    if source == "split" and n >= 2:
        # rebased int32 ``indptr`` over slices of the parent's arrays
        block = split_matrix(X, y, 2)[draw(st.integers(0, 1))]
    elif source == "stack" and n >= 2:
        # ``indptr`` rebuilt in int64, then narrowed by the constructor
        sx, sy, _ = stack_blocks(split_matrix(X, y, 2))
        block = MatrixBlock(X=sx, y=sy)
    else:
        if source == "int64":  # what scipy keeps for > 2**31 entries
            X.indices = X.indices.astype(np.int64)
            X.indptr = X.indptr.astype(np.int64)
        elif source == "reversed_rows":  # unsorted within-row storage
            for lo, hi in zip(X.indptr[:-1], X.indptr[1:]):
                X.data[lo:hi] = X.data[lo:hi][::-1].copy()
                X.indices[lo:hi] = X.indices[lo:hi][::-1].copy()
            X.has_sorted_indices = False
        block = MatrixBlock(X=X, y=y)
    rows = block.rows
    idx = draw(st.lists(st.integers(-rows, rows - 1), max_size=12)
               if rows else st.just([]))
    shape = draw(st.sampled_from(("as_drawn", "sorted", "all_rows")))
    if shape == "sorted":
        idx = sorted(idx)
    elif shape == "all_rows":
        idx = list(range(rows))
    return block, np.asarray(idx, dtype=np.intp)


def assert_same_csr(rows: CsrRows, ref: sparse.csr_matrix):
    assert rows.shape == ref.shape and rows.nnz == ref.nnz
    for name in ("data", "indices", "indptr"):
        got, want = getattr(rows, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@settings(max_examples=300, deadline=None)
@given(csr_block_and_idx())
def test_sparse_take_rows_equals_scipy_fancy_indexing(case):
    block, idx = case
    sub = block.take_rows(idx)
    ref = MatrixBlock(X=block.X[idx], y=block.y[idx], ids=idx)
    assert type(sub.X) is CsrRows and sub.is_sparse
    assert_same_csr(sub.X, ref.X)
    assert np.array_equal(sub.y, ref.y) and np.array_equal(sub.ids, idx)
    assert (sub.rows, sub.dim, sub.nnz) == (ref.rows, ref.dim, ref.nnz)
    assert sub.cost_units() == ref.cost_units()
    assert sub.cost_units(3) == ref.cost_units(3)
    assert sizeof_bytes(sub.X) == sizeof_bytes(ref.X)
    assert sizeof_bytes(sub) == sizeof_bytes(ref)


@settings(max_examples=100, deadline=None)
@given(csr_block_and_idx(), st.data())
def test_sparse_take_rows_composes(case, data):
    block, idx = case
    sub = block.take_rows(idx)
    again = np.asarray(data.draw(
        st.lists(st.integers(0, sub.rows - 1), max_size=8)
        if sub.rows else st.just([])
    ), dtype=np.intp)
    subsub = sub.take_rows(again)
    assert np.array_equal(subsub.ids, idx[again])
    assert_same_csr(subsub.X, block.X[idx][again])
    assert np.array_equal(subsub.y, block.y[idx][again])


def test_sparse_take_rows_on_a_shared_memory_attachment():
    """``data/shm.py`` hands out CSR matrices over read-only mapped buffers."""
    from repro.data import shm

    pub = shm.publish_dataset("tiny_sparse", 0)
    if pub is None:
        pytest.skip("shared memory unavailable on this host")
    try:
        X, y, _ = shm.attach_dataset(pub.manifest)
        block = split_matrix(X, y, 4)[2]
        idx = np.array([5, 0, 5, block.rows - 1, -2], dtype=np.intp)
        sub = block.take_rows(idx)
        assert_same_csr(sub.X, block.X[idx])
        assert sub.X.data.flags.writeable  # a gather, not a view of the map
        del X, y, block
    finally:
        shm.detach_all()
        shm.set_active_manifests(None)
        pub.unlink()


def test_take_rows_converts_non_csr_sparse_storage():
    X = sparse.random(12, 5, density=0.4, format="csc", random_state=2)
    block = MatrixBlock(X=X, y=np.arange(12.0))
    idx = np.array([7, 7, 1])
    assert_same_csr(block.take_rows(idx).X, X.tocsr()[idx])


def test_large_sparse_subsets_stay_with_scipy():
    """Above ``ARRAY_ROWS_MAX_NNZ`` gathered nonzeros scipy's compiled
    gather and products win; the subset is ``X[idx]`` as before."""
    X = sparse.random(400, 60, density=0.5, format="csr", random_state=0)
    block = MatrixBlock(X=X, y=np.arange(400.0))
    # The first ``k`` rows hold at most the limit; one more row exceeds it.
    k = int(np.searchsorted(X.indptr, ARRAY_ROWS_MAX_NNZ, side="right")) - 1
    assert X.indptr[k] <= ARRAY_ROWS_MAX_NNZ < X.indptr[k + 1]
    assert type(block.take_rows(np.arange(k)).X) is CsrRows
    big = block.take_rows(np.arange(k + 1))
    assert sparse.isspmatrix_csr(big.X) and big.is_sparse
    assert (big.X != X[: k + 1]).nnz == 0
    # A subset of the scipy subset picks its form by its own size, and
    # ``ids`` still compose.
    again = big.take_rows(np.array([7, 3, 7]))
    assert_same_csr(again.X, X[[7, 3, 7]])
    assert np.array_equal(again.ids, [7, 3, 7])


@settings(max_examples=100, deadline=None)
@given(csr_block_and_idx(), st.integers(0, 2**32 - 1))
def test_csr_rows_supports_the_operators_kernels_use(case, seed):
    """A map kernel or registered Problem written against scipy blocks
    (``X @ w``, ``X.T @ r``) gets the same bits from a ``CsrRows``."""
    block, idx = case
    rng = np.random.default_rng(seed)
    w, r = rng.standard_normal(block.dim), rng.standard_normal(len(idx))
    rows, ref = block.take_rows(idx).X, block.X[idx]
    assert type(rows) is CsrRows
    assert np.array_equal(rows @ w, ref @ w)
    assert rows.T.shape == ref.T.shape
    assert np.array_equal(rows.T @ r, ref.T @ r)
    assert_same_csr(rows, rows.tocsr())
    W = rng.standard_normal((block.dim, 2))
    assert np.array_equal(rows @ W, ref @ W)
    assert np.array_equal(rows.T @ np.outer(r, [1.0, 2.0]),
                          ref.T @ np.outer(r, [1.0, 2.0]))
