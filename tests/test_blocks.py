"""MatrixBlock: slicing, sampling, cost units, id tracking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from repro.data.blocks import (
    STREAM_CHUNK_BYTES,
    Batch,
    Csr,
    MatrixBlock,
    gram,
    grouped_products,
    matvec,
    rmatvec,
    selected_products,
    split_matrix,
    stack_blocks,
)
from repro.errors import DataError
from repro.utils.sizeof import sizeof_bytes


def to_scipy(X: Csr) -> sparse.csr_matrix:
    """The scipy twin of a ``Csr`` (same arrays): the oracle's operand."""
    return sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


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


def test_sample_indices_size_matches_fraction():
    b = make_block(100)
    idx = b.sample_indices(0.25, 0, "mbatch", 0)
    assert len(idx) == 25
    assert len(np.unique(idx)) == 25  # without replacement


def test_sample_indices_at_least_one():
    b = make_block(10)
    idx = b.sample_indices(0.01, 0, "mbatch", 0)
    assert len(idx) == 1


def test_sample_fraction_validated():
    b = make_block()
    with pytest.raises(DataError):
        b.sample_indices(0.0, 0, "mbatch", 0)
    with pytest.raises(DataError):
        b.sample_indices(1.5, 0, "mbatch", 0)


def test_retried_sync_partition_redraws_its_lost_attempts_batch(
    ctx, small_data, monkeypatch
):
    """A worker killed mid-round loses its in-flight partitions; the
    resent tasks draw exactly the rows the lost attempts drew, so the
    round's update is the one an undisturbed round would apply."""
    from repro.cluster.faultplan import parse_fault_plan
    from repro.optim import InvSqrtDecay, OptimizerConfig, build_optimizer
    from repro.optim.problems import LeastSquaresProblem

    draws: dict[tuple, list] = {}
    sample = MatrixBlock.sample_indices

    def recording(self, fraction, seed, *key):
        idx = sample(self, fraction, seed, *key)
        draws.setdefault((seed, *key), []).append(idx.tolist())
        return idx

    monkeypatch.setattr(MatrixBlock, "sample_indices", recording)
    X, y, _ = small_data
    points = ctx.matrix(X, y, 8).cache()
    opt = build_optimizer(
        "sgd", ctx, points, LeastSquaresProblem(X, y), InvSqrtDecay(0.5),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    )
    opt.fault_plan = parse_fault_plan("kill:w1@20ms")
    result = opt.run()

    assert result.extras["lost_tasks"] == 2
    redrawn = {key: seen for key, seen in draws.items() if len(seen) > 1}
    assert len(redrawn) == 2  # worker 1's two partitions, drawn twice each
    for lost, retried in redrawn.values():
        assert lost == retried


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
    X = sparse.random(64, 16, density=0.2, format="csr", random_state=0)
    y = np.zeros(64)
    blocks = split_matrix(X, y, 4)
    assert all(type(b.X) is Csr for b in blocks)
    # Views of the adopted arrays, not copies.
    assert all(np.shares_memory(b.X.data, X.data) for b in blocks)


@pytest.mark.parametrize("fmt", ["coo", "csc"])
def test_other_sparse_formats_are_a_typed_error(fmt):
    """Adoption is by duck type and never imports scipy; only CSR is
    adopted, and the error says how to get there."""
    X = sparse.random(8, 4, density=0.5, format=fmt, random_state=0)
    with pytest.raises(DataError, match=r"\.tocsr\(\)"):
        split_matrix(X, np.zeros(8), 2)
    with pytest.raises(DataError, match=r"\.tocsr\(\)"):
        MatrixBlock(X=X, y=np.zeros(8))


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
    assert type(sx) is Csr and sx.shape == X.shape
    assert sx.indptr.dtype == X.indptr.dtype  # narrowed, as scipy does
    # Same values in the same within-row storage order, not just equal
    # as matrices.
    assert np.array_equal(sx.data, X.data)
    assert np.array_equal(sx.indices, X.indices)
    assert np.array_equal(sx.indptr, X.indptr)
    assert np.array_equal(sy, y)
    for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        assert (to_scipy(sx)[lo:hi] != to_scipy(block.X)).nnz == 0


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


def assert_same_csr(rows: Csr, ref: sparse.csr_matrix):
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
    ref_X = to_scipy(block.X)[idx]
    ref = MatrixBlock(X=ref_X, y=block.y[idx], ids=idx)
    assert type(sub.X) is Csr and sub.is_sparse
    assert_same_csr(sub.X, ref_X)
    assert np.array_equal(sub.y, ref.y) and np.array_equal(sub.ids, idx)
    assert (sub.rows, sub.dim, sub.nnz) == (ref.rows, ref.dim, ref.nnz)
    assert sub.cost_units() == ref.cost_units()
    assert sub.cost_units(3) == ref.cost_units(3)
    assert sizeof_bytes(sub.X) == sizeof_bytes(ref_X)
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
    assert_same_csr(subsub.X, to_scipy(block.X)[idx][again])
    assert np.array_equal(subsub.y, block.y[idx][again])


def test_sparse_take_rows_on_a_shared_memory_attachment():
    """``data/shm.py`` hands out a ``Csr`` over read-only mapped buffers."""
    from repro.data import shm

    pub = shm.publish_dataset("tiny_sparse", 0)
    if pub is None:
        pytest.skip("shared memory unavailable on this host")
    try:
        X, y, _ = shm.attach_dataset(pub.manifest)
        block = split_matrix(X, y, 4)[2]
        idx = np.array([5, 0, 5, block.rows - 1, -2], dtype=np.intp)
        sub = block.take_rows(idx)
        assert_same_csr(sub.X, to_scipy(block.X)[idx])
        assert sub.X.data.flags.writeable  # a gather, not a view of the map
        del X, y, block
    finally:
        shm.detach_all()
        shm.set_active_manifests(None)
        pub.unlink()


@settings(max_examples=100, deadline=None)
@given(csr_block_and_idx(), st.integers(0, 2**32 - 1))
def test_csr_rows_supports_the_operators_kernels_use(case, seed):
    """A map kernel or registered Problem written against scipy blocks
    (``X @ w``, ``X.T @ r``) gets scipy's bits from a ``Csr``; anything
    but a vector is an error, never a silent broadcast."""
    block, idx = case
    rng = np.random.default_rng(seed)
    w, r = rng.standard_normal(block.dim), rng.standard_normal(len(idx))
    rows, ref = block.take_rows(idx).X, to_scipy(block.X)[idx]
    assert type(rows) is Csr
    assert np.array_equal(rows @ w, ref @ w)
    assert rows.T.shape == ref.T.shape
    assert np.array_equal(rows.T @ r, ref.T @ r)
    with pytest.raises(DataError):
        rows @ rng.standard_normal((block.dim, 2))
    with pytest.raises(DataError):
        rows.T @ np.outer(r, [1.0, 2.0])


# -- one sparse form: scipy's bits on both sides of the old 4096 boundary ----

def gathered_batch(nnz: int, seed: int = 0):
    """A scipy CSR source (1-99 nonzeros per row) and an unsorted row
    subset of it that gathers exactly ``nnz`` nonzeros."""
    rng = np.random.default_rng(seed)
    n, d = 1500, 1000
    lens = rng.integers(1, 100, size=n)
    idx = rng.permutation(n)
    cum = np.cumsum(lens[idx])
    k = int(np.searchsorted(cum, nnz))
    lens[idx[k]] -= cum[k] - nnz  # the last row brings the total to nnz
    indptr = np.concatenate([[0], np.cumsum(lens)])
    cols = [np.sort(rng.choice(d, size=m, replace=False)) for m in lens]
    X = sparse.csr_matrix(
        (rng.standard_normal(indptr[-1]), np.concatenate(cols), indptr),
        shape=(n, d),
    )
    return X, idx[: k + 1]


def _logistic_coef(m, y):
    return -y / (1.0 + np.exp(y * m))


@pytest.mark.parametrize("case", ["64", "4096", "4097", "50000", "rcv1_like"])
def test_csr_products_equal_scipy_across_the_old_boundary(case):
    """``take_rows``, ``matvec``, ``rmatvec``, ``grouped_products`` and the
    least-squares ``gram`` have scipy's bits, for a gather of 64, 4096,
    4097 or 50,000 nonzeros (the array path used to stop at 4096) and for
    the whole source matrix it came from."""
    from repro.data.registry import get_dataset

    if case == "rcv1_like":
        X = to_scipy(get_dataset("rcv1_like", seed=0)[0])
        idx = np.random.default_rng(0).permutation(X.shape[0])
    else:
        X, idx = gathered_batch(int(case))
    block = MatrixBlock(X=X, y=np.zeros(X.shape[0]))
    sub = block.take_rows(idx).X
    assert_same_csr(sub, X[idx])
    assert case == "rcv1_like" or sub.nnz == int(case)
    rng = np.random.default_rng(1)
    for C, S in ((sub, X[idx]), (block.X, X)):
        m, d = S.shape
        w, r = rng.standard_normal(d), rng.standard_normal(m)
        assert np.array_equal(matvec(C, w), S @ w)
        assert np.array_equal(rmatvec(C, r), S.T @ r)
        assert np.array_equal(gram(C), (S.T @ S).toarray())
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        group = rng.integers(0, 3, size=m)
        ws = [rng.standard_normal(d) for _ in range(3)]
        for link in (np.subtract, _logistic_coef):
            got = grouped_products(C, y, ws, group, link)
            for g, wg in enumerate(ws):
                rows = np.flatnonzero(group == g)
                Sg = S[rows]
                want = Sg.T @ link(Sg @ wg, y[rows])
                assert np.array_equal(got[g], want)


# -- gram: bounded row chunks, the one-pass bits -------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 100, 1 << 14])
def test_gram_chunks_keep_scipys_bits(monkeypatch, chunk):
    """Rows of 0-99 nonzeros, some with more pairs than a chunk holds:
    whatever the chunk size, every key adds its products row by row."""
    from repro.data import blocks

    monkeypatch.setattr(blocks, "_GRAM_CHUNK_PAIRS", chunk)
    rng = np.random.default_rng(chunk)
    n, d = 300, 120
    lens = rng.integers(0, 100, size=n)
    lens[:3] = 0
    indptr = np.concatenate([[0], np.cumsum(lens)])
    cols = [np.sort(rng.choice(d, size=m, replace=False)) for m in lens]
    S = sparse.csr_matrix(
        (rng.standard_normal(indptr[-1]), np.concatenate(cols), indptr),
        shape=(n, d),
    )
    C = MatrixBlock(X=S, y=np.zeros(n)).X
    assert np.array_equal(gram(C), (S.T @ S).toarray())


def test_gram_transient_is_bounded_on_rcv1_like():
    """``rcv1_like`` (8192 rows of 5 nonzeros) has 204,800 entry pairs.
    Forming them all at once took 8.4 MB of temporaries for a 0.5 MB
    result; a chunk of rows at a time takes about 1 MB."""
    from repro.data.registry import get_dataset

    X = get_dataset("rcv1_like", seed=0)[0]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        G = gram(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before - G.nbytes < 2.5e6


# -- the streamed gradient: a row selection, one chunk at a time ---------------

#: Rows per chunk at the stream tests' width (d = 512): 64.
STREAM_D = 512
STREAM_C = STREAM_CHUNK_BYTES // (STREAM_D * 8)


def stream_problem(name, n=4 * STREAM_C, seed=0):
    from repro.optim.problems import (
        LeastSquaresProblem, LogisticRegressionProblem,
    )

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, STREAM_D))
    if name == "logistic":
        y = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        return LogisticRegressionProblem(X, y)
    return LeastSquaresProblem(X, rng.standard_normal(n))


@pytest.mark.parametrize("problem", ["least_squares", "logistic"])
@pytest.mark.parametrize(
    "size", [1, STREAM_C - 1, STREAM_C, STREAM_C + 1, 3 * STREAM_C + 5]
)
def test_streamed_grad_sum_equals_the_gathered_batch(problem, size):
    """Within one chunk the stream makes the gathered batch's calls (same
    bits); past it, chunk partials added in row order differ from one
    product over the whole batch only by rounding."""
    p = stream_problem(problem)
    idx = np.sort(np.random.default_rng(size).choice(p.n, size, replace=False))
    w = np.random.default_rng(1).standard_normal(STREAM_D) * 0.05
    streamed = p.grad_sum(p.X, p.y, w, idx)
    gathered = p.grad_sum(p.X[idx], p.y[idx], w)
    if size <= STREAM_C:
        assert np.array_equal(streamed, gathered)
    else:
        err = np.linalg.norm(streamed - gathered)
        assert err <= 1e-12 * np.linalg.norm(gathered)


@pytest.mark.parametrize(
    "idx",
    [
        [5, 3, 3, 200, 0, 5, 1],          # unsorted and repeated
        [-1, -256, 7, -1],                 # negative counts from the end
        list(range(255, -1, -2)) * 2,      # several chunks, descending, twice
        [],                                # empty: zeros
    ],
    ids=["unsorted-repeated", "negative", "chunks-descending-twice", "empty"],
)
def test_stream_indexes_rows_as_fancy_indexing_does(idx):
    p = stream_problem("least_squares")
    idx = np.array(idx, dtype=np.intp)
    w = np.random.default_rng(2).standard_normal(STREAM_D)
    got = selected_products(p.X, p.y, w, idx, np.subtract)
    rows = p.X[idx]
    want = rows.T @ (rows @ w - p.y[idx])
    assert got.shape == (STREAM_D,)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("bad", [256, -257, 10_000])
def test_stream_out_of_range_index_raises(bad):
    p = stream_problem("least_squares")
    idx = np.arange(3 * STREAM_C, dtype=np.intp) % p.n
    idx[-1] = bad  # in the last chunk: nothing before it masks the error
    with pytest.raises(IndexError):
        p.grad_sum(p.X, p.y, np.zeros(STREAM_D), idx)


def test_csr_selection_gathers_and_multiplies_as_take_rows_does():
    from repro.optim.problems import LeastSquaresProblem

    X = sparse.random(300, 40, density=0.1, format="csr", random_state=3)
    y = np.random.default_rng(3).standard_normal(300)
    block = MatrixBlock(X=X, y=y)
    problem = LeastSquaresProblem(block.X, y)
    idx = np.sort(np.random.default_rng(4).choice(300, 150, replace=False))
    w = np.random.default_rng(5).standard_normal(40)
    sub = block.take_rows(idx)
    assert np.array_equal(
        problem.grad_sum(block.X, y, w, idx), problem.grad_sum(sub.X, sub.y, w)
    )


def test_streaming_a_wide_batch_allocates_about_one_chunk():
    """A 512-row batch at d = 512 is 2 MiB gathered; streamed, its
    transient stays under two chunks (one chunk and a few vectors)."""
    p = stream_problem("least_squares", n=1024)
    idx = np.sort(np.random.default_rng(0).choice(1024, 512, replace=False))
    w = np.zeros(STREAM_D)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = p.grad_sum(p.X, p.y, w, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before - g.nbytes < 2 * STREAM_CHUNK_BYTES


def test_batch_reports_the_gathered_batch_cost_without_gathering():
    dense = make_block(50, 4)
    csr = MatrixBlock(
        X=sparse.random(80, 30, density=0.2, format="csr", random_state=1),
        y=np.zeros(80),
    )
    for block in (dense, csr):
        idx = np.array([3, 1, 1, 40, 7])
        batch = Batch(block, idx)
        assert batch.rows == 5
        assert batch.cost_units() == block.take_rows(idx).cost_units()


#: Final ``w``'s sha1 and ``F(w)`` of STREAMED_SPEC, recorded at
#: TRAJECTORY_EPOCH 3. Its batches are 512 rows at d = 512, eight chunks
#: each, so this pin moves with STREAM_CHUNK_BYTES. (Epoch 2, one product
#: per gathered batch, ended at sha1 694e2762…, F = 2.3892654557609854.)
STREAMED_SPEC = {
    "algorithm": "asgd",
    "dataset": {"name": "epsilon_like", "n": 2048, "d": 512},
    "problem": "least_squares",
    "num_workers": 2, "num_partitions": 2, "batch_fraction": 0.5,
    "max_updates": 40, "eval_every": 20, "seed": 0,
}
STREAMED_DIGEST = (
    "198e58d9c3680d589fbbca44fec12db281f6d13f", 2.389265455760986,
)


def test_multi_chunk_asgd_trajectory_pinned():
    import hashlib

    from repro.api.runner import prepare_experiment

    prep = prepare_experiment(STREAMED_SPEC)
    rows = prep.X.shape[0] // prep.num_partitions
    assert rows * STREAMED_SPEC["batch_fraction"] == 8 * STREAM_C
    w = np.ascontiguousarray(prep.execute().w)
    got = (hashlib.sha1(w.tobytes()).hexdigest(), prep.problem.objective(w))
    assert got == STREAMED_DIGEST
