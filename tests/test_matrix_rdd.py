"""Matrix RDDs: block partitions, row sampling, cost reporting."""

import numpy as np
import pytest

from repro.data.blocks import MatrixBlock
from repro.engine.matrix import MatrixRDD, SampledMatrixRDD
from repro.errors import EngineError


@pytest.fixture
def Xy(rng):
    X = rng.standard_normal((64, 6))
    y = rng.standard_normal(64)
    return X, y


def test_matrix_partitions_one_block_each(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 8)
    assert pts.num_partitions == 8
    assert pts.n_rows == 64 and pts.dim == 6
    blocks = pts.collect()
    assert all(isinstance(b, MatrixBlock) for b in blocks)
    assert sum(b.rows for b in blocks) == 64


def test_matrix_is_matrix_like_flag(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    assert pts.is_matrix_like
    assert pts.sample(0.5).is_matrix_like
    assert not pts.map(lambda b: b.rows).is_matrix_like


def test_sample_subsamples_rows(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)  # 16 rows per block
    sampled = pts.sample(0.25, seed=1).collect()
    assert all(b.rows == 4 for b in sampled)
    # Sampled rows come from the source block (offsets preserved).
    for b in sampled:
        src_rows = X[b.offset : b.offset + 16]
        for row in b.X:
            assert any(np.allclose(row, s) for s in src_rows)


def test_sample_rows_tracked_by_ids(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    for b in pts.sample(0.5, seed=2).collect():
        assert b.ids is not None
        assert np.array_equal(np.sort(b.ids), b.ids)  # sorted selection
        assert np.allclose(X[b.offset + b.ids], b.X)


def test_sample_deterministic_per_seed(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    s1 = pts.sample(0.25, seed=9)
    a = [b.ids.tolist() for b in s1.collect()]
    b_ = [b.ids.tolist() for b in s1.collect()]  # same RDD recomputed
    assert a == b_
    c = [b.ids.tolist() for b in pts.sample(0.25, seed=10).collect()]
    assert a != c


def test_sample_records_cost(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    pts.sample(0.5, seed=0).map(lambda b: b.rows).collect()
    log = ctx.dispatcher.metrics_log
    # Dense block: cost units == sampled rows -> compute scales with rows.
    assert all(m.compute_ms > 0 for m in log)


def test_map_blocks_gradient_shape(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    w = np.zeros(6)
    grads = pts.map(lambda b: b.X.T @ (b.X @ w - b.y)).collect()
    total = sum(grads)
    assert np.allclose(total, X.T @ (X @ w - y))


def test_block_driver_access(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    b = pts.block(2)
    assert b.offset == 32
    assert np.allclose(b.X, X[32:48])


def test_inconsistent_dims_rejected(ctx):
    blocks = [
        MatrixBlock(X=np.zeros((4, 3)), y=np.zeros(4), block_id=0),
        MatrixBlock(X=np.zeros((4, 5)), y=np.zeros(4), block_id=1),
    ]
    with pytest.raises(EngineError):
        MatrixRDD(ctx, blocks)


def test_empty_blocks_rejected(ctx):
    with pytest.raises(EngineError):
        MatrixRDD(ctx, [])


def test_sampled_matrix_requires_blocks(ctx):
    rdd = ctx.parallelize([1, 2, 3], 1)
    bad = SampledMatrixRDD(rdd, 0.5, seed=0)
    with pytest.raises(EngineError):
        bad.collect()


def test_resampling_a_sample(ctx, Xy):
    X, y = Xy
    pts = ctx.matrix(X, y, 4)
    twice = pts.sample(0.5, seed=0).sample(0.5, seed=1).collect()
    assert all(b.rows == 4 for b in twice)
    for b in twice:
        assert np.allclose(X[b.offset + b.ids], b.X)
