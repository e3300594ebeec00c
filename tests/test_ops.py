"""ASYNC RDD verbs: barrier lineage, worker-local reduction semantics."""

import pytest

from repro.core import ASP, BSP, ASYNCContext
from repro.core.ops import BarrierRDD, async_barrier, find_barrier


def test_barrier_is_identity_transformation(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(10), 2)
    gated = rdd.async_barrier(ASP(), ac.stat)
    assert isinstance(gated, BarrierRDD)
    assert gated.collect() == list(range(10))


def test_barrier_preserves_matrix_flag(ctx, small_data):
    X, y, _ = small_data
    ac = ASYNCContext(ctx)
    pts = ctx.matrix(X, y, 4)
    gated = pts.async_barrier(ASP(), ac.stat)
    assert gated.is_matrix_like
    sampled = gated.sample(0.5, seed=0)
    blocks = sampled.collect()
    assert all(b.rows == 32 for b in blocks)


def test_find_barrier_walks_lineage(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(4), 2)
    policy = BSP()
    chain = (
        async_barrier(rdd, policy, ac.stat)
        .map(lambda x: x)
        .map(lambda x: x)
    )
    assert find_barrier(chain) is policy
    assert find_barrier(rdd) is None


def test_nearest_barrier_wins(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(4), 2)
    outer = ASP()
    inner = BSP()
    chain = async_barrier(
        async_barrier(rdd, inner, ac.stat).map(lambda x: x), outer, ac.stat
    )
    assert find_barrier(chain) is outer


def test_worker_local_reduction_not_global(ctx):
    """ASYNCreduce combines per worker only — the Glint limitation the
    paper fixes. With 4 workers we must see 4 partial results, not 1."""
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(16), 8)
    rdd.async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    partials = [r.value for r in ac.drain()]
    assert len(partials) == 4
    assert sum(partials) == sum(range(16))


def test_reduce_with_noncommutative_order_within_worker(ctx):
    """Elements reduce in partition order on each worker."""
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize([["a"], ["b"], ["c"], ["d"]], 4)
    rdd.async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    got = sorted(tuple(r.value) for r in ac.drain())
    assert got == [("a",), ("b",), ("c",), ("d",)]


def test_empty_worker_partition_returns_none_zero(ctx):
    ac = ASYNCContext(ctx)
    # 2 partitions over 4 workers: workers 2,3 own nothing -> no tasks.
    rdd = ctx.parallelize(range(4), 2)
    workers = rdd.async_reduce(lambda a, b: a + b, ac)
    assert set(workers) == {0, 1}
    ac.wait_all()
    assert len(ac.drain()) == 2


def test_rdd_methods_delegate(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(6), 3)
    rdd.async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    assert len(ac.drain()) == 3
    rdd.async_aggregate(0, lambda a, x: a + x, lambda a, b: a + b, ac)
    ac.wait_all()
    assert len(ac.drain()) == 3
