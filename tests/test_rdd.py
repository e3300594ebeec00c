"""RDD semantics: transformations, actions, caching, Spark parity."""

import pytest

from repro.core import ASYNCContext
from repro.engine.rdd import RDD
from repro.errors import EngineError


def test_parallelize_collect_roundtrip(ctx):
    data = list(range(57))
    assert ctx.parallelize(data, 7).collect() == data


def test_partition_sizes_balanced(ctx):
    rdd = ctx.parallelize(range(10), 3)
    sizes = [len(p) for p in ctx.run_job(rdd, lambda i, d: d)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_map(ctx):
    assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [
        10, 20, 30,
    ]


def test_chained_transformations_lazy(ctx):
    calls = []

    def probe(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize([1, 2, 3], 1).map(probe)
    assert calls == []  # nothing computed yet
    rdd.collect()
    assert calls == [1, 2, 3]


def test_aggregate_with_distinct_partial_type(ctx):
    ac = ASYNCContext(ctx)
    rdd = ctx.parallelize(range(10), 3)
    # aggregate: int elements fold into (sum, count) partials
    rdd.async_aggregate(
        (0, 0),
        lambda acc, x: (acc[0] + x, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        ac,
    )
    ac.wait_all()
    partials = [record.value for record in ac.drain()]
    assert tuple(map(sum, zip(*partials))) == (45, 10)


def test_count_sum(ctx):
    """``async_reduce`` counts every element once and sums them all."""
    ac = ASYNCContext(ctx)
    ctx.parallelize(range(17), 4).async_reduce(lambda a, b: a + b, ac)
    ac.wait_all()
    records = ac.drain()
    assert sum(record.batch_size for record in records) == 17
    assert sum(record.value for record in records) == sum(range(17))


def test_sample_without_replacement_subset(ctx):
    rdd = ctx.parallelize(range(100), 4)
    out = rdd.sample(0.5, seed=3).collect()
    # Fixed-size per partition, subject to per-partition rounding.
    assert abs(len(out) - 50) <= 4
    assert len(set(out)) == len(out)
    assert set(out) <= set(range(100))


def test_sample_deterministic_per_seed(ctx):
    rdd = ctx.parallelize(range(60), 3)
    a = rdd.sample(0.3, seed=1).collect()
    b = rdd.sample(0.3, seed=1).collect()  # same seed -> same rows
    c = rdd.sample(0.3, seed=2).collect()
    assert a == b
    assert a != c


def test_sample_fraction_validated(ctx):
    with pytest.raises(EngineError):
        ctx.parallelize(range(10), 2).sample(0.0)


def test_cache_computes_once(ctx):
    calls = []

    def probe(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize(range(8), 2).map(probe).cache()
    rdd.collect()
    rdd.collect()
    assert len(calls) == 8  # second collect served from worker cache


def test_root_rdd_requires_partitions(ctx):
    with pytest.raises(EngineError):
        RDD(ctx)  # no deps, no partition count


def test_rdd_repr_and_ids(ctx):
    a = ctx.parallelize(range(4), 2)
    b = a.map(lambda x: x)
    assert a.rdd_id != b.rdd_id
    assert "partitions=2" in repr(a)
