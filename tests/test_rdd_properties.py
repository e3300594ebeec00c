"""Property-based tests: RDD results must equal plain-Python semantics.

The engine distributes and recombines; hypothesis checks that for
arbitrary inputs and partition counts the observable behaviour matches
the sequential reference exactly. A module-scoped cluster is reused
across examples (the engine is stateless between jobs).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ASYNCContext
from repro.engine.context import ClusterContext

ints = st.lists(st.integers(-1000, 1000), min_size=0, max_size=60)
small_parts = st.integers(1, 8)

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def mctx():
    with ClusterContext(num_workers=3) as ctx:
        yield ctx


@common_settings
@given(data=ints, parts=small_parts)
def test_collect_preserves_order(mctx, data, parts):
    assert mctx.parallelize(data, parts).collect() == data


@common_settings
@given(data=ints, parts=small_parts)
def test_map_matches_builtin(mctx, data, parts):
    got = mctx.parallelize(data, parts).map(lambda x: x * 3 - 1).collect()
    assert got == [x * 3 - 1 for x in data]


def async_records(mctx, submit):
    """Run one ASYNC round over ``mctx`` and return its result records."""
    ac = ASYNCContext(mctx)
    submit(ac)
    ac.wait_all()
    return ac.drain()


@common_settings
@given(data=ints, parts=small_parts)
def test_sum_matches(mctx, data, parts):
    records = async_records(mctx, lambda ac: mctx.parallelize(
        data, parts).async_reduce(lambda a, b: a + b, ac))
    assert sum(r.value for r in records if r.value is not None) == sum(data)


@common_settings
@given(data=ints, parts=small_parts)
def test_count_matches(mctx, data, parts):
    records = async_records(mctx, lambda ac: mctx.parallelize(
        data, parts).async_reduce(lambda a, b: a + b, ac, "partition"))
    assert sorted(r.partition for r in records) == list(range(parts))
    assert sum(r.batch_size for r in records) == len(data)


@common_settings
@given(
    data=st.lists(st.integers(0, 10**6), min_size=1, max_size=50),
    parts=small_parts,
    fraction=st.floats(0.05, 1.0),
)
def test_sample_is_subset_with_expected_size(mctx, data, parts, fraction):
    from collections import Counter

    rdd = mctx.parallelize(data, parts)
    out = rdd.sample(fraction, seed=7).collect()
    counts = Counter(data)
    out_counts = Counter(out)
    for k, v in out_counts.items():
        assert v <= counts[k]
    assert 0 < len(out) <= len(data)


@common_settings
@given(data=ints, parts=small_parts)
def test_aggregate_mean_matches(mctx, data, parts):
    records = async_records(mctx, lambda ac: mctx.parallelize(
        data, parts).async_aggregate(
        (0, 0),
        lambda acc, x: (acc[0] + x, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        ac,
    ))
    total, count = map(sum, zip(*(r.value for r in records)))
    assert total == sum(data)
    assert count == len(data)
