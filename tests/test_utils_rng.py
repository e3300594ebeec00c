"""RNG factory: determinism, independence, stable hashing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import (
    RngFactory,
    spawn_generator,
    stable_hash,
    stable_hash_append,
)


def test_same_key_same_stream():
    a = spawn_generator(42, "worker", 3)
    b = spawn_generator(42, "worker", 3)
    assert np.array_equal(a.random(16), b.random(16))


def test_different_key_different_stream():
    a = spawn_generator(42, "worker", 3)
    b = spawn_generator(42, "worker", 4)
    assert not np.array_equal(a.random(16), b.random(16))


def test_different_seed_different_stream():
    a = spawn_generator(1, "x")
    b = spawn_generator(2, "x")
    assert not np.array_equal(a.random(16), b.random(16))


def test_factory_get_is_deterministic():
    f1 = RngFactory(9)
    f2 = RngFactory(9)
    assert f1.get("a", 1).integers(0, 1 << 30) == f2.get("a", 1).integers(
        0, 1 << 30
    )


def test_factory_child_independent_of_parent():
    f = RngFactory(9)
    child = f.child("sub")
    assert child.seed != f.seed
    a = f.get("k").random(8)
    b = child.get("k").random(8)
    assert not np.array_equal(a, b)


def test_factory_rejects_non_int_seed():
    with pytest.raises(TypeError):
        RngFactory("nope")  # type: ignore[arg-type]


def test_stable_hash_is_stable_across_calls():
    key = ("worker", 5, "task", 17)
    assert stable_hash(key) == stable_hash(key)


def test_stable_hash_differs_on_order():
    assert stable_hash(("a", "b")) != stable_hash(("b", "a"))


def test_stable_hash_distinguishes_string_from_int():
    assert stable_hash((1,)) != stable_hash(("1",))


@given(st.integers(min_value=0, max_value=2**31), st.integers(0, 100))
def test_stable_hash_range(seed, k):
    h = stable_hash((seed, k))
    assert 0 <= h < 2**63


@given(
    st.integers(0, 2**63), st.text(max_size=12),
    st.one_of(st.integers(), st.text(max_size=6), st.floats()),
)
def test_stable_hash_append_is_the_stable_hash_of_the_whole_key(seed, name, part):
    assert stable_hash_append((seed, name), part) == stable_hash((seed, name, part))


def test_stable_hash_append_keeps_equal_prefixes_of_other_types_apart():
    """``1 == np.int64(1) == 1.0``, but their reprs — and so their hashes —
    differ; the memoised prefix must not mix them up."""
    for prefix in [(1, "x"), (np.int64(1), "x"), (1.0, "x"), (True, "x")]:
        for i in range(3):
            assert stable_hash_append(prefix, i) == stable_hash((*prefix, i))
    # An unhashable prefix part cannot be memoised but still hashes.
    assert stable_hash_append(([1], "x"), 5) == stable_hash(([1], "x", 5))


@given(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True),
)
def test_spawn_streams_differ_for_distinct_keys(keys):
    if len(keys) < 2:
        return
    streams = [spawn_generator(0, k).random(8) for k in keys]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])
