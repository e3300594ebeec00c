"""RNG factory: determinism, independence, stable hashing; the
mini-batch draw."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import (
    RngFactory,
    batch_indices,
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


# ---------------------------------------------------------------------------
# The mini-batch draw
# ---------------------------------------------------------------------------

@given(
    st.integers(0, 300), st.floats(0.001, 1.0), st.integers(0, 2**63 - 1),
    st.integers(0, 64),
)
def test_batch_is_sized_distinct_sorted_and_in_range(rows, fraction, seed, split):
    idx = batch_indices(rows, fraction, seed, "mbatch", split)
    assert idx.size == (max(1, int(round(fraction * rows))) if rows else 0)
    assert np.all(np.diff(idx) > 0)  # sorted and distinct
    assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < rows)
    assert np.array_equal(batch_indices(rows, 1.0, seed, "mbatch", split),
                          np.arange(rows))


_DRAW = (
    "from repro.utils.rng import batch_indices; "
    "print(batch_indices(128, 0.25, 12345, 'mbatch', 3).tolist())"
)


def test_batch_is_equal_across_processes_with_different_hash_seeds():
    """String key parts go through blake2b, not the salted ``hash()``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    here = str(batch_indices(128, 0.25, 12345, "mbatch", 3).tolist())
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _DRAW], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        assert out == here


def test_int_and_numpy_int_seeds_draw_equal_batches():
    for seed in (0, 7, 2**40 + 3):
        assert np.array_equal(
            batch_indices(64, 0.25, seed, "mbatch", 1),
            batch_indices(64, 0.25, np.int64(seed), "mbatch", 1),
        )
    # The key still separates streams.
    assert not np.array_equal(batch_indices(64, 0.25, 7, "mbatch", 1),
                              batch_indices(64, 0.25, 7, "mbatch", 2))


def test_every_row_is_included_at_rate_b_over_rows():
    """Over 4,000 seeds each row's inclusion count is within 5 sigma of
    its Binomial(4000, b/rows) mean: a uniform batch, no favoured rows."""
    rows, b, draws = 128, 32, 4000
    counts = np.zeros(rows)
    for seed in range(draws):
        counts[batch_indices(rows, b / rows, seed, "mbatch", 0)] += 1
    p = b / rows
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


def test_seed_sequences_built_per_run_do_not_grow_with_updates(monkeypatch):
    """Mini-batches draw from hash-seeded streams: an ASGD run builds the
    same number of numpy ``SeedSequence`` objects at 100 updates as at
    200 (datasets, stragglers and the like are per run, not per task)."""
    from repro.api import run_experiment

    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    counts = []
    for budget in (100, 200):
        built.clear()
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": budget, "seed": 1})
        counts.append(len(built))
    assert counts[0] == counts[1]
