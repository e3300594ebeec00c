"""ASYNCbroadcaster: versioned history, id-only re-reference, pruning.

This is the paper's core communication mechanism (Section 4.3): workers
cache every version they have seen; re-reading an old version by id is
free, and only genuine misses fetch from the server.
"""

import numpy as np
import pytest

from repro.core.broadcaster import AsyncBroadcaster
from repro.errors import BroadcastError


@pytest.fixture
def bcaster(ctx):
    return AsyncBroadcaster(ctx)


def test_versions_increment_per_channel(bcaster):
    h0 = bcaster.broadcast(np.zeros(4))
    h1 = bcaster.broadcast(np.ones(4))
    assert (h0.version, h1.version) == (0, 1)
    other = bcaster.broadcast(np.zeros(2), channel="other")
    assert other.version == 0  # independent channel


def test_driver_access_by_version(bcaster):
    bcaster.broadcast(np.zeros(4))
    h1 = bcaster.broadcast(np.ones(4))
    assert np.array_equal(h1.value(), np.ones(4))
    assert np.array_equal(h1.value_at(0), np.zeros(4))


def test_worker_first_read_fetches_then_caches(ctx, bcaster):
    h = bcaster.broadcast(np.zeros(1000))
    env = ctx.backend.worker_env(0)
    h.value(env)
    fetched = env.pending_fetch_bytes
    assert fetched >= 8000
    h.value(env)
    assert env.pending_fetch_bytes == fetched  # cached


def test_history_read_free_if_seen_before(ctx, bcaster):
    """The headline property: referencing an old version costs nothing if
    the worker used it before — no table re-broadcast."""
    env = ctx.backend.worker_env(0)
    h0 = bcaster.broadcast(np.zeros(500))
    h0.value(env)
    h1 = bcaster.broadcast(np.ones(500))
    h1.value(env)
    fetched = env.pending_fetch_bytes
    # Re-reading version 0 through the new handle: cache hit, zero bytes.
    old = h1.value_at(0, env)
    assert np.array_equal(old, np.zeros(500))
    assert env.pending_fetch_bytes == fetched


def test_history_miss_fetches_from_server(ctx, bcaster):
    env = ctx.backend.worker_env(0)
    bcaster.broadcast(np.zeros(500))
    h1 = bcaster.broadcast(np.ones(500))
    # Worker never saw version 0; reading it is a charged miss.
    h1.value_at(0, env)
    assert env.pending_fetch_bytes >= 4000


def test_caches_are_per_worker(ctx, bcaster):
    h = bcaster.broadcast(np.zeros(100))
    e0, e1 = ctx.backend.worker_env(0), ctx.backend.worker_env(1)
    h.value(e0)
    assert e0.pending_fetch_bytes > 0
    h.value(e1)
    assert e1.pending_fetch_bytes > 0  # each worker pays once


def test_values_are_frozen_ndarrays(ctx, bcaster):
    h = bcaster.broadcast(np.zeros(4))
    v = h.value(ctx.backend.worker_env(0))
    with pytest.raises(ValueError):
        v[0] = 1


def test_unknown_version_raises(bcaster):
    h = bcaster.broadcast(np.zeros(4))
    with pytest.raises(BroadcastError):
        h.value_at(99)


def test_handle_rematerialization(bcaster):
    bcaster.broadcast(np.zeros(4))
    h = bcaster.handle("model", 0)
    assert h.version == 0
    with pytest.raises(BroadcastError):
        bcaster.handle("model", 5)


def test_prune_below_frees_bytes(bcaster):
    ch = bcaster.channel("model")
    for i in range(5):
        bcaster.broadcast(np.full(100, float(i)))
    before = ch.total_stored_bytes
    freed = ch.prune_below(3)
    assert freed > 0
    assert ch.total_stored_bytes == before - freed
    assert ch.versions() == [3, 4]
    h = bcaster.handle("model", 4)
    with pytest.raises(BroadcastError):
        h.value_at(1)


def test_latest_version(bcaster):
    ch = bcaster.channel("m2")
    with pytest.raises(BroadcastError):
        ch.latest_version()
    bcaster.broadcast(np.zeros(2), channel="m2")
    bcaster.broadcast(np.zeros(2), channel="m2")
    assert ch.latest_version() == 1


def test_worker_loss_invalidates_cache_but_server_recovers(ctx, bcaster):
    env = ctx.backend.worker_env(0)
    h = bcaster.broadcast(np.arange(8.0))
    h.value(env)
    ctx.backend.kill_worker(0)  # drops the cache and the pending fetch
    ctx.backend.revive_worker(0)
    assert env.pending_fetch_bytes == 0
    got = h.value(env)  # refetch from server store
    assert np.array_equal(got, np.arange(8.0))
    assert env.pending_fetch_bytes > 0
