"""The HIST subsystem: retention, byte accounting, immutability, store."""

import base64
import json

import numpy as np
import pytest

from repro.cluster.threadbackend import ThreadBackend
from repro.core import ASYNCContext
from repro.core.history import HistoryChannel, HistoryStore, RetentionPolicy
from repro.engine.context import ClusterContext
from repro.errors import BroadcastError, HistoryError


# -- retention policies ----------------------------------------------------------------
def test_retention_parse_spellings():
    assert RetentionPolicy.parse(None).kind == "all"
    assert RetentionPolicy.parse("all").describe() == "all"
    last = RetentionPolicy.parse("last:4")
    assert (last.kind, last.bound) == ("last", 4.0)
    win = RetentionPolicy.parse("window:250")
    assert (win.kind, win.bound) == ("window", 250.0)
    assert RetentionPolicy.parse(last) is last  # pass-through
    assert not RetentionPolicy.parse("all").bounded
    assert RetentionPolicy.parse("last:1").bounded


@pytest.mark.parametrize("bad", [
    "lru", "last", "last:0", "last:x", "window", "window:-5", "all:3", 42,
])
def test_retention_parse_rejects(bad):
    with pytest.raises(HistoryError):
        RetentionPolicy.parse(bad)


# -- eviction --------------------------------------------------------------------------
def test_last_k_evicts_oldest():
    ch = HistoryChannel(0, "m", keep="last:3")
    for i in range(6):
        assert ch.append(np.full(4, float(i))) == i
    assert ch.versions() == [3, 4, 5]
    assert len(ch) == 3
    assert np.array_equal(ch.latest(), np.full(4, 5.0))
    with pytest.raises(BroadcastError):
        ch.get(0)
    # Evicted versions never come back; ids keep counting.
    assert ch.append(np.zeros(4)) == 6
    assert ch.versions() == [4, 5, 6]


def test_window_ms_evicts_by_clock():
    t = {"now": 0.0}
    ch = HistoryChannel(0, "m", keep="window:100", clock=lambda: t["now"])
    ch.append(np.zeros(2))          # t=0
    t["now"] = 50.0
    ch.append(np.ones(2))           # t=50
    t["now"] = 120.0
    ch.append(np.full(2, 2.0))      # t=120: v0 (t=0 < 20) evicted
    assert ch.versions() == [1, 2]
    t["now"] = 500.0
    ch.append(np.full(2, 3.0))      # everything but the newest too old
    assert ch.versions() == [3]


def test_window_never_evicts_newest():
    ch = HistoryChannel(0, "m", keep="window:1")
    # Zero clock: every version is instantly "old", yet the newest stays.
    ch.append(np.zeros(2), timestamp_ms=0.0)
    ch.append(np.ones(2), timestamp_ms=1000.0)
    assert ch.versions() == [1]
    assert np.array_equal(ch.latest(), np.ones(2))


# -- byte accounting -------------------------------------------------------------------
def test_byte_accounting_monotone_under_eviction():
    ch = HistoryChannel(0, "m", keep="last:2")
    appended, evicted = [], []
    for i in range(8):
        ch.append(np.full(16, float(i)))
        appended.append(ch.appended_bytes)
        evicted.append(ch.evicted_bytes)
        # Invariant: stored = appended - evicted, always non-negative.
        assert ch.total_stored_bytes == ch.appended_bytes - ch.evicted_bytes
        assert ch.total_stored_bytes >= 0
    # Lifetime counters are monotone non-decreasing.
    assert appended == sorted(appended)
    assert evicted == sorted(evicted)
    # Bounded channel: the footprint stops growing once the bound binds.
    assert ch.total_stored_bytes == ch.nbytes(6) + ch.nbytes(7)
    assert ch.evicted_versions == 6


def test_prune_below_still_available():
    ch = HistoryChannel(0, "m")
    for i in range(5):
        ch.append(np.full(8, float(i)))
    before = ch.total_stored_bytes
    freed = ch.prune_below(3)
    assert freed > 0
    assert ch.total_stored_bytes == before - freed
    assert ch.versions() == [3, 4]
    assert ch.evicted_bytes == freed
    assert ch.appended_bytes == before  # lifetime counter untouched


# -- store -----------------------------------------------------------------------------
def test_store_channels_named_and_counted():
    store = HistoryStore()
    a = store.channel("a", keep="last:2")
    b = store.channel("b")
    assert store.channel("a") is a  # same policy not required on re-open
    assert a.channel_id != b.channel_id
    assert store.names() == ["a", "b"]
    assert "a" in store and "c" not in store
    a.append(np.zeros(4))
    b.append(np.zeros(8))
    assert store.total_stored_bytes == (
        a.total_stored_bytes + b.total_stored_bytes
    )
    acct = store.accounting()
    assert acct["a"]["keep"] == "last:2"
    assert acct["b"]["versions"] == 1
    assert acct["a"]["stored_bytes"] == a.total_stored_bytes


def test_store_rejects_conflicting_retention():
    store = HistoryStore()
    store.channel("a", keep="last:2")
    with pytest.raises(HistoryError, match="already exists"):
        store.channel("a", keep="last:3")
    # Re-opening with the identical policy is fine.
    store.channel("a", keep="last:2")


def test_store_snapshot_restore_roundtrip():
    store = HistoryStore()
    ch = store.channel("pairs", keep="last:2")
    ch.append((np.arange(3.0), np.ones(3), 0.5))
    ch.append((np.zeros(3), np.full(3, 2.0), 0.25))
    unbounded = store.channel("model")
    unbounded.append(np.arange(4.0))

    snap = store.snapshot(bounded_only=True)
    # JSON-safe end to end (this is what rides the sweep checkpoint).
    snap = json.loads(json.dumps(snap))
    assert "values" in snap["pairs"]
    assert "values" not in snap["model"]  # unbounded: metadata only
    assert snap["model"]["accounting"]["versions"] == 1

    fresh = HistoryStore()
    fresh.restore(snap)
    got = fresh.channel("pairs")
    assert got.keep.describe() == "last:2"
    assert got.versions() == [0, 1]
    s, y, rho = got.get(1)
    assert np.array_equal(s, np.zeros(3)) and rho == 0.25
    # Version numbering continues where the original left off.
    assert got.append((np.ones(3), np.ones(3), 1.0)) == 2
    # The metadata-only channel was skipped, not half-restored.
    assert "model" not in fresh


def _pairs_channel_snapshot():
    ch = HistoryChannel(0, "pairs", keep="last:2")
    s = np.array([-0.0, np.inf, 5e-324])
    y = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    ch.append((s, y, 0.5))
    ch.append((s * 2, y, 0.25))
    return json.loads(json.dumps(ch.snapshot())), (s, y)


def test_channel_snapshot_carries_array_bits():
    snap, (s, y) = _pairs_channel_snapshot()
    got = HistoryChannel(1, "pairs", keep="last:2")
    got.restore(snap)
    s0, y0, rho = got.get(0)
    assert s0.tobytes() == s.tobytes() and y0.tobytes() == y.tobytes()
    assert rho == 0.5 and not s0.flags.writeable  # frozen again
    assert got.accounting() == snap["accounting"]


def test_channel_restores_list_form_snapshot():
    """Channel snapshots written with ``tolist()`` arrays (earlier
    versions) restore to the same values."""
    snap, (s, y) = _pairs_channel_snapshot()
    for value in snap["values"].values():
        for leaf in value[:2]:
            arr = np.frombuffer(base64.b64decode(leaf["__ndarray__"]), "<f8")
            leaf.update(__ndarray__=arr.tolist(), dtype="float64")
    got = HistoryChannel(1, "pairs", keep="last:2")
    got.restore(snap)
    s1, y1, rho = got.get(1)
    assert s1.tobytes() == (s * 2).tobytes() and y1.tobytes() == y.tobytes()
    assert rho == 0.25


def test_restore_rejects_conflicting_retention():
    """A live channel's configured policy is authoritative: restoring a
    snapshot captured under a different bound fails loudly instead of
    silently widening (or shrinking) the channel's history."""
    deep = HistoryStore()
    ch = deep.channel("pairs", keep="last:8")
    for i in range(6):
        ch.append(np.full(2, float(i)))
    snap = deep.snapshot()

    shallow = HistoryStore()
    shallow.channel("pairs", keep="last:2")  # reconfigured run
    with pytest.raises(HistoryError, match="already exists|conflicts"):
        shallow.restore(snap)
    # Channel-level restore enforces the same contract.
    with pytest.raises(HistoryError, match="conflicts"):
        HistoryChannel(0, "pairs", keep="last:2").restore(snap["pairs"])


def test_window_channel_without_clock_rejects_implicit_stamps():
    ch = HistoryChannel(0, "m", keep="window:100")
    with pytest.raises(HistoryError, match="no.*clock|clock"):
        ch.append(np.zeros(2))
    # Explicit timestamps remain a valid clockless usage (and the
    # rejected append consumed no version id).
    assert ch.append(np.zeros(2), timestamp_ms=5.0) == 0
    # Count-based retention never needs a clock.
    HistoryChannel(1, "n", keep="last:2").append(np.zeros(2))


def test_freeze_leaves_lists_untouched():
    """The broadcaster's historical contract: list payloads round-trip
    as the same object (only ndarrays and tuples freeze)."""
    store = HistoryStore()
    ch = store.channel("l")
    payload = [1, 2, 3]
    ch.append(payload)
    assert ch.latest() is payload


def test_restore_of_valueless_channel_snapshot_raises():
    ch = HistoryChannel(0, "m")
    ch.append(np.zeros(2))
    snap = ch.snapshot(include_values=False)
    with pytest.raises(HistoryError, match="no.*values|carries no"):
        HistoryChannel(1, "m2").restore(snap)


# -- immutability across both backends -------------------------------------------------
def _frozen_read_through(ctx):
    ac = ASYNCContext(ctx)
    ch = ac.history.channel("m", keep="last:4")
    src = np.arange(8.0)
    ch.append(src)
    stored = ch.latest()
    with pytest.raises(ValueError):
        stored[0] = 99.0
    # Frozen storage is a view: the writer's own copy stays writable,
    # and what was stored is insulated from later writer mutation only
    # through the handle discipline (broadcast paths copy).
    hb = ac.async_broadcast(np.zeros(4), channel="w")
    for env_id in ctx.backend.worker_ids():
        env = ctx.backend.worker_env(env_id)
        v = hb.value(env)
        with pytest.raises(ValueError):
            v[0] = 1.0
    # Container values freeze elementwise.
    pair_ch = ac.history.channel("pairs", keep="last:2")
    pair_ch.append((np.ones(3), np.zeros(3), 0.5))
    s, y, rho = pair_ch.latest()
    with pytest.raises(ValueError):
        s[0] = 7.0


def test_frozen_values_sim_backend(ctx):
    _frozen_read_through(ctx)


def test_frozen_values_thread_backend():
    backend = ThreadBackend(num_workers=2)
    with ClusterContext(2, backend=backend, seed=0) as tctx:
        _frozen_read_through(tctx)


def test_window_retention_uses_cluster_clock(ctx):
    """The ASYNCContext store stamps appends with simulated time."""
    ac = ASYNCContext(ctx)
    ch = ac.history.channel("w", keep="window:1e9")
    v = ch.append(np.zeros(2))
    assert ch.timestamp_ms(v) == ctx.now()


# -- the broadcaster is a view over the store ------------------------------------------
def test_broadcaster_channels_live_in_coordinator_store(ctx):
    ac = ASYNCContext(ctx)
    hb = ac.async_broadcast(np.arange(4.0), channel="model")
    assert "model" in ac.history
    assert ac.history.channel("model").get(hb.version) is hb.value()
    assert ac.broadcaster.store is ac.history
    assert ac.history is ac.coordinator.history
    # Byte accounting covers broadcast history.
    assert ac.history.accounting()["model"]["stored_bytes"] > 0
