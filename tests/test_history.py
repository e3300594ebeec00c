"""The HIST subsystem: retention, byte accounting, immutability, store."""

import base64
import json

import numpy as np
import pytest

from repro.core import ASYNCContext
from repro.core.history import HistoryChannel, HistoryStore, RetentionPolicy
from repro.errors import BroadcastError, HistoryError


# -- retention policies ----------------------------------------------------------------
def test_retention_parse_spellings():
    assert RetentionPolicy.parse(None).kind == "all"
    assert RetentionPolicy.parse("all").describe() == "all"
    last = RetentionPolicy.parse("last:4")
    assert (last.kind, last.bound) == ("last", 4)
    assert RetentionPolicy.parse("last:4.0") == last
    assert RetentionPolicy.parse(last) is last  # pass-through
    assert not RetentionPolicy.parse("all").bounded
    assert RetentionPolicy.parse("last:1").bounded


@pytest.mark.parametrize("bad", [
    "lru", "last", "last:0", "last:x", "window", "window:-5", "all:3", 42,
])
def test_retention_parse_rejects(bad):
    with pytest.raises(HistoryError):
        RetentionPolicy.parse(bad)


@pytest.mark.parametrize("bad", [
    "last:2.5", "last:nan", "last:inf", "last:1e400", "last:-1",
])
def test_last_k_needs_a_finite_whole_bound(bad):
    """``last:2.5`` used to keep 2 versions and then refuse to restore
    its own snapshot; ``last:nan``/``last:inf`` escaped as bare
    ``ValueError``/``OverflowError``."""
    with pytest.raises(HistoryError, match="finite whole"):
        RetentionPolicy.parse(bad)
    with pytest.raises(HistoryError, match="finite whole"):
        HistoryStore().channel("c", keep=bad)
    with pytest.raises(HistoryError, match="finite whole"):
        RetentionPolicy("last", float(bad.partition(":")[2]))


def test_window_retention_is_not_a_spelling():
    """Only ``all`` and ``last:k`` exist; a time window is a typed error."""
    with pytest.raises(HistoryError, match="'window:250'"):
        HistoryStore().channel("c", keep="window:250")


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


@pytest.mark.parametrize("keep", ["all", "last:1", "last:3"])
def test_latest_is_the_highest_stored_version(keep):
    """The newest version is tracked, not found by a scan: after appends,
    ``last:k`` eviction, ``prune_below`` and a restore,
    ``latest_version()`` equals ``max(versions())`` and ``latest()``
    reads it; an emptied channel says so."""

    def agree(ch):
        if not len(ch):
            for read in (ch.latest_version, ch.latest):
                with pytest.raises(BroadcastError, match="is empty"):
                    read()
            return
        newest = max(ch.versions())
        assert ch.latest_version() == newest
        assert ch.latest() is ch.get(newest)

    ch = HistoryChannel(0, "c", keep=keep)
    agree(ch)
    for i in range(7):
        ch.append(np.full(2, float(i)))
        agree(ch)
    ch.prune_below(5)
    agree(ch)
    restored = HistoryChannel(1, "c", keep=keep)
    restored.restore(json.loads(json.dumps(ch.snapshot())))
    agree(restored)
    for i in range(4):
        restored.append(np.full(2, 10.0 + i))
        agree(restored)
    restored.prune_below(restored.latest_version() + 1)
    agree(restored)
    restored.append(np.zeros(2))
    agree(restored)
    never_written = json.loads(json.dumps(HistoryChannel(2, "c", keep).snapshot()))
    empty = HistoryChannel(3, "c", keep=keep)
    empty.restore(never_written)
    agree(empty)


def test_restore_refuses_versions_the_channel_could_not_hold():
    """Eviction drops the one version an append expires, so a restored
    ``last:k`` channel may hold nothing older than ``next_version - k``,
    and no channel a version at or past ``next_version``."""
    ch = HistoryChannel(0, "c", keep="last:2")
    for i in range(5):
        ch.append(np.full(2, float(i)))
    snap = json.loads(json.dumps(ch.snapshot()))
    assert snap["versions"] == [3, 4] and snap["next_version"] == 5
    stale = {**snap, "values": {"0": snap["values"]["3"], **snap["values"]}}
    ahead = {**snap, "next_version": 4}
    for bad in (stale, ahead):
        got = HistoryChannel(1, "c", keep="last:2")
        got.append(np.ones(2))
        with pytest.raises(HistoryError, match="holds versions"):
            got.restore(bad)
        assert got.versions() == [0]  # left unchanged
    unbounded = HistoryChannel(2, "c", keep="all")
    with pytest.raises(HistoryError, match="holds versions"):
        unbounded.restore({**snap, "keep": "all", "next_version": 4})


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
    assert [ch.name for ch in store] == ["a", "b"]
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

    # JSON-safe end to end (this is a run snapshot's server section).
    snap = json.loads(json.dumps(store.snapshot()))
    assert "values" in snap["pairs"]
    assert "model" not in snap  # unbounded: its owner rebuilds it

    fresh = HistoryStore()
    fresh.restore(snap)
    got = fresh.channel("pairs")
    assert got.keep.describe() == "last:2"
    assert got.versions() == [0, 1]
    s, y, rho = got.get(1)
    assert np.array_equal(s, np.zeros(3)) and rho == 0.25
    # Version numbering continues where the original left off.
    assert got.append((np.ones(3), np.ones(3), 1.0)) == 2
    assert "model" not in fresh
    # A values-free entry (what snapshots before epoch 4 kept per
    # unbounded channel) is refused, not skipped.
    snap["model"] = {"name": "model", "keep": "all", "next_version": 1}
    with pytest.raises(HistoryError, match="'model' carries no values"):
        HistoryStore().restore(snap)


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


def test_channel_refuses_list_form_snapshot():
    """Channel snapshots with ``tolist()`` arrays (the form before epoch
    4) are malformed array records."""
    snap, _ = _pairs_channel_snapshot()
    for value in snap["values"].values():
        for leaf in value[:2]:
            arr = np.frombuffer(base64.b64decode(leaf["__ndarray__"]), "<f8")
            leaf.update(__ndarray__=arr.tolist(), dtype="float64")
    with pytest.raises(HistoryError, match="malformed array record"):
        HistoryChannel(1, "pairs", keep="last:2").restore(snap)


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
    snap = ch.snapshot()
    del snap["versions"], snap["values"]
    with pytest.raises(HistoryError, match="no.*values|carries no"):
        HistoryChannel(1, "m2").restore(snap)


# -- immutability ----------------------------------------------------------------------
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
