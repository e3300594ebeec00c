"""Fabric units: wire protocol, lease table, fabric spec parsing, and
the torn-write-hardened checkpoint the fabric streams into."""

import itertools
import json
import socket

import pytest

from repro.api.parallel import SweepCheckpoint, group_key, run_key
from repro.api.spec import ExperimentSpec
from repro.errors import FabricError, ProtocolError
from repro.fabric import (
    FabricOptions,
    LeaseTable,
    parse_endpoint,
    parse_fabric,
    recv_msg,
    send_msg,
)

# ---------------------------------------------------------------------------
# Protocol framing
# ---------------------------------------------------------------------------

def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_protocol_roundtrip_preserves_json():
    a, b = _pair()
    message = {"type": "result", "index": 3, "summary": {"err": 0.25}}
    send_msg(a, message)
    assert recv_msg(b) == message
    a.close(), b.close()


def test_protocol_multiple_frames_in_order():
    a, b = _pair()
    for i in range(5):
        send_msg(a, {"type": "t", "i": i})
    assert [recv_msg(b)["i"] for _ in range(5)] == list(range(5))
    a.close(), b.close()


def test_protocol_clean_eof_returns_none():
    a, b = _pair()
    a.close()
    assert recv_msg(b) is None
    b.close()


def test_protocol_eof_mid_frame_raises():
    a, b = _pair()
    payload = json.dumps({"type": "t", "pad": "x" * 100}).encode()
    a.sendall(len(payload).to_bytes(4, "big") + payload[: len(payload) // 2])
    a.close()
    with pytest.raises(ProtocolError, match="mid-message"):
        recv_msg(b)
    b.close()


def test_protocol_rejects_non_object_frames():
    a, b = _pair()
    payload = json.dumps([1, 2, 3]).encode()
    a.sendall(len(payload).to_bytes(4, "big") + payload)
    with pytest.raises(ProtocolError, match="'type'"):
        recv_msg(b)
    a.close(), b.close()


def test_protocol_rejects_oversized_frames():
    a, b = _pair()
    a.sendall((1 << 30).to_bytes(4, "big"))
    with pytest.raises(ProtocolError, match="exceeds limit"):
        recv_msg(b)
    a.close(), b.close()


def test_parse_endpoint_forms():
    assert parse_endpoint("otherhost:2859") == ("otherhost", 2859)
    assert parse_endpoint(":2859") == ("127.0.0.1", 2859)
    assert parse_endpoint("2859") == ("127.0.0.1", 2859)
    assert parse_endpoint(2859) == ("127.0.0.1", 2859)
    with pytest.raises(ProtocolError):
        parse_endpoint("nope")
    with pytest.raises(ProtocolError):
        parse_endpoint("host:99999")


def test_parse_fabric_forms():
    assert parse_fabric(2859).port == 2859
    assert parse_fabric("0.0.0.0:2859").host == "0.0.0.0"
    local = parse_fabric("local:3")
    assert (local.local_workers, local.port) == (3, 0)
    opts = parse_fabric(
        {"serve": 2859, "local_workers": 2, "lease_ttl": 5.0,
         "lease_size": 2, "max_attempts": 1}
    )
    assert isinstance(opts, FabricOptions)
    assert (opts.port, opts.local_workers, opts.lease_ttl) == (2859, 2, 5.0)
    assert parse_fabric(opts) is opts
    with pytest.raises(FabricError, match="local:N"):
        parse_fabric("local:zero")
    with pytest.raises(FabricError, match="unknown fabric option"):
        parse_fabric({"port": 1})
    with pytest.raises(FabricError, match="cannot interpret"):
        parse_fabric(3.5)


# ---------------------------------------------------------------------------
# Lease table: leasing, stealing, at-most-once, membership
# ---------------------------------------------------------------------------

def _cells(n=6, groups=2):
    """n cells over `groups` groups (distinct seeds)."""
    out = []
    for i in range(n):
        spec = ExperimentSpec(seed=i % groups, max_updates=10)
        out.append((i, run_key(spec), spec.to_dict(), group_key(spec)))
    return out


def test_lease_batches_never_span_groups():
    table = LeaseTable(_cells(6, groups=2), lease_size=8)
    lease = table.acquire("w1", now=0.0)
    groups = {table.cells[i].group for i in lease.indices}
    assert len(groups) == 1
    assert len(lease.indices) == 3  # all of one group, not all 6 cells


def test_lease_size_caps_the_batch():
    table = LeaseTable(_cells(6, groups=1), lease_size=2)
    lease = table.acquire("w1", now=0.0)
    assert len(lease.indices) == 2
    assert all(table.cells[i].status == "leased" for i in lease.indices)


def _lease_lengths(table, workers, now=0.0):
    """Lease lengths as ``workers`` take turns, each finishing its lease
    before the next request, until nothing is pending."""
    lengths = []
    for worker in itertools.cycle(workers):
        lease = table.acquire(worker, now)
        if lease is None:
            return lengths
        lengths.append(len(lease.indices))
        for index in list(lease.indices):
            table.complete(index, table.cells[index].key, worker, now)


def test_lease_is_the_requesting_workers_share_of_its_group():
    """Eight one-group cells, two known workers: nobody walks off with
    the group (at the parent the first request took all eight); shares
    halve as it drains so its tail is spread, not owned."""
    table = LeaseTable(_cells(8, groups=1), lease_size=8)
    table.touch("w1", now=0.0)
    table.touch("w2", now=0.0)
    first = table.acquire("w1", now=0.0)
    second = table.acquire("w2", now=0.0)
    assert (len(first.indices), len(second.indices)) == (4, 2)
    assert first.indices + second.indices == [0, 1, 2, 3, 4, 5]
    table = LeaseTable(_cells(8, groups=1), lease_size=8)
    table.touch("w2", now=0.0)
    assert _lease_lengths(table, ["w1", "w2"]) == [4, 2, 1, 1]


def test_forked_worker_count_sizes_the_first_lease():
    """The first forked worker to ask must not be taken for the only
    one: the driver tells the table how many it started."""
    table = LeaseTable(_cells(8, groups=1), lease_size=8)
    table.min_workers = 2
    assert len(table.acquire("w1", now=0.0).indices) == 4


def test_lease_size_still_caps_a_share():
    table = LeaseTable(_cells(8, groups=1), lease_size=2)
    table.touch("w2", now=0.0)
    assert _lease_lengths(table, ["w1", "w2"]) == [2, 2, 2, 1, 1]
    table = LeaseTable(_cells(8, groups=1), lease_size=1)
    table.touch("w2", now=0.0)
    assert _lease_lengths(table, ["w1", "w2"]) == [1] * 8


def test_a_share_never_spans_groups():
    table = LeaseTable(_cells(6, groups=2), lease_size=8)
    table.touch("w2", now=0.0)
    lease = table.acquire("w1", now=0.0)
    assert [table.cells[i].group for i in lease.indices] == [
        table.cells[0].group
    ] * 2  # ceil(3 / 2) of the first group, none of the second


def test_a_single_known_worker_gets_the_whole_group():
    table = LeaseTable(_cells(8, groups=1), lease_ttl=10.0, lease_size=8)
    assert len(table.acquire("w1", now=0.0).indices) == 8
    # ... and a worker not heard from for a TTL no longer counts.
    table = LeaseTable(_cells(8, groups=1), lease_ttl=10.0, lease_size=8)
    table.touch("gone", now=0.0)
    assert len(table.acquire("w1", now=10.5).indices) == 8


def test_expired_lease_is_stolen():
    table = LeaseTable(_cells(4, groups=1), lease_ttl=10.0, lease_size=4)
    first = table.acquire("w1", now=0.0)
    assert table.acquire("w2", now=5.0) is None  # everything leased out
    lease = table.acquire("w2", now=11.0)  # w1's deadline passed
    assert lease is not None
    assert sorted(lease.indices) == sorted(first.indices)
    assert table.counters.reissued == 4
    assert all(table.cells[i].attempts == 2 for i in lease.indices)


def test_heartbeat_extends_lease_deadline():
    table = LeaseTable(_cells(4, groups=1), lease_ttl=10.0, lease_size=4)
    table.acquire("w1", now=0.0)
    table.touch("w1", now=8.0)  # heartbeat pushes deadline to 18.0
    assert table.acquire("w2", now=15.0) is None
    assert table.counters.reissued == 0


def test_at_most_once_first_result_wins():
    cells = _cells(2, groups=1)
    table = LeaseTable(cells, lease_ttl=5.0, lease_size=2)
    lease = table.acquire("w1", now=0.0)
    index = lease.indices[0]
    key = cells[index][1]
    table.acquire("w2", now=6.0)  # steal after expiry
    # The stolen copy lands first; the original straggler is a duplicate.
    assert table.complete(index, key, "w2", now=7.0) == "recorded"
    assert table.complete(index, key, "w1", now=8.0) == "duplicate"
    assert table.counters.duplicates == 1
    assert table.cells[index].worker == "w2"
    assert table.workers["w1"].cells_done == 0


def test_result_key_mismatch_raises():
    cells = _cells(2, groups=1)
    table = LeaseTable(cells, lease_size=2)
    lease = table.acquire("w1", now=0.0)
    with pytest.raises(FabricError, match="key mismatch"):
        table.complete(lease.indices[0], "not-the-key", "w1", now=1.0)


def test_failed_cell_retries_then_goes_fatal():
    cells = _cells(1, groups=1)
    table = LeaseTable(cells, max_attempts=2, lease_size=1)
    lease = table.acquire("w1", now=0.0)
    index = lease.indices[0]
    assert table.fail(index, "w1", "boom", now=1.0) == "retry"
    assert table.cells[index].status == "pending"
    lease = table.acquire("w2", now=2.0)
    assert table.fail(index, "w2", "boom again", now=3.0) == "fatal"
    assert table.cells[index].status == "failed"
    assert table.cells[index].error == "boom again"
    assert not table.done


@pytest.mark.parametrize("max_attempts", [2, 3])
def test_late_failure_from_expired_lease_is_stale(max_attempts):
    """A failure report for a cell now leased to someone else changes
    nothing: no FAILED verdict, no re-pool under the live lease."""
    table = LeaseTable(
        _cells(1, groups=1), max_attempts=max_attempts, lease_ttl=10.0,
        lease_size=1,
    )
    index = table.acquire("A", now=0.0).indices[0]
    table.expire(20.0)
    lease_b = table.acquire("B", now=20.0)
    assert lease_b.indices == [index]
    assert table.fail(index, "A", "late boom", now=21.0) == "duplicate"
    cell = table.cells[index]
    assert (cell.status, cell.worker, cell.error) == ("leased", "B", None)
    assert table.leases[lease_b.lease_id].indices == [index]
    assert (table.counters.duplicates, table.counters.retried) == (1, 0)
    # B's own attempt still decides the cell.
    assert table.complete(index, cell.key, "B", now=22.0) == "recorded"
    assert table.done


def test_coordinator_keeps_sweep_alive_on_stale_failure():
    from repro.fabric import SweepCoordinator

    now = [0.0]
    coordinator = SweepCoordinator(
        [cell[:3] for cell in _cells(1, groups=1)], lease_ttl=10.0,
        lease_size=1, max_attempts=2, clock=lambda: now[0],
    )
    dispatch = coordinator._dispatch
    # Every worker runs the one cell function: no message names a runner.
    assert dispatch({"type": "hello", "worker": "A"}) == {
        "type": "welcome", "total": 1,
    }
    lease = dispatch({"type": "request", "worker": "A"})
    assert set(lease) == {"type", "lease", "deadline_s", "cells"}
    index = lease["cells"][0]["index"]
    now[0] = 20.0
    assert dispatch({"type": "request", "worker": "B"})["type"] == "lease"
    now[0] = 21.0
    reply = dispatch(
        {"type": "result", "worker": "A", "index": index, "error": "boom"}
    )
    assert reply == {"type": "ok", "status": "duplicate"}
    assert coordinator._error is None
    assert dispatch({"type": "request", "worker": "C"})["type"] == "wait"


def test_membership_is_elastic():
    table = LeaseTable(_cells(4, groups=2), lease_ttl=5.0, lease_size=2)
    table.acquire("w1", now=0.0)
    table.acquire("w2", now=0.0)  # joins mid-sweep
    assert set(table.workers) == {"w1", "w2"}
    # w1 dies; its cells flow to w3, a worker that joins even later.
    lease = table.acquire("w3", now=6.0)
    assert lease is not None
    snap = table.snapshot(now=6.0)
    assert set(snap["workers"]) == {"w1", "w2", "w3"}
    assert snap["reissued"] >= 2


def test_snapshot_counts_and_eta():
    cells = _cells(4, groups=1)
    table = LeaseTable(cells, lease_size=2)
    lease = table.acquire("w1", now=0.0)
    for index in list(lease.indices):  # complete() edits the lease
        table.complete(index, cells[index][1], "w1", now=2.0)
    snap = table.snapshot(now=2.0)
    assert (snap["total"], snap["done"], snap["pending"]) == (4, 2, 2)
    assert snap["cells_per_s"] == pytest.approx(1.0, rel=0.01)
    assert snap["eta_s"] == pytest.approx(2.0, rel=0.05)
    assert not table.done
    table.acquire("w1", now=2.0)
    for index in range(4):
        table.complete(index, cells[index][1], "w1", now=3.0)
    assert table.done


def test_table_rejects_bad_parameters():
    with pytest.raises(FabricError):
        LeaseTable([], lease_ttl=0)
    with pytest.raises(FabricError):
        LeaseTable([], lease_size=0)
    with pytest.raises(FabricError):
        LeaseTable([], max_attempts=0)
    with pytest.raises(FabricError, match="duplicate cell index"):
        LeaseTable(_cells(2, groups=1) + _cells(1, groups=1))


# ---------------------------------------------------------------------------
# Checkpoint torn-write hardening (the fabric's durability contract)
# ---------------------------------------------------------------------------

def test_append_writes_whole_lines_atomically(tmp_path):
    path = tmp_path / "c.jsonl"
    ckpt = SweepCheckpoint(path)
    # Two handles interleaving appends (two coordinators / a worker and
    # a driver) — O_APPEND means whole lines, never interleaved bytes.
    other = SweepCheckpoint(path)
    for i in range(10):
        (ckpt if i % 2 else other).append(i, f"k{i}", {"i": i})
    entries = ckpt.entries()
    assert [index for index, _k, _s in entries] == list(range(10))


def test_torn_trailing_line_is_skipped_on_resume(tmp_path):
    path = tmp_path / "c.jsonl"
    ckpt = SweepCheckpoint(path)
    ckpt.append(0, "k0", {"ok": True})
    ckpt.append(1, "k1", {"ok": True})
    # A writer killed mid-write leaves a dangling, newline-less tail.
    with path.open("a") as fh:
        fh.write('{"index": 2, "key": "k2", "summ')
    entries = ckpt.entries()
    assert [index for index, _k, _s in entries] == [0, 1]
    assert ckpt.load() == {0: ("k0", {"ok": True}), 1: ("k1", {"ok": True})}


def test_torn_interior_line_is_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    ckpt = SweepCheckpoint(path)
    ckpt.append(0, "k0", {"ok": True})
    with path.open("a") as fh:
        fh.write('{"index": 1, "key": truncated garbage\n')
        fh.write("\xff\xfe not utf8 either\n")
    ckpt.append(2, "k2", {"ok": True})
    assert [index for index, _k, _s in ckpt.entries()] == [0, 2]


def test_seal_isolates_torn_tail_before_appends_resume(tmp_path):
    """A crashed writer's torn tail must not eat the next append: resume
    seals the fragment onto its own (skipped) line first."""
    path = tmp_path / "c.jsonl"
    ckpt = SweepCheckpoint(path)
    ckpt.append(0, "k0", {"ok": True})
    with path.open("a") as fh:
        fh.write('{"index": 1, "key": "k1", "summ')  # torn, no newline
    ckpt.seal()
    ckpt.append(2, "k2", {"ok": True})
    assert [index for index, _k, _s in ckpt.entries()] == [0, 2]
    ckpt.seal()  # idempotent on a clean file
    assert [index for index, _k, _s in ckpt.entries()] == [0, 2]
    assert SweepCheckpoint(tmp_path / "missing.jsonl").seal() is None


# ---------------------------------------------------------------------------
# Crash recovery units: recovered cells, carried counters, clamped sleeps
# ---------------------------------------------------------------------------

def test_mark_done_recovers_cells_without_a_worker():
    cells = _cells(3, groups=1)
    table = LeaseTable(cells, lease_size=3)
    assert table.mark_done(0)
    assert table.cells[0].status == "done"
    assert table.cells[0].worker == "(recovered)"
    assert not table.mark_done(0)        # already done: no-op
    assert not table.mark_done(99)       # unknown index: no-op
    # Recovered cells are never leased again.
    lease = table.acquire("w1", now=0.0)
    assert 0 not in lease.indices
    for index in (1, 2):
        table.complete(index, cells[index][1], "w1", now=1.0)
    assert table.done


def test_mark_done_drops_cell_from_live_lease():
    cells = _cells(2, groups=1)
    table = LeaseTable(cells, lease_size=2)
    lease = table.acquire("w1", now=0.0)
    first, second = lease.indices  # mark_done edits the list in place
    table.mark_done(first)
    assert lease.indices == [second]  # the lease shrank
    table.complete(second, cells[second][1], "w1", 1.0)
    assert table.done and not table.leases


def test_restore_counters_accepts_only_sane_values():
    table = LeaseTable(_cells(1, groups=1))
    table.restore_counters(
        {"reissued": 4, "duplicates": 2, "retried": 1, "done": 99}
    )
    assert (table.counters.reissued, table.counters.duplicates,
            table.counters.retried) == (4, 2, 1)
    table.restore_counters({"reissued": -1, "duplicates": "nope"})
    assert table.counters.reissued == 4      # junk ignored
    assert table.counters.duplicates == 2


def test_clamp_retry_s_bounds_hostile_values():
    from repro.fabric import clamp_retry_s
    from repro.fabric.protocol import RETRY_MAX_S, RETRY_MIN_S

    assert clamp_retry_s(0.5) == 0.5
    assert clamp_retry_s(0) == RETRY_MIN_S
    assert clamp_retry_s(-3) == RETRY_MIN_S
    assert clamp_retry_s(1e9) == RETRY_MAX_S
    assert clamp_retry_s("0.7") == 0.7
    assert clamp_retry_s("soon") == RETRY_MIN_S
    assert clamp_retry_s(None) == RETRY_MIN_S
    assert clamp_retry_s(float("nan")) == RETRY_MIN_S
    assert clamp_retry_s(float("inf")) == RETRY_MAX_S


# ---------------------------------------------------------------------------
# Chaos config and worker backoff units
# ---------------------------------------------------------------------------

def test_chaos_config_parse_spellings():
    from repro.fabric import ChaosConfig

    cfg = ChaosConfig.parse("drop=0.1,dup=0.05,delay=20,sever=50,seed=3")
    assert (cfg.drop, cfg.duplicate, cfg.delay_ms, cfg.sever_every,
            cfg.seed) == (0.1, 0.05, 20.0, 50, 3)
    assert ChaosConfig.coerce(None) is None
    assert ChaosConfig.coerce(cfg) is cfg
    assert ChaosConfig.coerce({"dup": 0.2}).duplicate == 0.2
    assert ChaosConfig.parse("").quiet
    with pytest.raises(FabricError, match="unknown chaos term"):
        ChaosConfig.parse("explode=1")
    with pytest.raises(FabricError, match="name=value"):
        ChaosConfig.parse("drop")
    with pytest.raises(FabricError, match="probability"):
        ChaosConfig.parse("drop=1.5")
    with pytest.raises(FabricError, match=">= 0"):
        ChaosConfig(delay_ms=-1)


def _echo_peer(sock, seen):
    """Reply {"type": "ok", "echo": i} to every frame until EOF."""
    import threading

    def run():
        while True:
            try:
                msg = recv_msg(sock)
            except (ProtocolError, OSError):
                return
            if msg is None:
                return
            seen.append(msg["i"])
            try:
                send_msg(sock, {"type": "ok", "echo": msg["i"]})
            except OSError:
                return

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def test_chaos_link_sever_cadence_closes_the_connection():
    from repro.fabric import ChaosConfig, ChaosLink

    link = ChaosLink(ChaosConfig(sever_every=2))
    a, b = _pair()
    seen = []
    thread = _echo_peer(b, seen)
    assert link.exchange(a, {"type": "t", "i": 1})["echo"] == 1
    with pytest.raises(ProtocolError, match="severed"):
        link.exchange(a, {"type": "t", "i": 2})
    assert (link.frames, link.severed) == (2, 1)
    assert seen == [1]  # the severed frame was never sent
    b.close()
    thread.join(timeout=5.0)


def test_chaos_link_duplicate_sends_twice_drains_extra_reply():
    from repro.fabric import ChaosConfig, ChaosLink

    link = ChaosLink(ChaosConfig(duplicate=1.0))
    a, b = _pair()
    seen = []
    thread = _echo_peer(b, seen)
    assert link.exchange(a, {"type": "t", "i": 7})["echo"] == 7
    assert link.exchange(a, {"type": "t", "i": 8})["echo"] == 8
    assert link.duplicated == 2
    assert seen == [7, 7, 8, 8]  # peer saw every frame twice, in order
    a.close(), b.close()
    thread.join(timeout=5.0)


def test_chaos_link_drop_closes_the_connection():
    from repro.fabric import ChaosConfig, ChaosLink

    link = ChaosLink(ChaosConfig(drop=1.0))
    a, b = _pair()
    seen = []
    thread = _echo_peer(b, seen)
    with pytest.raises(ProtocolError, match="dropped"):
        link.exchange(a, {"type": "t", "i": 1})
    assert (link.frames, link.dropped) == (1, 1)
    assert seen == []
    b.close()
    thread.join(timeout=5.0)


def test_worker_backoff_is_capped_exponential_with_jitter(monkeypatch):
    from repro.fabric import SweepWorker

    sleeps = []
    monkeypatch.setattr("repro.fabric.worker.time.sleep", sleeps.append)
    worker = SweepWorker(
        # Nothing listens on this port; connect fails instantly.
        "127.0.0.1:9",
        name="backoff-test",
        max_connect_attempts=6,
        connect_backoff_s=0.2,
        connect_backoff_cap_s=1.0,
    )
    with pytest.raises(FabricError, match="after 6 attempt"):
        worker._connect()
    # One sleep between attempts (none after the last).
    assert len(sleeps) == 5
    bases = [0.2, 0.4, 0.8, 1.0, 1.0]  # doubled, then capped
    for slept, base in zip(sleeps, bases):
        assert 0.5 * base <= slept <= 1.5 * base  # jitter in [0.5, 1.5)x
    # The jitter stream is per-name deterministic.
    sleeps2 = []
    monkeypatch.setattr("repro.fabric.worker.time.sleep", sleeps2.append)
    worker2 = SweepWorker(
        "127.0.0.1:9", name="backoff-test", max_connect_attempts=6,
        connect_backoff_s=0.2, connect_backoff_cap_s=1.0,
    )
    with pytest.raises(FabricError):
        worker2._connect()
    assert sleeps2 == sleeps


def test_worker_connect_knobs_are_set_and_checked():
    from repro.fabric import SweepWorker

    worker = SweepWorker(
        "127.0.0.1:9", max_connect_attempts=3, connect_backoff_s=0.5
    )
    assert worker.max_connect_attempts == 3
    assert worker.connect_backoff_s == 0.5
    with pytest.raises(FabricError, match="max_connect_attempts"):
        SweepWorker("127.0.0.1:9", max_connect_attempts=0)


# ---------------------------------------------------------------------------
# Status view: a silent coordinator is presumed dead, not ETA'd
# ---------------------------------------------------------------------------

def test_stale_sidecar_reports_presumed_dead(tmp_path):
    from repro.fabric import read_status, status_path_for
    from repro.fabric.status import format_status

    ckpt = tmp_path / "sweep.jsonl"
    SweepCheckpoint(ckpt).append(0, "k0", {"ok": True})
    status_path_for(ckpt).write_text(json.dumps({
        "fabric": "sweep", "total": 4, "done": 1, "in_flight": 2,
        "pending": 1, "failed": 0, "finished": False, "draining": False,
        "cells_per_s": 0.5, "eta_s": 6.0, "elapsed_s": 2.0,
        "updated_unix": 12345.0,  # epoch-ancient: long past STALE_AFTER_S
    }))
    status = read_status(ckpt)
    assert status["stale"] and status["presumed_dead"]
    assert status["eta_s"] is None  # a dead file forecasts nothing
    rendered = format_status(status)
    assert "presumed dead" in rendered
    assert "--resume" in rendered
    assert "ETA n/a" in rendered


def test_fresh_finished_sidecar_is_not_presumed_dead(tmp_path):
    import time as _time

    from repro.fabric import read_status, status_path_for

    ckpt = tmp_path / "sweep.jsonl"
    SweepCheckpoint(ckpt).append(0, "k0", {"ok": True})
    status_path_for(ckpt).write_text(json.dumps({
        "fabric": "sweep", "total": 1, "done": 1, "finished": True,
        "updated_unix": _time.time() - 3600,  # old but *finished*
    }))
    status = read_status(ckpt)
    assert not status["stale"] and not status["presumed_dead"]


def test_request_reclaims_workers_stale_lease():
    """One-lease-at-a-time: a worker requesting again (duplicated frame
    or torn session) gets its old lease re-pooled instead of orphaned."""
    cells = _cells(4, groups=1)
    table = LeaseTable(cells, lease_ttl=1000.0, lease_size=2)
    first = table.acquire("w1", now=0.0)
    second = table.acquire("w1", now=0.1)  # duplicate request
    assert sorted(second.indices) == sorted(first.indices)
    assert table.counters.reissued == 2
    assert len(table.leases) == 1  # the orphan is gone, not deadlocked
    # Another worker drains the rest (its share of what is pending, one
    # lease after another); the sweep completes.
    for index in list(second.indices):
        table.complete(index, cells[index][1], "w1", now=1.0)
    while (lease := table.acquire("w2", now=1.0)) is not None:
        for index in list(lease.indices):
            table.complete(index, cells[index][1], "w2", now=1.0)
    assert table.done
