"""Crash-safe runs: mid-run snapshots and verified SIGKILL recovery.

The contract under test: every ``snapshot_every`` applied updates the
server loop durably writes its run snapshot (the model iterate and its
update and round counters; no HIST, since each rule rebuilds its server
state at the restored iterate) into one of the two slots of
``snapshot_path``, and a run restored from that file continues
*bit-identically* to the in-process restore path (``restore_state``
handed straight to the optimizer). The snapshot is written at the
instant update K applies and excludes run limits, so the newest payload
a SIGKILLed run leaves behind is byte-for-byte the payload a
``max_updates=K`` run finishes with.
"""

import cProfile
import json
import os
import re
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.parallel import run_key
from repro.api.registry import OPTIMIZERS
from repro.api.runner import prepare_experiment
from repro.api.spec import ExperimentSpec
from repro.core.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotWriter,
    decode_value,
    encode_value,
    is_run_snapshot,
    read_payload,
    read_snapshot,
    write_snapshot,
)
from repro.errors import OptimError, SnapshotError
from repro.utils.rng import TRAJECTORY_EPOCH

SPEC = {
    "dataset": "tiny_dense", "algorithm": "asgd", "policy": "ct:1.5",
    "num_workers": 4, "max_updates": 60, "seed": 3, "delay": "cds:0.6",
}

#: A SAGA run: its snapshots carry no HIST, a restore re-anchors SAGA.
ASAGA_SPEC = {
    "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
    "eval_every": 20, "seed": 3, "params": {"mode": "history"},
}

#: A run whose server keeps bounded HIST channels (SVRG's epoch anchor
#: and its full gradient), which its snapshots do not carry; seven inner
#: rounds per epoch put update 40 mid-epoch.
ASVRG_SPEC = {
    "algorithm": "asvrg", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
    "eval_every": 20, "seed": 3, "params": {"inner_iterations": 7},
}

ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
)


# ---------------------------------------------------------------------------
# Codec and file format units
# ---------------------------------------------------------------------------

def test_codec_roundtrips_ndarrays_bit_exact():
    w = np.array([1.0, -0.25, 1e-300, 3.141592653589793, np.pi * 1e17])
    back = decode_value(encode_value(w))
    assert np.array_equal(back, w)
    assert back.dtype == w.dtype
    # ...and survives an actual JSON round-trip, which is what the
    # snapshot file does.
    back2 = decode_value(json.loads(json.dumps(encode_value(w))))
    assert np.array_equal(back2, w)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("value", [
    np.array([1.0, -0.0, np.inf, 5e-324, np.pi]),
    np.arange(6, dtype=np.float32).reshape(2, 3),
    np.array([-(2**62), 7], dtype=np.int64),
    np.array([0, 255], dtype=np.uint8),
    np.array([True, False, True]),
    np.array([1 + 2j, -0.0 - 1j], dtype=np.complex128),
    np.arange(5, dtype=">f8"),                    # big-endian input
    np.array(2.5),                                # 0-d
    np.zeros((0, 3)),                             # empty
    np.arange(24.0).reshape(4, 6)[::2, 1::2],     # non-contiguous
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
], ids=["f8", "f4", "i8", "u1", "bool", "c16", "f8-big-endian", "0-d",
        "empty", "strided", "fortran"])
def test_array_codec_roundtrips_bit_exact(value):
    record = json.loads(json.dumps(encode_value(value)))
    assert set(record) == {"__ndarray__", "dtype", "shape"}
    assert record["dtype"][0] in "<|"          # explicit little-endian
    back = decode_value(record)
    assert back.shape == value.shape
    assert back.dtype == value.dtype.newbyteorder("=")
    assert back.dtype.isnative and back.flags.writeable
    assert _bits(back) == _bits(value.astype(back.dtype))


def test_array_codec_keeps_nan_payloads_and_negative_zero():
    bits = np.array(
        [0x7FF8000000000123, 0xFFF80000DEADBEEF, 0x7FF0000000000001,
         0x8000000000000000], dtype=np.uint64,
    )
    back = decode_value(json.loads(json.dumps(encode_value(bits.view(np.float64)))))
    assert np.array_equal(back.view(np.uint64), bits)


def test_array_codec_refuses_arrays_it_cannot_carry():
    for value in (np.array(["a"]), np.array([object()]),
                  np.array(["2020-01-01"], dtype="datetime64[D]")):
        with pytest.raises(SnapshotError, match="cannot checkpoint"):
            encode_value(value)


def _no_constants(name):
    raise AssertionError(f"snapshot JSON contains bare {name}")


def test_snapshot_file_is_strict_json(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**ASVRG_SPEC, "snapshot_every": 20,
                    "snapshot_path": str(snap_file)})
    state = json.loads(read_payload(snap_file), parse_constant=_no_constants)
    assert isinstance(state["w"]["__ndarray__"], str)


def _to_list_form(node):
    """Rewrite every array record the way earlier versions wrote it:
    ``tolist()`` values and a numpy dtype name."""
    if isinstance(node, dict) and "__ndarray__" in node:
        arr = decode_value(node)
        return {"__ndarray__": arr.tolist(), "dtype": str(arr.dtype),
                "shape": list(arr.shape)}
    if isinstance(node, dict):
        return {k: _to_list_form(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_to_list_form(v) for v in node]
    return node


def _asaga_snapshot_at_40(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**ASAGA_SPEC, "max_updates": 40, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})
    return snap_file, json.loads(read_payload(snap_file))


def _asvrg_snapshot_at_40(tmp_path):
    snap_file = tmp_path / "asvrg.json"
    run_experiment({**ASVRG_SPEC, "max_updates": 40, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})
    return snap_file, json.loads(read_payload(snap_file))


def _old_svrg_history(w):
    """The ``server.history`` an ASVRG snapshot carried before epoch 7:
    the epoch anchor and its full gradient, version 5 of each."""
    return {
        name: {"name": name, "keep": "last:1", "next_version": 6,
               "accounting": {}, "versions": [5],
               "values": {"5": encode_value(w)}}
        for name in ("svrg/anchor", "svrg/mu")
    }


def test_a_hist_entry_without_values_is_refused(tmp_path):
    """A values-free HIST entry (what snapshots before epoch 4 kept per
    unbounded channel) is a ``SnapshotError`` naming the file and the
    ``server`` section it sits in: no snapshot carries HIST now."""
    _, state = _asaga_snapshot_at_40(tmp_path)
    state["server"] = {"history": {"saga": {
        "name": "saga", "keep": "all", "next_version": 41,
    }}}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*unknown key 'server'"):
        run_experiment({**ASAGA_SPEC, "restore_from": str(bad)})


@pytest.mark.parametrize("section,value", [
    ("policy", {"rng": {"bit_generator": "PCG64"}}),
    ("coordinator", {"placement": {"3": 0}, "migrations": 1}),
])
def test_snapshot_with_policy_or_coordinator_state_is_refused(
    tmp_path, section, value,
):
    """Policy RNGs and placement overlays no longer exist: a snapshot
    carrying either is a ``SnapshotError`` naming the file and the key,
    not silently dropped."""
    _, state = _asaga_snapshot_at_40(tmp_path)
    state[section] = value
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match=f"bad.json.*'{section}'"):
        run_experiment({**ASAGA_SPEC, "restore_from": str(bad)})


def test_sweep_checkpoint_with_list_form_run_state_resumes(
    tmp_path, monkeypatch
):
    from repro.api import parallel
    from repro.api.runner import run_grid

    grid = {"base": {**ASVRG_SPEC, "max_updates": 20},
            "grid": {"seed": [1, 2]}}
    ck = tmp_path / "sweep.ckpt.jsonl"
    first = run_grid(grid, checkpoint=str(ck))
    # Earlier summaries carried the bounded HIST as a list-form
    # ``run_state``; graft one onto every recorded line.
    run_state = {"history": _old_svrg_history(np.arange(5.0))}
    for summary in first:
        summary["run_state"] = run_state
    entries = [json.loads(line) for line in ck.read_text().splitlines()]
    for entry in entries:
        entry["summary"]["run_state"] = run_state
        entry["summary"] = _to_list_form(entry["summary"])
    ck.write_text("".join(json.dumps(e) + "\n" for e in entries))

    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec: pytest.fail("a recorded cell was re-run"),
    )
    resumed = run_grid(grid, checkpoint=str(ck), resume=True)
    (anchor,) = resumed[0]["run_state"]["history"]["svrg/anchor"]["values"].values()
    assert isinstance(anchor["__ndarray__"], list)
    # (via JSON: a fresh summary's HIST version keys are ints)
    assert resumed == json.loads(json.dumps(_to_list_form(first)))


def _write_state(path, state):
    write_snapshot(path, state)
    return path


def _valid_state(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "max_updates": 20, "snapshot_every": 20,
                    "snapshot_path": str(snap_file)})
    return json.loads(read_payload(snap_file))


@pytest.mark.parametrize("key", ["updates", "rounds", "w"])
def test_snapshot_missing_a_required_key_is_a_snapshot_error(tmp_path, key):
    state = _valid_state(tmp_path)
    del state[key]
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match=f"bad.json.*missing '{key}'"):
        read_snapshot(bad)
    with pytest.raises(SnapshotError, match=f"missing '{key}'"):
        run_experiment({**SPEC, "restore_from": str(bad)})


def test_snapshot_list_of_the_wrong_length_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"] = {"__ndarray__": [1.0, 2.0], "dtype": "float64", "shape": [3]}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*malformed array"):
        read_snapshot(bad)
    with pytest.raises(SnapshotError, match="malformed array"):
        run_experiment({**SPEC, "restore_from": str(bad)})


def test_a_list_form_array_is_a_snapshot_error(tmp_path):
    """The list form snapshots before epoch 4 wrote is no longer read,
    even at the right length."""
    state = _valid_state(tmp_path)
    w = decode_value(state["w"])
    state["w"] = {"__ndarray__": w.tolist(), "dtype": "float64",
                  "shape": list(w.shape)}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*malformed array"):
        read_snapshot(bad)


def test_snapshot_with_bad_base64_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"]["__ndarray__"] = "not*base64!"
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*malformed array"):
        read_snapshot(bad)


def test_snapshot_with_a_wrong_byte_count_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"]["shape"] = [state["w"]["shape"][0] + 1]
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bytes for shape"):
        read_snapshot(bad)


def test_snapshot_with_an_unknown_dtype_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    for dtype in ("<q9", "|O", "<U4"):
        state["w"]["dtype"] = dtype
        bad = _write_state(tmp_path / "bad.json", state)
        with pytest.raises(SnapshotError, match="malformed array"):
            read_snapshot(bad)


def test_snapshot_with_a_malformed_hist_array_is_a_snapshot_error(tmp_path):
    """The ``server`` key is refused before anything under it is read,
    so a malformed HIST array never reaches the array decoder."""
    state = _valid_state(tmp_path)
    state["server"] = {"history": {"x/avg": {
        "name": "x/avg", "keep": "last:1", "next_version": 1,
        "values": {"0": {"__ndarray__": "AAAA", "dtype": "<f8", "shape": [1]}},
    }}}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*unknown key 'server'"):
        read_snapshot(bad)


#: The keys of every run snapshot, and the only ones a restore reads.
SNAPSHOT_KEYS = {"format", "trajectory_epoch", "run", "updates", "rounds", "w"}


@pytest.mark.parametrize("key,value", [
    ("server", {"history": {}}),
    ("epoch_rounds_left", 3),
    ("version", 20),
])
def test_read_snapshot_refuses_a_key_outside_the_six(tmp_path, key, value):
    """A snapshot holds the iterate and its counters only: the
    ``server`` section and ``epoch_rounds_left`` of earlier epochs, or
    the ``version`` that equalled ``updates``, are refused, naming the
    file and the key."""
    state = _valid_state(tmp_path)
    state[key] = value
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match=f"bad.json.*unknown key '{key}'"):
        read_snapshot(bad)
    with pytest.raises(SnapshotError, match=f"unknown key '{key}'"):
        run_experiment({**SPEC, "restore_from": str(bad)})


@pytest.mark.parametrize("name", sorted(
    name for name in OPTIMIZERS.names()
    if OPTIMIZERS.get(name).__module__.startswith("repro.")
))
def test_every_built_in_optimizers_snapshot_holds_exactly_the_six_keys(
    tmp_path, name,
):
    snap_file = tmp_path / "snap.json"
    run_experiment({
        "algorithm": name, "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 20, "seed": 0,
        "snapshot_every": 20, "snapshot_path": str(snap_file),
    })
    assert set(read_snapshot(snap_file)) == SNAPSHOT_KEYS


#: A minimal run snapshot for the file-format units.
STATE = {"format": SNAPSHOT_FORMAT, "trajectory_epoch": TRAJECTORY_EPOCH,
         "run": {"algorithm": "asgd", "num_workers": 4, "seed": 3},
         "updates": 3, "rounds": 3, "w": encode_value(np.arange(4.0))}


def _payload_of(state) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_write_snapshot_calls_do_not_depend_on_directory_depth(tmp_path):
    """A ``Path`` argument is used as it is: re-wrapping one re-parses
    every component, so the same writes made more calls from a deeper
    directory (and a counted run depended on where its checkout sat)."""
    counts, files = [], []
    for sub in ("a", "a/b/c/d/e"):
        path = tmp_path / sub / "snap.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        profiler = cProfile.Profile()
        profiler.enable()
        for updates in range(20):
            write_snapshot(path, {**STATE, "updates": updates})
        profiler.disable()
        counts.append(sum(e.callcount for e in profiler.getstats()))
        files.append(path.read_bytes())
    assert counts[0] == counts[1]
    assert files[0] == files[1]


def test_write_snapshot_is_atomic_and_tagged(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, STATE)
    assert read_snapshot(path)["updates"] == 3
    assert is_run_snapshot(read_snapshot(path))
    # No temp litter: the tmp file was renamed over the target.
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    # Later writes land in the other slot of the same file.
    write_snapshot(path, {**STATE, "updates": 4})
    assert read_snapshot(path)["updates"] == 4
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


def test_snapshot_file_is_two_page_aligned_slots_with_ascii_headers(tmp_path):
    """Two slots of S bytes, S a power of two >= 4 KiB and >= twice the
    record; each slot is one header line, then the unchanged payload."""
    path = tmp_path / "snap.json"
    states = [STATE, {**STATE, "updates": 4}]
    for state in states:
        write_snapshot(path, state)
    data = path.read_bytes()
    size = len(data) // 2
    assert len(data) == 2 * size and size >= 4096 and size & (size - 1) == 0
    for offset, state in zip((0, size), states):
        header, rest = data[offset:offset + size].split(b"\n", 1)
        payload = _payload_of(state)
        assert rest.startswith(payload)
        assert size >= 2 * (len(header) + 1 + len(payload))
        assert header.startswith(b"repro/snapshot-slot@1 ")
        assert header.decode("ascii").split()[1:] == [
            f"seq={offset // size + 1:016d}", f"len={len(payload):010d}",
            f"crc={zlib.crc32(payload):08x}", f"slot={size:010d}",
        ]
    assert read_payload(path) == _payload_of(states[-1])


def test_every_write_is_flushed_before_it_returns(tmp_path, monkeypatch):
    """The first write rebuilds the file (fsync, rename); every later one
    overwrites a slot in place and flushes its data."""
    from repro.core import snapshots

    flushed = []
    datasync, fsync = snapshots._datasync, os.fsync

    def counted(kind, sync):
        def flush(fd):
            flushed.append(kind)
            sync(fd)
        return flush

    monkeypatch.setattr(snapshots, "_datasync", counted("data", datasync))
    monkeypatch.setattr(os, "fsync", counted("full", fsync))
    path = tmp_path / "snap.json"
    for updates in range(4):
        write_snapshot(path, {**STATE, "updates": updates})
        assert read_snapshot(path)["updates"] == updates
    assert flushed == ["full", "data", "data", "data"]


def _slotted_file(tmp_path, writes=2):
    """A slotted file after ``writes`` writes of updates 1, 2, ...: the
    newest in slot 1 for an even count, in slot 0 for an odd one."""
    path = tmp_path / "snap.json"
    for updates in range(1, writes + 1):
        write_snapshot(path, {**STATE, "updates": updates})
    data = bytearray(path.read_bytes())
    return path, data, len(data) // 2


def _flip_payload_byte(data, offset, size):
    data[data.index(b"\n", offset) + 10] ^= 0x01
    return data


def _truncate_mid_slot(data, offset, size):
    return data[:data.index(b"\n", offset) + 10]


def _length_past_the_slot(data, offset, size):
    end = data.index(b"\n", offset)
    data[offset:end] = re.sub(
        rb"len=\d{10}", b"len=%010d" % (size + 1), bytes(data[offset:end])
    )
    return data


def _tear_the_header(data, offset, size):
    data[data.index(b"seq=", offset) + 4] = ord("x")
    return data


@pytest.mark.parametrize("corrupt", [
    _flip_payload_byte, _truncate_mid_slot, _length_past_the_slot,
], ids=["flipped-payload-byte", "truncated-mid-slot", "length-past-slot"])
def test_a_torn_newest_slot_loads_the_previous_snapshot(tmp_path, corrupt):
    path, data, size = _slotted_file(tmp_path)
    path.write_bytes(corrupt(data, size, size))
    assert read_snapshot(path)["updates"] == 1
    # The next write goes into the torn slot and keeps the intact one.
    write_snapshot(path, {**STATE, "updates": 3})
    assert read_snapshot(path)["updates"] == 3


def test_a_torn_slot_zero_header_still_finds_slot_one(tmp_path):
    path, data, size = _slotted_file(tmp_path, writes=3)
    path.write_bytes(_tear_the_header(data, 0, size))
    assert read_snapshot(path)["updates"] == 2


def test_both_slots_bad_is_a_snapshot_error(tmp_path):
    path, data, size = _slotted_file(tmp_path)
    for offset in (0, size):
        _flip_payload_byte(data, offset, size)
    path.write_bytes(data)
    with pytest.raises(SnapshotError, match="snap.json.*no intact"):
        read_snapshot(path)
    # A write over a file with no intact slot rebuilds it.
    write_snapshot(path, STATE)
    assert read_snapshot(path)["updates"] == 3


def test_a_record_that_outgrows_its_slot_rebuilds_the_file(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, STATE)
    small = path.stat().st_size
    big = {**STATE, "w": encode_value(np.arange(4000.0))}
    write_snapshot(path, big)
    assert path.stat().st_size > small
    assert read_payload(path) == _payload_of(big)
    inode = path.stat().st_ino
    write_snapshot(path, STATE)  # fits the larger slots: in place
    assert path.stat().st_ino == inode
    assert read_payload(path) == _payload_of(STATE)


def test_a_bare_json_file_is_refused_and_rebuilt_on_write(tmp_path):
    """A bare JSON payload (the form before slotted files) is not read,
    and the next write turns the file into a slotted one."""
    path = tmp_path / "snap.json"
    path.write_bytes(_payload_of(STATE))
    with pytest.raises(SnapshotError, match="snap.json.*not a slotted"):
        read_payload(path)
    write_snapshot(path, {**STATE, "updates": 4})
    assert path.read_bytes().startswith(b"repro/snapshot-slot@1 ")
    assert read_snapshot(path)["updates"] == 4


def test_a_run_overwrites_its_snapshot_file_in_place(tmp_path, monkeypatch):
    """After the first write, no write creates or renames a file: the
    file keeps its inode and ``os.replace`` runs at most once."""
    from repro.core import snapshots

    snap_file = tmp_path / "snap.json"
    inodes, replaced = [], []
    write, os_replace = snapshots.write_snapshot, os.replace

    def traced_write(path, state):
        write(path, state)
        inodes.append(os.stat(path).st_ino)

    def counted_replace(src, dst):
        replaced.append(dst)
        os_replace(src, dst)

    monkeypatch.setattr(snapshots, "write_snapshot", traced_write)
    monkeypatch.setattr(os, "replace", counted_replace)
    result = run_experiment({**SPEC, "snapshot_every": 5,
                             "snapshot_path": str(snap_file)})
    assert result.extras["snapshots_written"] == len(inodes) == 12
    assert len(set(inodes)) == 1
    assert len(replaced) <= 1
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


def test_read_snapshot_rejects_garbage(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(tmp_path / "missing.json")
    from repro.core import snapshots

    bad = tmp_path / "bad.json"
    snapshots._replace_file(bad, b"{torn")
    with pytest.raises(SnapshotError, match="not a valid snapshot"):
        read_snapshot(bad)
    untagged = tmp_path / "untagged.json"
    write_snapshot(untagged, {"updates": 3})
    with pytest.raises(SnapshotError, match="run-snapshot"):
        read_snapshot(untagged)
    assert not is_run_snapshot({"updates": 3})
    assert not is_run_snapshot(None)


def test_snapshot_writer_cadence(tmp_path):
    writer = SnapshotWriter(tmp_path / "s.json", every=3)
    assert [u for u in range(10) if writer.due(u)] == [3, 6, 9]
    writer.write({"format": SNAPSHOT_FORMAT, "k": 1})
    assert writer.written == 1


def test_config_validates_snapshot_fields(tmp_path):
    with pytest.raises(OptimError, match="snapshot_every"):
        run_experiment({**SPEC, "snapshot_every": -1,
                        "snapshot_path": str(tmp_path / "s.json")})
    with pytest.raises(OptimError, match="both"):
        run_experiment({**SPEC, "snapshot_every": 10})
    with pytest.raises(OptimError, match="both"):
        run_experiment({**SPEC, "snapshot_path": str(tmp_path / "s.json")})


def test_sync_saga_snapshot_is_prefix_invariant_and_restores(tmp_path):
    """Synchronous algorithms run in the same server loop: saga's payload
    at update 20 of a budget-30 run is byte-identical to a budget-20
    run's final payload, and a restore from it finishes the budget."""
    spec = {**ASAGA_SPEC, "algorithm": "saga", "max_updates": 30}
    long_file = tmp_path / "long.json"
    short_file = tmp_path / "short.json"
    run_experiment({**spec, "snapshot_every": 20,
                    "snapshot_path": str(long_file)})
    run_experiment({**spec, "max_updates": 20, "snapshot_every": 20,
                    "snapshot_path": str(short_file)})
    assert read_payload(long_file) == read_payload(short_file)
    snap = read_snapshot(long_file)
    assert snap["updates"] == snap["rounds"] == 20
    assert snap["run"]["algorithm"] == "saga[history]"

    resumed = run_experiment({**spec, "restore_from": str(long_file)})
    again = run_experiment({**spec, "restore_from": str(long_file)})
    assert resumed.extras["resumed_from_update"] == 20
    assert resumed.updates == 30
    assert _bits(resumed.w) == _bits(again.w)


def test_unset_crash_fields_keep_spec_keys_stable():
    # The canonical run key of a spec that never heard of snapshots must
    # not change — every pre-existing checkpoint line depends on it.
    spec = ExperimentSpec.coerce(SPEC)
    data = spec.to_dict()
    for field_name in ("snapshot_every", "snapshot_path", "restore_from",
                       "fault_plan"):
        assert field_name not in data
    assert run_key(spec) == run_key(ExperimentSpec.coerce(dict(SPEC)))


# ---------------------------------------------------------------------------
# In-process resume parity
# ---------------------------------------------------------------------------

def test_midrun_snapshot_equals_shorter_runs_final_file(tmp_path):
    """Snapshots are prefix-invariant: the payload a budget-60 run writes
    at update 40 is byte-identical to a budget-40 run's final payload."""
    long_file = tmp_path / "long.json"
    short_file = tmp_path / "short.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(long_file)})
    run_experiment({**SPEC, "max_updates": 40, "snapshot_every": 40,
                    "snapshot_path": str(short_file)})
    assert read_payload(long_file) == read_payload(short_file)
    assert read_snapshot(long_file)["updates"] == 40


def test_disk_restore_matches_in_process_restore(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})

    from_disk = run_experiment({**SPEC, "restore_from": str(snap_file)})
    again = run_experiment({**SPEC, "restore_from": str(snap_file)})
    in_process = replace(
        prepare_experiment(SPEC), restore_state=read_snapshot(snap_file)
    ).execute()

    assert from_disk.extras["resumed_from_update"] == 40
    assert from_disk.updates == 60
    assert np.array_equal(from_disk.w, again.w)          # deterministic
    assert np.array_equal(from_disk.w, in_process.w)     # same path
    assert from_disk.updates == in_process.updates


def test_restore_rejects_mismatched_run(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})
    for wrong in ({"num_workers": 2}, {"seed": 4}, {"algorithm": "asaga"}):
        with pytest.raises(SnapshotError, match="mismatch"):
            run_experiment({**SPEC, **wrong,
                            "restore_from": str(snap_file)})


def _w_as(state, fn):
    state["w"] = encode_value(fn(decode_value(state["w"])))


@pytest.mark.parametrize("field,corrupt", [
    ("unknown key 'server'", lambda s: s.update(server=[])),
    ("'run' must be an object", lambda s: s.update(run="asgd")),
    ("unknown key 'server'", lambda s: s.update(server={"history": [1]})),
    ("'updates' is -5", lambda s: s.update(updates=-5)),
    ("'updates' is 1000000", lambda s: s.update(updates=1_000_000)),
    ("'w' is float64 of shape", lambda s: _w_as(s, lambda w: w[:-1])),
    ("'w' is float32 of shape",
     lambda s: _w_as(s, lambda w: w.astype(np.float32))),
    ("'w' is float64 of shape \\(1, ", lambda s: _w_as(s, lambda w: w[None])),
], ids=["server-not-object", "run-not-object", "history-not-object",
        "negative-updates", "updates-past-budget", "w-wrong-length",
        "w-wrong-dtype", "w-wrong-ndim"])
def test_restore_refuses_a_hostile_snapshot_naming_the_field(
    tmp_path, field, corrupt,
):
    """A snapshot this run cannot continue is refused up front with a
    ``SnapshotError`` naming the field, never a numpy or attribute error
    later in the run."""
    state = _valid_state(tmp_path)
    corrupt(state)
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match=field):
        run_experiment({**SPEC, "restore_from": str(bad)})


def _with_old_svrg_history(state):
    """``state`` with the ``server`` section of an ASVRG snapshot from
    before epoch 7."""
    state["server"] = {"history": _old_svrg_history(decode_value(state["w"]))}
    return state["server"]["history"]


def _refused_for_its_server_section(tmp_path, state, spec=ASVRG_SPEC):
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*unknown key 'server'"):
        run_experiment({**spec, "restore_from": str(bad)})


@pytest.mark.parametrize("corrupt", [
    lambda ch: ch.update(values=[1.0]),
    lambda ch: ch.update(accounting="lots"),
    lambda ch: ch.update(values={"v5": ch["values"]["5"]}),
    lambda ch: ch.update(next_version="6"),
], ids=["values-not-object", "accounting-not-object", "version-key-not-int",
        "next-version-not-int"])
def test_restore_refuses_a_hostile_hist_channel_naming_the_field(
    tmp_path, corrupt,
):
    """A snapshot carries no HIST: a HIST channel, however hostile its
    fields, is refused by the ``server`` key it sits under, naming the
    file, before any field inside it is read."""
    _, state = _asvrg_snapshot_at_40(tmp_path)
    corrupt(_with_old_svrg_history(state)["svrg/anchor"])
    _refused_for_its_server_section(tmp_path, state)


@pytest.mark.parametrize("fn", [
    lambda v: v[:1], lambda v: v.astype(np.float32),
], ids=["one-element", "float32"])
def test_restore_refuses_a_hist_value_unlike_the_runs_own(tmp_path, fn):
    """A mid-epoch SVRG anchor unlike the model (a 1-element one would
    broadcast against every iterate) never reaches the run: no anchor is
    restored, and the section carrying it is refused."""
    _, state = _asvrg_snapshot_at_40(tmp_path)
    for channel in _with_old_svrg_history(state).values():
        (value,) = channel["values"].values()
        channel["values"]["5"] = encode_value(fn(decode_value(value)))
    _refused_for_its_server_section(tmp_path, state)


def test_restore_refuses_a_hist_channel_the_run_does_not_keep(tmp_path):
    """The run keeps its SVRG channels in memory only; a snapshot that
    adds one more is refused like any HIST, not created."""
    _, state = _asvrg_snapshot_at_40(tmp_path)
    history = _with_old_svrg_history(state)
    history["svrg/stale"] = dict(history["svrg/mu"], name="svrg/stale")
    _refused_for_its_server_section(tmp_path, state)


def test_restore_refuses_an_unbounded_hist_channel(tmp_path):
    """Naive SAGA's table is a channel the run keeps, but its setup
    rebuilds it, so a snapshot carrying one is refused up front."""
    naive = {**ASAGA_SPEC, "params": {"mode": "naive"}}
    snap_file = tmp_path / "naive.json"
    run_experiment({**naive, "max_updates": 20, "snapshot_every": 20,
                    "snapshot_path": str(snap_file)})
    state = json.loads(read_payload(snap_file))
    state["server"] = {"history": {"saga/table": {
        "name": "saga/table", "keep": "all", "next_version": 3,
        "accounting": {}, "values": {},
    }}}
    _refused_for_its_server_section(tmp_path, state, naive)


def test_snapshot_header_carries_the_trajectory_epoch(tmp_path):
    state = _valid_state(tmp_path)
    assert state["format"] == SNAPSHOT_FORMAT
    assert state["trajectory_epoch"] == TRAJECTORY_EPOCH


@pytest.mark.parametrize("epoch", ["missing", "previous", "next"])
def test_restore_refuses_another_trajectory_epoch(tmp_path, epoch):
    """A snapshot of another generation of trajectories cannot continue
    here: its continuation is not what this code computes. The other
    epochs are this code's neighbours, so a bump keeps them "other"."""
    state = _valid_state(tmp_path)
    if epoch == "missing":
        del state["trajectory_epoch"]
    else:
        step = -1 if epoch == "previous" else 1
        state["trajectory_epoch"] = TRAJECTORY_EPOCH + step
    other = _write_state(tmp_path / "other.json", state)
    with pytest.raises(SnapshotError, match="other.json.*trajectory epoch"):
        run_experiment({**SPEC, "restore_from": str(other)})


def test_snapshots_written_extra_counts_files(tmp_path):
    snap_file = tmp_path / "snap.json"
    result = run_experiment({**SPEC, "snapshot_every": 20,
                             "snapshot_path": str(snap_file)})
    assert result.extras["snapshots_written"] == 3  # at 20, 40, 60
    assert read_snapshot(snap_file)["updates"] == 60


# ---------------------------------------------------------------------------
# SIGKILL at an arbitrary moment: the crash the feature exists for
# ---------------------------------------------------------------------------

def _kill_after_updates(cmd, snap_file, min_updates, cwd=None):
    """Run ``cmd``, SIGKILL it once the snapshot shows >= min_updates."""
    proc = subprocess.Popen(
        cmd, env=ENV, cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 90.0
    try:
        while True:
            assert time.monotonic() < deadline, "snapshot never advanced"
            assert proc.poll() is None, \
                "run finished before it could be killed; raise max_updates"
            try:
                if read_snapshot(snap_file)["updates"] >= min_updates:
                    break
            except SnapshotError:
                pass  # not written yet, or mid-poll; retry
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)


@pytest.mark.parametrize("min_updates", [30, 120])
def test_sigkill_sim_backend_resumes_bit_identically(tmp_path, min_updates):
    snap_file = tmp_path / "snap.json"
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({**SPEC, "max_updates": 2_000_000}))
    _kill_after_updates(
        [sys.executable, "-m", "repro", "run", str(spec_file),
         "--snapshot", str(snap_file), "--snapshot-every", "15"],
        snap_file, min_updates,
    )
    snap = read_snapshot(snap_file)  # a torn slot falls back, never fails
    k = snap["updates"]
    assert k >= min_updates and k % 15 == 0

    # The killed run's newest payload is byte-identical to the payload of
    # a run budgeted to stop exactly at K — the snapshot captured a real
    # prefix of the run.
    ref_file = tmp_path / "ref.json"
    run_experiment({**SPEC, "max_updates": k, "snapshot_every": k,
                    "snapshot_path": str(ref_file)})
    assert read_payload(snap_file) == read_payload(ref_file)

    # Resuming the killed run continues exactly like the in-process
    # restore path continuing the reference run.
    resumed = run_experiment(
        {**SPEC, "max_updates": k + 45, "restore_from": str(snap_file)}
    )
    in_process = replace(
        prepare_experiment({**SPEC, "max_updates": k + 45}),
        restore_state=read_snapshot(ref_file),
    ).execute()
    assert resumed.extras["resumed_from_update"] == k
    assert resumed.updates == k + 45
    assert np.array_equal(resumed.w, in_process.w)
