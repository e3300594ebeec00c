"""Mid-run crash-recovery snapshots for the asynchronous server loop.

A *run snapshot* is everything :class:`~repro.optim.loop.ServerLoop`
needs to continue a killed run from the moment update ``K`` applied:
the model iterate, the update/round counters (the update count is
also the model version) and the loop's checkpointable server state (its
bounded HIST channels). It deliberately excludes anything a resumed
process re-derives (dataset, problem, step schedule, and whatever the
rule's setup rebuilds at the restored iterate: a restore re-anchors
SAGA there, so a snapshot never needs SAGA's model channel, its table
of stored versions or its running average) and
anything that varies between an interrupted run and a shorter reference
run of the same spec (``max_updates``, wall timestamps) — so the
payload a run writes the instant update ``K`` applies is **byte
identical** to the final payload of the same spec run with
``max_updates=K``. Tests and the recovery bench lean on that.

The payload is one JSON object (sorted keys, no whitespace) whose
arrays are :func:`~repro.core.history.to_jsonable` records: the array's
raw little-endian bytes in base64 plus an explicit dtype and shape, so
the encode is a byte copy rather than a float-to-text conversion, every
bit survives (NaN payloads, -0.0) and the JSON stays strict.

The file holds two slots of ``S`` bytes each (``S`` a power of two of
at least 4 KiB and at least twice the record, so a write to one slot
never touches the other's pages). A slot is one ASCII header line —
magic, sequence number, payload length, CRC-32 of the payload, ``S`` —
followed by the payload, so ``head`` shows the snapshot. A write
overwrites, in place, the slot that does not hold the newest intact
record, with the next sequence number, and flushes it with
``fdatasync``: the blocks already exist, so no metadata changes and
the flush is data only. A writer SIGKILLed mid-write tears at most the
slot it was writing, and :func:`read_snapshot` then returns the other
one, the previous snapshot. Only when there is no slotted file to
overwrite (the file is missing, not slotted, not two slots long or
without an intact slot, or the record outgrew ``S``) is the whole file
rebuilt: a temp file in the same directory, ``fsync``, then
``os.replace``. Reading a file that does not start with the slot magic
is a :class:`~repro.errors.SnapshotError`.

:func:`read_snapshot` checks the trajectory epoch and the counters and
decodes every array before a run sees the state, so a malformed file,
or one of another epoch, fails as a :class:`~repro.errors.SnapshotError`
naming the path, not as a numpy error halfway through a restore.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.core.history import from_jsonable, to_jsonable
from repro.errors import HistoryError, SnapshotError
from repro.utils.rng import TRAJECTORY_EPOCH

__all__ = [
    "SNAPSHOT_FORMAT",
    "is_run_snapshot",
    "write_snapshot",
    "read_payload",
    "read_snapshot",
    "SnapshotWriter",
    "encode_value",
    "decode_value",
]

#: Format tag stamped into every snapshot; ``read_snapshot`` rejects
#: files without it (e.g. a sweep checkpoint passed by mistake).
SNAPSHOT_FORMAT = "repro/run-snapshot@1"

#: Integer counters every run snapshot carries beside the model ``w``.
_COUNTERS = ("updates", "rounds", "epoch_rounds_left")

#: First bytes of a slotted snapshot file and of each slot's header.
_MAGIC = b"repro/snapshot-slot@1 "
_HEADER = re.compile(
    re.escape(_MAGIC)
    + rb"seq=(\d{16}) len=(\d{10}) crc=([0-9a-f]{8}) slot=(\d{10})\n"
)
#: The smallest slot: one page, so the two slots never share one.
_MIN_SLOT = 4096

# A data-only flush where the platform has one.
_datasync = getattr(os, "fdatasync", os.fsync)

# One codec for all run state: the HIST JSON codec round-trips ndarrays
# bit-exact, which is what makes resume trajectories identical.
encode_value = to_jsonable
decode_value = from_jsonable


def is_run_snapshot(state: Any) -> bool:
    """True when ``state`` carries the run-snapshot format tag."""
    return isinstance(state, dict) and state.get("format") == SNAPSHOT_FORMAT


def _record(seq: int, payload: bytes, slot: int) -> bytes:
    """One slot's content: the header line, then the payload."""
    header = _MAGIC + b"seq=%016d len=%010d crc=%08x slot=%010d\n" % (
        seq, len(payload), zlib.crc32(payload), slot,
    )
    return header + payload


_HEADER_LEN = len(_record(0, b"", 0))


class _Slot(NamedTuple):
    seq: int
    offset: int
    size: int
    payload: bytes


def _intact(data: bytes, offset: int) -> _Slot | None:
    """The record at ``offset`` if its header parses, its payload lies
    inside its slot and the payload's CRC matches; else ``None``."""
    match = _HEADER.fullmatch(data, offset, offset + _HEADER_LEN)
    if match is None:
        return None
    length, size = int(match[2]), int(match[4])
    if size < _MIN_SLOT or _HEADER_LEN + length > size:
        return None
    start = offset + _HEADER_LEN
    payload = data[start:start + length]
    if len(payload) != length or zlib.crc32(payload) != int(match[3], 16):
        return None
    return _Slot(int(match[1]), offset, size, payload)


def _newest(data: bytes) -> _Slot | None:
    """The newest intact slot of a slotted file's bytes, or ``None``.

    Slot 0 is at offset 0. Slot 1 is at offset ``S``, found as the
    power-of-two offset whose intact header names ``S`` itself, so it is
    found even when slot 0's header is torn.
    """
    found = [_intact(data, 0)]
    offset = _MIN_SLOT
    while offset + _HEADER_LEN <= len(data):
        slot = _intact(data, offset)
        if slot is not None and slot.size == offset:
            found.append(slot)
            break
        offset *= 2
    return max(
        filter(None, found), key=lambda slot: slot.seq, default=None
    )


def _overwrite_slot(target: Path, payload: bytes) -> bool:
    """Write ``payload`` in place into the slot of ``target`` that does
    not hold the newest intact record, then flush its data. False (and
    nothing written) when there is no slotted file the record fits."""
    try:
        fd = os.open(target, os.O_RDWR)
    except FileNotFoundError:
        return False
    try:
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        newest = _newest(data)
        if newest is None:
            return False
        size = newest.size
        if len(data) != 2 * size or _HEADER_LEN + len(payload) > size:
            return False
        record = _record(newest.seq + 1, payload, size)
        os.pwrite(fd, record, size - newest.offset)
        _datasync(fd)
    finally:
        os.close(fd)
    return True


def _replace_file(target: Path, payload: bytes) -> None:
    """Build a fresh two-slot file holding ``payload`` in slot 0 and
    atomically put it at ``target`` (temp file, ``fsync``, rename).

    Both slots are written out as bytes, not sized with ``ftruncate``,
    so every later in-place write lands on allocated blocks.
    """
    size = _MIN_SLOT
    while size < 2 * (_HEADER_LEN + len(payload)):
        size *= 2
    record = _record(1, payload, size)
    tmp = target.with_name(target.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, record + bytes(2 * size - len(record)))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, target)


def write_snapshot(path: str | os.PathLike, state: dict) -> None:
    """Durably store ``state`` as sorted, compact JSON at ``path``.

    On return the record is on disk and the previous snapshot, if any,
    is still intact in the other slot.
    """
    # Re-wrapping a ``Path`` re-parses every component of it.
    target = path if isinstance(path, Path) else Path(path)
    payload = json.dumps(
        state, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"
    try:
        if not _overwrite_slot(target, payload):
            _replace_file(target, payload)
    except OSError as exc:
        raise SnapshotError(
            f"cannot write snapshot {str(target)!r}: {exc}"
        ) from exc


def read_payload(path: str | os.PathLike) -> bytes:
    """The JSON bytes of the newest intact slot of the snapshot file at
    ``path``."""
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot {str(target)!r}: {exc}"
        ) from exc
    if not data.startswith(_MAGIC):
        raise SnapshotError(
            f"{str(target)!r} is not a slotted snapshot file: it does not "
            f"start with {_MAGIC.decode().strip()!r}"
        )
    newest = _newest(data)
    if newest is None:
        raise SnapshotError(
            f"{str(target)!r} has no intact snapshot slot: both are torn "
            "or corrupt"
        )
    return newest.payload


def read_snapshot(path: str | os.PathLike) -> dict:
    """Load and validate a run snapshot written by :func:`write_snapshot`.

    Returns the newest intact state as stored (arrays still encoded, as
    ``ServerLoop`` expects), after checking that it is of this code's
    trajectory epoch, that the counters are integers and that ``w`` and
    every other array record decode.
    """
    target = Path(path)
    try:
        text = read_payload(target).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(
            f"cannot read snapshot {str(target)!r}: {exc}"
        ) from exc
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"{str(target)!r} is not a valid snapshot: {exc}"
        ) from exc
    if not is_run_snapshot(state):
        raise SnapshotError(
            f"{str(target)!r} is not a {SNAPSHOT_FORMAT} file"
        )
    epoch = state.get("trajectory_epoch")
    if epoch != TRAJECTORY_EPOCH:
        raise SnapshotError(
            f"{str(target)!r}: trajectory epoch is {epoch!r}, this code's "
            f"is {TRAJECTORY_EPOCH} — its run cannot be continued here"
        )
    for key in (*_COUNTERS, "w"):
        if key not in state:
            raise SnapshotError(f"{str(target)!r}: missing {key!r}")
    for key in _COUNTERS:
        if type(state[key]) is not int:
            raise SnapshotError(
                f"{str(target)!r}: {key!r} must be an integer, "
                f"got {state[key]!r}"
            )
    try:
        decoded = from_jsonable(state)
    except HistoryError as exc:
        raise SnapshotError(f"{str(target)!r}: {exc}") from exc
    if not isinstance(decoded["w"], np.ndarray):
        raise SnapshotError(f"{str(target)!r}: 'w' is not an array record")
    return state


class SnapshotWriter:
    """Cadenced snapshot writes: one :func:`write_snapshot` (an
    in-place slot overwrite and a data flush) every ``every`` applied
    updates."""

    def __init__(self, path: str | os.PathLike, every: int) -> None:
        every = int(every)
        if every < 1:
            raise SnapshotError(
                f"snapshot cadence must be >= 1, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.written = 0

    def due(self, updates: int) -> bool:
        return updates > 0 and updates % self.every == 0

    def write(self, state: dict) -> None:
        write_snapshot(self.path, state)
        self.written += 1
