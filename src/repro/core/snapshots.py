"""Mid-run crash-recovery snapshots for the asynchronous server loop.

A *run snapshot* is everything :class:`~repro.optim.loop.ServerLoop`
needs to continue a killed run from the moment update ``K`` applied:
the model iterate, the update/round counters, the model version, and
the loop's checkpointable server state (policy RNG/counters, placement
overlay, bounded HIST channels). It deliberately excludes anything a
resumed process re-derives (dataset, problem, step schedule) and
anything that varies between an interrupted run and a shorter reference
run of the same spec (``max_updates``, wall timestamps) — so the
snapshot a run writes the instant update ``K`` applies is **byte
identical** to the final snapshot of the same spec run with
``max_updates=K``. Tests and the recovery bench lean on that.

The file is one JSON object (sorted keys, no whitespace) whose arrays
are :func:`~repro.core.history.to_jsonable` records: the array's raw
little-endian bytes in base64 plus an explicit dtype and shape, so the
encode is a byte copy rather than a float-to-text conversion, every bit
survives (NaN payloads, -0.0) and the JSON stays strict. Files from
earlier versions, whose arrays are JSON lists, still load.

Writes are atomic (temp file in the same directory, ``fsync``, then
``os.replace``): a writer SIGKILLed mid-write can never corrupt the
previous snapshot, so "restore from the latest snapshot" is always
well defined. :func:`read_snapshot` checks the counters and decodes
every array before a run sees the state, so a malformed file fails as a
:class:`~repro.errors.SnapshotError` naming the path, not as a numpy
error halfway through a restore.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.history import from_jsonable, to_jsonable
from repro.errors import HistoryError, SnapshotError

__all__ = [
    "SNAPSHOT_FORMAT",
    "is_run_snapshot",
    "write_snapshot",
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

# One codec for all run state: the HIST JSON codec round-trips ndarrays
# bit-exact, which is what makes resume trajectories identical.
encode_value = to_jsonable
decode_value = from_jsonable


def is_run_snapshot(state: Any) -> bool:
    """True when ``state`` is a full run snapshot (vs. a bare
    ``ServerLoop.state_dict()`` server-state mapping)."""
    return isinstance(state, dict) and state.get("format") == SNAPSHOT_FORMAT


def write_snapshot(path: str | os.PathLike, state: dict) -> None:
    """Atomically replace ``path`` with ``state`` as sorted, compact JSON."""
    target = Path(path)
    payload = json.dumps(
        state, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"
    tmp = target.with_name(target.name + ".tmp")
    try:
        fd = os.open(
            tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except OSError as exc:
        raise SnapshotError(
            f"cannot write snapshot {str(target)!r}: {exc}"
        ) from exc


def read_snapshot(path: str | os.PathLike) -> dict:
    """Load and validate a run snapshot written by :func:`write_snapshot`.

    Returns the state as stored (arrays still encoded, as
    ``ServerLoop`` expects), after checking that the counters are
    integers and that ``w`` and every other array record decode.
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    """Cadenced snapshot writes: one atomic file replace every
    ``every`` applied updates."""

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
