"""The HIST subsystem (Section 4.3): server-side bounded history.

The paper's second pillar alongside ``STAT``: asynchronous methods that
use *history* — variance reduction over past iterates (SAGA/SVRG),
curvature pairs harvested from stale results (async L-BFGS) — all need
the same server-side structure: named, versioned stores of historical
values with explicit bounds on what is retained. This module owns that
structure once:

- :class:`HistoryChannel` — one named, versioned sequence of frozen
  values. Appends assign monotonically increasing version ids; reads are
  by version. Every channel carries a :class:`RetentionPolicy` and byte
  accounting (current footprint, lifetime appended/evicted volume).
- :class:`HistoryStore` — the coordinator-owned registry of channels
  (the ``HIST`` table, mirroring ``STAT``'s role), with per-channel
  accounting surfaced into ``RunResult.extras`` and snapshot/restore
  hooks for checkpointing.

Retention policies are spelled as data so specs and constructors share
one vocabulary:

==============  =============================================================
spelling        meaning
==============  =============================================================
``"all"``       keep every version (the broadcast-history default: workers
                may re-reference any past version by id)
``"last:k"``    keep only the ``k`` most recent versions (bounded deques:
                L-BFGS curvature pairs, SAGA's running average)
``"window:ms"`` keep versions appended within the last ``ms`` of cluster
                time (sliding windows over recent iterates)
==============  =============================================================

Eviction happens on append and never removes the newest version. Reads
of an evicted (or never-written) version raise ``BroadcastError`` — the
same contract the ASYNCbroadcaster always had, since its channels are
these channels (:mod:`repro.core.broadcaster` is the transport view over
a HIST channel).
"""

from __future__ import annotations

import base64
import itertools
import math
from typing import Any, Callable, Iterator

import numpy as np

from repro.comm.measure import payload_nbytes
from repro.errors import BroadcastError, HistoryError

__all__ = [
    "RetentionPolicy",
    "HistoryChannel",
    "HistoryStore",
    "freeze_value",
    "to_jsonable",
    "from_jsonable",
]


def freeze_value(value: Any) -> Any:
    """Return a read-only view of ``value`` (recursing into tuples).

    History is immutable by contract: a stored version must read back
    bit-identical forever, so ndarrays are frozen before storage and
    tuples of arrays (e.g. ``(s, y, rho)`` curvature pairs) freeze
    elementwise. Other values — including lists — pass through
    unchanged: the broadcaster has always stored list payloads as-is,
    and changing their type under existing callers would break the
    ``broadcast(value) -> value`` round-trip.
    """
    if isinstance(value, np.ndarray):
        view = value.view()
        view.flags.writeable = False
        return view
    if isinstance(value, tuple):
        return tuple(freeze_value(v) for v in value)
    return value


class RetentionPolicy:
    """How many versions a channel keeps (``all`` / ``last:k`` / ``window:ms``)."""

    def __init__(self, kind: str, bound: float | None = None) -> None:
        if kind not in ("all", "last", "window"):
            raise HistoryError(f"unknown retention kind {kind!r}")
        if kind == "last" and (bound is None or int(bound) < 1):
            raise HistoryError("last:k retention needs k >= 1")
        if kind == "window" and (bound is None or bound <= 0):
            raise HistoryError("window:ms retention needs a positive window")
        self.kind = kind
        self.bound = None if kind == "all" else float(bound)

    @classmethod
    def parse(cls, spec: "RetentionPolicy | str | None") -> "RetentionPolicy":
        """Coerce a spelling (``"all"``, ``"last:4"``, ``"window:250"``)."""
        if spec is None:
            return cls("all")
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise HistoryError(
                f"cannot interpret {spec!r} as a retention policy "
                "(expected 'all', 'last:k' or 'window:ms')"
            )
        name, _, arg = spec.partition(":")
        if name == "all":
            if arg:
                raise HistoryError("retention 'all' takes no argument")
            return cls("all")
        if name in ("last", "window"):
            try:
                bound = float(arg)
            except ValueError:
                raise HistoryError(
                    f"retention {spec!r} needs a numeric argument"
                ) from None
            return cls(name, bound)
        raise HistoryError(
            f"unknown retention policy {spec!r}; "
            "expected 'all', 'last:k' or 'window:ms'"
        )

    @property
    def bounded(self) -> bool:
        """Whether the channel's footprint is bounded independent of T."""
        return self.kind != "all"

    def describe(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "last":
            return f"last:{int(self.bound)}"
        return f"window:{self.bound:g}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RetentionPolicy)
            and (self.kind, self.bound) == (other.kind, other.bound)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RetentionPolicy({self.describe()!r})"


class HistoryChannel:
    """One named, versioned sequence of server-side history.

    Every append freezes the value, assigns the next version id, stamps
    the store's clock and charges the byte accountants; retention then
    evicts from the oldest end. ``prune_below`` remains available for
    callers that manage lifetimes themselves (e.g. SAGA once every
    worker's table has advanced past a version).
    """

    def __init__(
        self,
        channel_id: int,
        name: str,
        keep: RetentionPolicy | str | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.channel_id = channel_id
        self.name = name
        self.keep = RetentionPolicy.parse(keep)
        #: None = no clock: appends stamp 0.0 unless the caller passes
        #: explicit timestamps, and implicit stamping under ``window:ms``
        #: retention raises (a constant clock would never evict).
        self._clock = clock
        self._next_version = 0
        self._values: dict[int, Any] = {}
        self._nbytes: dict[int, int] = {}
        self._stamped_ms: dict[int, float] = {}
        #: Current footprint of retained versions, in bytes.
        self.total_stored_bytes = 0
        #: Lifetime bytes ever appended (monotone non-decreasing).
        self.appended_bytes = 0
        #: Lifetime bytes evicted/pruned (monotone non-decreasing).
        self.evicted_bytes = 0
        #: Lifetime count of versions evicted/pruned.
        self.evicted_versions = 0

    # -- writes ------------------------------------------------------------------
    def append(self, value: Any, timestamp_ms: float | None = None) -> int:
        """Store a new version; returns its id. Retention runs after."""
        if timestamp_ms is None:
            if self._clock is None and self.keep.kind == "window":
                raise HistoryError(
                    f"channel '{self.name}' has window retention but no "
                    "clock; pass timestamp_ms explicitly or open the "
                    "channel on a clocked store (e.g. ac.history)"
                )
            timestamp_ms = 0.0 if self._clock is None else float(self._clock())
        version = self._next_version
        self._next_version += 1
        self._values[version] = freeze_value(value)
        # HIST and the COMM ledger quote the same wire measure, so
        # "history bytes stored" and "broadcast bytes shipped" are
        # directly comparable in RunResult.extras.
        nbytes = payload_nbytes(value)
        self._nbytes[version] = nbytes
        self._stamped_ms[version] = float(timestamp_ms)
        self.total_stored_bytes += nbytes
        self.appended_bytes += nbytes
        self._evict(version)
        return version

    def _evict(self, newest: int) -> None:
        if self.keep.kind == "last":
            floor = newest - int(self.keep.bound) + 1
            if floor > 0:
                self._drop(v for v in list(self._values) if v < floor)
        elif self.keep.kind == "window":
            horizon = self._stamped_ms[newest] - self.keep.bound
            self._drop(
                v for v in list(self._values)
                if v != newest and self._stamped_ms[v] < horizon
            )

    def _drop(self, versions) -> int:
        freed = 0
        for v in versions:
            del self._values[v]
            self._stamped_ms.pop(v, None)
            freed += self._nbytes.pop(v, 0)
            self.evicted_versions += 1
        self.total_stored_bytes -= freed
        self.evicted_bytes += freed
        return freed

    def prune_below(self, min_version: int) -> int:
        """Drop versions older than ``min_version``; returns bytes freed.

        Callers must guarantee no live reference to pruned versions
        remains — a read of a pruned version raises.
        """
        return self._drop(v for v in list(self._values) if v < min_version)

    # -- reads -------------------------------------------------------------------
    def get(self, version: int) -> Any:
        try:
            return self._values[version]
        except KeyError:
            raise BroadcastError(
                f"channel '{self.name}' has no version {version} "
                "(pruned or never broadcast)"
            ) from None

    def latest(self) -> Any:
        """The newest stored value."""
        return self._values[self.latest_version()]

    def latest_version(self) -> int:
        if not self._values:
            raise BroadcastError(f"channel '{self.name}' is empty")
        return max(self._values)

    def nbytes(self, version: int) -> int:
        return self._nbytes.get(version, 0)

    def timestamp_ms(self, version: int) -> float | None:
        """Cluster time at which ``version`` was appended (None if gone)."""
        return self._stamped_ms.get(version)

    def __contains__(self, version: int) -> bool:
        return version in self._values

    def __len__(self) -> int:
        return len(self._values)

    def versions(self) -> list[int]:
        return sorted(self._values)

    def values(self) -> list[Any]:
        """Retained values, oldest first (the L-BFGS two-loop order)."""
        return [self._values[v] for v in self.versions()]

    # -- accounting / checkpointing ------------------------------------------------
    def accounting(self) -> dict:
        """Plain-data byte accounting (one row of ``extras['history']``)."""
        return {
            "keep": self.keep.describe(),
            "versions": len(self._values),
            "stored_bytes": self.total_stored_bytes,
            "appended_bytes": self.appended_bytes,
            "evicted_versions": self.evicted_versions,
            "evicted_bytes": self.evicted_bytes,
        }

    def snapshot(self, include_values: bool = True) -> dict:
        """Checkpointable state; ``restore`` rebuilds it exactly.

        ``include_values=False`` captures accounting and version ids only
        (for unbounded channels whose payload would dominate a
        checkpoint).
        """
        snap = {
            "name": self.name,
            "keep": self.keep.describe(),
            "next_version": self._next_version,
            "accounting": self.accounting(),
        }
        if include_values:
            # The retained-version id list is only needed (and only
            # bounded) when values travel with it; a metadata capture of
            # an unbounded channel stays O(1) regardless of run length.
            snap["versions"] = self.versions()
            snap["values"] = {
                int(v): to_jsonable(self._values[v]) for v in self.versions()
            }
            snap["timestamps_ms"] = {
                int(v): self._stamped_ms[v] for v in self.versions()
            }
        return snap

    def restore(self, snap: dict) -> None:
        """Reinstate a :meth:`snapshot` (with values) onto this channel.

        The channel's own retention policy is authoritative: restoring a
        snapshot captured under a *different* policy is a contract error
        (silently adopting the snapshot's would let a resumed run keep
        more — or less — history than it was configured for).
        """
        if "values" not in snap:
            raise HistoryError(
                f"snapshot of channel '{snap.get('name')}' carries no "
                "values (captured with include_values=False)"
            )
        snap_keep = RetentionPolicy.parse(snap["keep"])
        if snap_keep != self.keep:
            raise HistoryError(
                f"cannot restore channel '{self.name}': snapshot retention "
                f"{snap_keep.describe()!r} conflicts with the channel's "
                f"{self.keep.describe()!r}"
            )
        self._values = {
            int(v): freeze_value(from_jsonable(val))
            for v, val in snap["values"].items()
        }
        self._stamped_ms = {
            int(v): float(t) for v, t in snap.get("timestamps_ms", {}).items()
        }
        self._nbytes = {
            v: payload_nbytes(val) for v, val in self._values.items()
        }
        self.total_stored_bytes = sum(self._nbytes.values())
        acct = snap.get("accounting", {})
        self.appended_bytes = int(
            acct.get("appended_bytes", self.total_stored_bytes)
        )
        self.evicted_bytes = int(acct.get("evicted_bytes", 0))
        self.evicted_versions = int(acct.get("evicted_versions", 0))
        self._next_version = int(snap["next_version"])

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HistoryChannel({self.name!r}, keep={self.keep.describe()}, "
            f"versions={len(self._values)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )


#: ndarray kinds the checkpoint codec carries: bool, signed/unsigned
#: int, float, complex — everything ``src/`` stores in HIST or snapshots.
_ARRAY_KINDS = "biufc"


def to_jsonable(value: Any) -> Any:
    """Encode a stored value for JSON checkpoints (arrays -> typed dicts).

    An ndarray becomes ``{"__ndarray__": <base64 of its raw bytes, C
    order, little-endian>, "dtype": <explicit little-endian dtype str,
    e.g. "<f8">, "shape": [...]}``, so every bit survives — NaN payloads
    and -0.0 included — and the JSON stays strict (no bare ``NaN``).
    Arrays of any other kind (object, string, datetime, void) raise
    :class:`~repro.errors.HistoryError`. The inverse of
    :func:`from_jsonable`; shared with ``core.snapshots``.
    """
    if isinstance(value, np.ndarray):
        dtype = value.dtype
        if dtype.kind not in _ARRAY_KINDS:
            raise HistoryError(
                f"cannot checkpoint an ndarray of dtype {dtype} "
                f"(supported kinds: {_ARRAY_KINDS})"
            )
        dtype = dtype.newbyteorder("<")
        return {
            "__ndarray__": base64.b64encode(
                value.astype(dtype, copy=False).tobytes()
            ).decode("ascii"),
            "dtype": dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def from_jsonable(value: Any) -> Any:
    """Decode :func:`to_jsonable` output (lists come back as tuples).

    Arrays come back writable and in native byte order. The list form
    earlier versions wrote (``"__ndarray__": [...]`` with a numpy dtype
    name) is still read, so their snapshots, HIST channel snapshots and
    sweep-checkpoint ``run_state`` keep loading; nothing writes it. A
    malformed array record raises :class:`~repro.errors.HistoryError`.
    """
    if isinstance(value, dict) and "__ndarray__" in value:
        # KeyError: a missing "dtype"/"shape"; TypeError: an unparseable
        # dtype or shape; ValueError: bad base64, a wrong byte count, a
        # list-form length mismatch.
        try:
            return _decode_array(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise HistoryError(f"malformed array record: {exc}") from exc
    if isinstance(value, list):
        return tuple(from_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    return value


def _decode_array(record: dict) -> np.ndarray:
    data = record["__ndarray__"]
    if not isinstance(data, str):  # legacy list form
        return np.array(data, dtype=record.get("dtype", "float64")).reshape(
            record.get("shape", -1)
        )
    dtype = np.dtype(record["dtype"])
    if dtype.kind not in _ARRAY_KINDS:
        raise ValueError(f"unsupported dtype {dtype}")
    shape = tuple(int(s) for s in record["shape"])
    if any(s < 0 for s in shape):
        raise ValueError(f"negative shape {list(shape)}")
    raw = base64.b64decode(data, validate=True)
    want = math.prod(shape) * dtype.itemsize
    if len(raw) != want:
        raise ValueError(
            f"{len(raw)} bytes for shape {list(shape)} of {dtype.str} "
            f"(expected {want})"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("="), copy=True
    )


class HistoryStore:
    """The coordinator-owned ``HIST`` table: named channels of history.

    Mirrors ``STAT``'s role for the paper's second pillar: where ``STAT``
    tracks *who computed what, when*, ``HIST`` stores *what was computed*
    — model versions for history broadcast, running aggregates for
    variance reduction, curvature pairs for quasi-Newton methods. One
    store exists per asynchronous run (the :class:`~repro.core.context.
    ASYNCContext` hands it to its coordinator and broadcaster), so every
    consumer shares channel ids, accounting, and checkpointing.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        #: None = unclocked store: fine for version-count retention
        #: (``all`` / ``last:k``), rejected at append time by ``window``
        #: channels unless timestamps are passed explicitly.
        self.clock = clock
        self._channel_ids = itertools.count()
        self._channels: dict[str, HistoryChannel] = {}

    def channel(
        self, name: str, keep: RetentionPolicy | str | None = None
    ) -> HistoryChannel:
        """The named channel, created on first access.

        ``keep`` sets the retention policy at creation time; passing a
        *different* policy for an existing channel is a contract error
        (two consumers disagreeing about bounds), while ``None`` or the
        same policy reads the channel as-is.
        """
        ch = self._channels.get(name)
        if ch is None:
            ch = HistoryChannel(
                next(self._channel_ids), name, keep=keep, clock=self.clock
            )
            self._channels[name] = ch
        elif keep is not None and RetentionPolicy.parse(keep) != ch.keep:
            raise HistoryError(
                f"channel '{name}' already exists with retention "
                f"{ch.keep.describe()!r}; cannot reopen with "
                f"{RetentionPolicy.parse(keep).describe()!r}"
            )
        return ch

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def __iter__(self) -> Iterator[HistoryChannel]:
        return iter(self._channels.values())

    def __len__(self) -> int:
        return len(self._channels)

    def names(self) -> list[str]:
        return list(self._channels)

    @property
    def total_stored_bytes(self) -> int:
        return sum(ch.total_stored_bytes for ch in self._channels.values())

    def accounting(self) -> dict:
        """Per-channel byte accounting (``RunResult.extras['history']``)."""
        return {
            name: ch.accounting() for name, ch in self._channels.items()
        }

    # -- checkpointing -------------------------------------------------------------
    def snapshot(self, bounded_only: bool = False) -> dict:
        """JSON-safe snapshot of every channel.

        ``bounded_only=True`` captures values only for channels whose
        retention is bounded (``last:k`` / ``window:ms``) — the
        restartable server state (curvature pairs, running averages,
        epoch anchors) — and accounting metadata for unbounded ones,
        whose payload grows with the run and is reconstructible from the
        optimizer's own setup pass.
        """
        return {
            name: ch.snapshot(
                include_values=ch.keep.bounded or not bounded_only
            )
            for name, ch in self._channels.items()
        }

    def restore(self, snap: dict) -> None:
        """Reinstate channels from a :meth:`snapshot`.

        Missing channels are created with the snapshot's retention; a
        channel that already exists keeps its configured policy, and a
        snapshot captured under a different one raises (resuming a run
        whose bounds changed must fail loudly, not silently widen them).
        Entries captured without values (unbounded channels under
        ``bounded_only=True``) are skipped — their owners rebuild them
        through their own setup path.
        """
        for name, ch_snap in snap.items():
            if "values" not in ch_snap:
                continue  # metadata-only capture; owner rebuilds it
            self.channel(name, keep=ch_snap.get("keep")).restore(ch_snap)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HistoryStore(channels={self.names()}, "
            f"stored_bytes={self.total_stored_bytes})"
        )
