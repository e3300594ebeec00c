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
  accounting surfaced into ``RunResult.extras``.

HIST lives in server memory only, as in the paper: a run snapshot
(:mod:`repro.core.snapshots`) carries none of it. A restored run's rule
rebuilds its channels at the restored iterate, the way Spark recomputes
lost state instead of checkpointing it: SAGA and SVRG with one full
pass, async L-BFGS by starting again without curvature pairs.

Retention policies are spelled as data so specs and constructors share
one vocabulary:

==============  =============================================================
spelling        meaning
==============  =============================================================
``"all"``       keep every version (the broadcast-history default: workers
                may re-reference any past version by id)
``"last:k"``    keep only the ``k`` most recent versions, ``k`` a whole
                number >= 1 (bounded deques: L-BFGS curvature pairs,
                SVRG's epoch anchor)
==============  =============================================================

Eviction happens on append and never removes the newest version. Reads
of an evicted (or never-written) version raise ``BroadcastError`` — the
same contract the ASYNCbroadcaster always had, since its channels are
these channels (:mod:`repro.core.broadcaster` is the transport view over
a HIST channel).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterator

import numpy as np

from repro.errors import BroadcastError, HistoryError
from repro.utils.sizeof import sizeof_bytes

__all__ = [
    "RetentionPolicy",
    "HistoryChannel",
    "HistoryStore",
    "freeze_value",
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
    """How many versions a channel keeps (``all`` / ``last:k``)."""

    def __init__(self, kind: str, bound: int | None = None) -> None:
        if kind not in ("all", "last"):
            raise HistoryError(f"unknown retention kind {kind!r}")
        self.kind = kind
        self.bound = None if kind == "all" else _last_bound(bound)

    @classmethod
    def parse(cls, spec: "RetentionPolicy | str | None") -> "RetentionPolicy":
        """Coerce a spelling (``"all"``, ``"last:4"``)."""
        if spec is None:
            return cls("all")
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise HistoryError(
                f"cannot interpret {spec!r} as a retention policy "
                "(expected 'all' or 'last:k')"
            )
        name, _, arg = spec.partition(":")
        if name == "all":
            if arg:
                raise HistoryError("retention 'all' takes no argument")
            return cls("all")
        if name == "last":
            try:
                bound = float(arg)
            except ValueError:
                raise HistoryError(
                    f"retention {spec!r} needs a numeric argument"
                ) from None
            return cls(name, bound)
        raise HistoryError(
            f"unknown retention policy {spec!r}; expected 'all' or 'last:k'"
        )

    def describe(self) -> str:
        return "all" if self.kind == "all" else f"last:{self.bound}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RetentionPolicy)
            and (self.kind, self.bound) == (other.kind, other.bound)
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RetentionPolicy({self.describe()!r})"


def _last_bound(k: Any) -> int:
    """Validate a ``last:k`` bound: a finite whole number of versions >= 1.

    ``k`` counts versions, so ``2.5`` or NaN is no bound at all; both
    are rejected like a non-finite one (the rule SSP's staleness bound
    follows).
    """
    try:
        whole = 1 <= k < math.inf and k == int(k)
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise HistoryError(
            f"last:k retention needs a finite whole k >= 1, got {k!r}"
        )
    return int(k)


class HistoryChannel:
    """One named, versioned sequence of server-side history.

    Every append freezes the value, assigns the next version id and
    charges the byte accountants; retention then evicts from the oldest
    end. ``prune_below`` remains available for callers that manage
    lifetimes themselves (e.g. SAGA once every row of its version
    table has advanced past a version).
    """

    def __init__(
        self,
        channel_id: int,
        name: str,
        keep: RetentionPolicy | str | None = None,
    ) -> None:
        self.channel_id = channel_id
        self.name = name
        self.keep = RetentionPolicy.parse(keep)
        self._next_version = 0
        #: The newest version (ids ascend; a prune dropping it drops all).
        self._newest = -1
        self._values: dict[int, Any] = {}
        self._nbytes: dict[int, int] = {}
        #: Current footprint of retained versions, in bytes.
        self.total_stored_bytes = 0
        #: Lifetime bytes ever appended (monotone non-decreasing).
        self.appended_bytes = 0
        #: Lifetime bytes evicted/pruned (monotone non-decreasing).
        self.evicted_bytes = 0
        #: Lifetime count of versions evicted/pruned.
        self.evicted_versions = 0

    # -- writes ------------------------------------------------------------------
    def append(self, value: Any) -> int:
        """Store a new version; returns its id. Retention runs after."""
        version = self._newest = self._next_version
        self._next_version += 1
        self._values[version] = freeze_value(value)
        # HIST and the COMM ledger quote the same wire measure, so
        # "history bytes stored" and "broadcast bytes shipped" are
        # directly comparable in RunResult.extras.
        nbytes = sizeof_bytes(value)
        self._nbytes[version] = nbytes
        self.total_stored_bytes += nbytes
        self.appended_bytes += nbytes
        self._evict(version)
        return version

    def _evict(self, newest: int) -> None:
        # Appends are the only writes, so nothing below ``newest - k``
        # is stored: one version expires.
        if self.keep.kind == "last":
            expired = newest - self.keep.bound
            if expired in self._values:
                self._drop((expired,))

    def _drop(self, versions) -> int:
        freed = 0
        for v in versions:
            del self._values[v]
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
        if self._newest not in self._values:
            raise BroadcastError(f"channel '{self.name}' is empty")
        return self._newest

    def nbytes(self, version: int) -> int:
        return self._nbytes.get(version, 0)

    def __contains__(self, version: int) -> bool:
        return version in self._values

    def __len__(self) -> int:
        return len(self._values)

    def versions(self) -> list[int]:
        return sorted(self._values)

    def values(self) -> list[Any]:
        """Retained values, oldest first (the L-BFGS two-loop order)."""
        return [self._values[v] for v in self.versions()]

    # -- accounting ----------------------------------------------------------------
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

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HistoryChannel({self.name!r}, keep={self.keep.describe()}, "
            f"versions={len(self._values)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )


class HistoryStore:
    """The coordinator-owned ``HIST`` table: named channels of history.

    Mirrors ``STAT``'s role for the paper's second pillar: where ``STAT``
    tracks *who computed what, when*, ``HIST`` stores *what was computed*
    — model versions for history broadcast, running aggregates for
    variance reduction, curvature pairs for quasi-Newton methods. One
    store exists per asynchronous run (the :class:`~repro.core.context.
    ASYNCContext` hands it to its coordinator and broadcaster), so every
    consumer shares channel ids and accounting.
    """

    def __init__(self) -> None:
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
            ch = HistoryChannel(next(self._channel_ids), name, keep=keep)
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

    @property
    def total_stored_bytes(self) -> int:
        return sum(ch.total_stored_bytes for ch in self._channels.values())

    def accounting(self) -> dict:
        """Per-channel byte accounting (``RunResult.extras['history']``)."""
        return {
            name: ch.accounting() for name, ch in self._channels.items()
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HistoryStore(channels={list(self._channels)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )
