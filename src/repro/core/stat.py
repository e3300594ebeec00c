"""The STAT table (Section 4.1), stored columnar.

Per-worker status — staleness, average-task-completion time, availability
— plus the aggregates the paper calls out: the number of available workers
and the maximum overall worker staleness. Barrier-control policies are
functions of this table; Listing 2's predicates all read it.

The table keeps its state in parallel numpy arrays (one column per
field, one position per row), so the hot-path aggregates —
``max_staleness``, ``num_available``, ``available_workers``,
``median_partition_completion_ms`` — are single array reductions rather
than Python loops over row objects. :class:`~repro.core.records.WorkerStatus`
and :class:`~repro.core.records.PartitionStatus` remain the public row
types, but as thin views whose attribute access lands directly in the
columns; the coordinator's per-task ``note_*`` hooks are unchanged.

When tasks are submitted at partition granularity, the table additionally
keeps one partition row per partition (created lazily on first dispatch),
so staleness and completion statistics exist at the grain Hogwild-style
and federated update rules operate on. Partition rows are a refinement,
not a replacement: every partition-granular task updates both its worker
row and its partition row, and the per-partition counters aggregate back
to the per-worker values.

Floating-point parity with the previous object-per-row table is exact:
the completion mean is the running mean ``count += 1; mean += (x -
mean) / count`` in float64 (see :class:`repro.core.records.CompletionView`),
``mean_completion_ms`` uses :func:`math.fsum` (what ``statistics.fmean``
computes), and ``numpy``'s median of float64 values matches
``statistics.median`` bitwise (both average the two middle elements).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.records import PartitionStatus, WorkerStatus

__all__ = ["StatTable", "WorkerArrays", "PartitionArrays"]


class _WorkerColumns:
    """Fixed-size parallel arrays backing the per-worker rows."""

    __slots__ = (
        "alive", "available", "in_flight", "computing_version",
        "last_staleness", "tasks_completed", "last_delivered_ms",
        "comp_count", "comp_mean", "comp_ewma",
    )

    def __init__(self, num_workers: int) -> None:
        self.alive = np.ones(num_workers, dtype=bool)
        self.available = np.ones(num_workers, dtype=bool)
        self.in_flight = np.zeros(num_workers, dtype=np.int64)
        self.computing_version = np.full(num_workers, -1, dtype=np.int64)
        self.last_staleness = np.zeros(num_workers, dtype=np.int64)
        self.tasks_completed = np.zeros(num_workers, dtype=np.int64)
        self.last_delivered_ms = np.zeros(num_workers, dtype=np.float64)
        self.comp_count = np.zeros(num_workers, dtype=np.int64)
        self.comp_mean = np.zeros(num_workers, dtype=np.float64)
        self.comp_ewma = np.zeros(num_workers, dtype=np.float64)


class _PartitionColumns:
    """Growable parallel arrays backing the per-partition rows.

    Rows are appended on first dispatch of a partition; capacity doubles
    on overflow. Row views hold a reference to this store (not to the
    arrays), so reallocation on growth is transparent to them.
    """

    __slots__ = (
        "size", "ids", "owner", "in_flight", "computing_version",
        "last_staleness", "tasks_completed", "last_delivered_ms",
        "comp_count", "comp_mean", "comp_ewma",
    )

    def __init__(self, capacity: int = 16) -> None:
        self.size = 0
        self.ids = np.zeros(capacity, dtype=np.int64)
        self.owner = np.full(capacity, -1, dtype=np.int64)
        self.in_flight = np.zeros(capacity, dtype=np.int64)
        self.computing_version = np.full(capacity, -1, dtype=np.int64)
        self.last_staleness = np.zeros(capacity, dtype=np.int64)
        self.tasks_completed = np.zeros(capacity, dtype=np.int64)
        self.last_delivered_ms = np.zeros(capacity, dtype=np.float64)
        self.comp_count = np.zeros(capacity, dtype=np.int64)
        self.comp_mean = np.zeros(capacity, dtype=np.float64)
        self.comp_ewma = np.zeros(capacity, dtype=np.float64)

    def append(self, partition_id: int) -> int:
        if self.size == len(self.ids):
            for name in self.__slots__:
                if name == "size":
                    continue
                old = getattr(self, name)
                grown = np.zeros(len(old) * 2, dtype=old.dtype)
                grown[: len(old)] = old
                if name in ("owner", "computing_version"):
                    grown[len(old):] = -1
                setattr(self, name, grown)
        idx = self.size
        self.ids[idx] = partition_id
        self.owner[idx] = -1
        self.size += 1
        return idx


class WorkerArrays(NamedTuple):
    """Read-only column slices for vectorized policy predicates."""

    alive: np.ndarray
    available: np.ndarray
    in_flight: np.ndarray
    tasks_completed: np.ndarray
    avg_completion_ms: np.ndarray
    ewma_completion_ms: np.ndarray


class PartitionArrays(NamedTuple):
    """Read-only column slices (appearance order) for vectorized policies."""

    ids: np.ndarray
    owner: np.ndarray
    in_flight: np.ndarray
    tasks_completed: np.ndarray
    avg_completion_ms: np.ndarray
    ewma_completion_ms: np.ndarray


class StatTable:
    """Live view of every worker's state, maintained by the coordinator."""

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self._wcols = _WorkerColumns(num_workers)
        self.workers = [WorkerStatus(self._wcols, w) for w in range(num_workers)]
        self._pcols = _PartitionColumns()
        #: Per-partition rows, keyed by partition id; populated lazily by
        #: the coordinator when tasks carry partition identity.
        self.partitions: dict[int, PartitionStatus] = {}
        #: Server-side model version (count of applied updates); the
        #: coordinator advances it via ``model_updated``.
        self.current_version = 0

    # -- row access ------------------------------------------------------------
    def __getitem__(self, worker_id: int) -> WorkerStatus:
        return self.workers[worker_id]

    def __iter__(self) -> Iterator[WorkerStatus]:
        return iter(self.workers)

    def __len__(self) -> int:
        return len(self.workers)

    # -- aggregates (the paper's server-side bookkeeping) -------------------------
    @property
    def num_alive(self) -> int:
        return int(np.count_nonzero(self._wcols.alive))

    @property
    def num_available(self) -> int:
        """Workers that are alive and not executing a task."""
        c = self._wcols
        return int(np.count_nonzero(c.alive & c.available))

    def available_workers(self) -> list[int]:
        c = self._wcols
        return np.flatnonzero(c.alive & c.available).tolist()

    def busy_workers(self) -> list[int]:
        c = self._wcols
        return np.flatnonzero(c.alive & ~c.available).tolist()

    @property
    def max_staleness(self) -> int:
        """Maximum staleness of any in-flight computation.

        A busy worker computing with model version ``v`` while the server
        is at version ``k`` is ``k - v`` updates stale. Idle workers do not
        contribute.
        """
        c = self._wcols
        mask = c.alive & ~c.available & (c.computing_version >= 0)
        stale = self.current_version - c.computing_version[mask]
        return int(stale.max(initial=0))

    def staleness_of(self, worker_id: int) -> int:
        """Current staleness of a worker's in-flight task (0 if idle)."""
        c = self._wcols
        if c.available[worker_id] or c.computing_version[worker_id] < 0:
            return 0
        return self.current_version - int(c.computing_version[worker_id])

    def worker_arrays(self) -> WorkerArrays:
        """Column slices for vectorized policies (treat as read-only).

        ``avg_completion_ms`` mirrors the row property: 0.0 for workers
        with no completion history, the running mean otherwise.
        """
        c = self._wcols
        has = c.comp_count > 0
        return WorkerArrays(
            alive=c.alive,
            available=c.available,
            in_flight=c.in_flight,
            tasks_completed=c.tasks_completed,
            avg_completion_ms=np.where(has, c.comp_mean, 0.0),
            ewma_completion_ms=np.where(has, c.comp_ewma, 0.0),
        )

    # -- partition rows (partition-granular dispatch) -----------------------------
    def partition_row(
        self, partition_id: int, owner: int | None = None
    ) -> PartitionStatus:
        """The partition's row, created on first access.

        ``owner`` (when given) refreshes the row's most-recent worker —
        partitions can migrate across workers after faults.
        """
        row = self.partitions.get(partition_id)
        if row is None:
            index = self._pcols.append(partition_id)
            row = PartitionStatus(self._pcols, index)
            self.partitions[partition_id] = row
        if owner is not None:
            row.owner = owner
        return row

    def partition_rows(self, worker_id: int | None = None) -> list[PartitionStatus]:
        """All partition rows (or only those owned by ``worker_id``)."""
        rows = [self.partitions[p] for p in sorted(self.partitions)]
        if worker_id is None:
            return rows
        return [row for row in rows if row.owner == worker_id]

    def partition_arrays(self) -> PartitionArrays:
        """Column slices over the live partition rows (treat as read-only).

        Rows appear in creation (first-dispatch) order, not sorted by
        partition id; use ``ids`` to key the values.
        """
        c = self._pcols
        n = c.size
        has = c.comp_count[:n] > 0
        return PartitionArrays(
            ids=c.ids[:n],
            owner=c.owner[:n],
            in_flight=c.in_flight[:n],
            tasks_completed=c.tasks_completed[:n],
            avg_completion_ms=np.where(has, c.comp_mean[:n], 0.0),
            ewma_completion_ms=np.where(has, c.comp_ewma[:n], 0.0),
        )

    @property
    def max_partition_staleness(self) -> int:
        """Maximum staleness of any in-flight partition-granular task."""
        c = self._pcols
        n = c.size
        cv = c.computing_version[:n]
        mask = (c.in_flight[:n] > 0) & (cv >= 0)
        stale = self.current_version - cv[mask]
        return int(stale.max(initial=0))

    def partition_staleness_of(self, partition_id: int) -> int:
        """Current staleness of a partition's in-flight task (0 if idle)."""
        row = self.partitions.get(partition_id)
        if row is None or row.in_flight == 0 or row.computing_version is None:
            return 0
        return self.current_version - row.computing_version

    def partition_snapshot(self) -> list[dict]:
        """Plain-data view of the partition rows (AC.STAT's finer grain)."""
        return [row.snapshot() for row in self.partition_rows()]

    def median_partition_completion_ms(self) -> float:
        """Median avg-completion over partitions with history.

        Mirrors :meth:`median_completion_ms` at the partition grain:
        rows with no completed tasks are excluded so empty rows cannot
        skew the threshold per-partition completion filters compare
        against.
        """
        c = self._pcols
        n = c.size
        mask = c.tasks_completed[:n] > 0
        if not mask.any():
            return 0.0
        vals = np.where(c.comp_count[:n] > 0, c.comp_mean[:n], 0.0)[mask]
        return float(np.median(vals))

    def mean_completion_ms(self) -> float:
        c = self._wcols
        mask = c.alive & (c.tasks_completed > 0)
        if not mask.any():
            return 0.0
        vals = np.where(c.comp_count > 0, c.comp_mean, 0.0)[mask]
        # math.fsum(...)/n is exactly what statistics.fmean computes.
        return math.fsum(vals.tolist()) / len(vals)

    def median_completion_ms(self) -> float:
        c = self._wcols
        mask = c.alive & (c.tasks_completed > 0)
        if not mask.any():
            return 0.0
        vals = np.where(c.comp_count > 0, c.comp_mean, 0.0)[mask]
        return float(np.median(vals))

    def snapshot(self) -> list[dict]:
        """Plain-data view of the whole table (the user-facing AC.STAT)."""
        return [w.snapshot() for w in self.workers]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StatTable(P={len(self.workers)}, "
            f"available={self.num_available}, "
            f"max_staleness={self.max_staleness}, "
            f"version={self.current_version})"
        )
