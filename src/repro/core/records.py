"""Bookkeeping records (Section 4.1 of the paper).

For each submitted task result, the server stores the worker's id, the
result's staleness, its mini-batch size and the result itself — plus the
timing data our metrics layer consumes. :class:`WorkerStatus` is one row
of the ``STAT`` table: the worker's most recent status, its availability
and its average-task-completion time.

The STAT table stores its rows columnar (parallel numpy arrays, see
:mod:`repro.core.stat`); ``WorkerStatus`` and ``PartitionStatus`` are
thin row *views* over those columns. Every read returns plain Python
scalars and every write lands directly in the backing array, so the
coordinator's per-task hooks and the policies' array reductions observe
the same state with no synchronization step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "TaskResultRecord",
    "WorkerStatus",
    "PartitionStatus",
    "EWMA_ALPHA",
]

#: Smoothing factor for the per-row completion-time EWMA column: the
#: first sample seeds it, then ``ewma += EWMA_ALPHA * (x - ewma)``.
EWMA_ALPHA = 0.2


@dataclass
class TaskResultRecord:
    """One annotated task result as seen by ``ASYNCcollectAll``.

    Attributes
    ----------
    value: the reduced task payload.
    worker_id: which worker produced it.
    version: model version (update count) the task computed with.
    staleness: updates applied between task submission and delivery.
    batch_size: number of elements locally reduced into ``value``.
    submitted_ms / delivered_ms / compute_ms: timing attributes.
    partition: the data partition the task covered when it was submitted
        at partition granularity (``None`` for worker-granular tasks).
    weight: the scheduling policy's contribution weight for this result
        (1.0 unless a ``weight`` hook discounts it), stamped by the
        server loop at collection time.
    """

    value: Any
    worker_id: int
    task_id: int
    version: int
    staleness: int
    batch_size: int
    submitted_ms: float
    delivered_ms: float
    compute_ms: float
    job_id: int = -1
    partition: int | None = None
    weight: float = 1.0

    @property
    def turnaround_ms(self) -> float:
        """Assignment-to-delivery latency of the task."""
        return self.delivered_ms - self.submitted_ms


class CompletionView:
    """A running-mean handle over one row's completion columns.

    ``add`` updates the mean in a fixed operation order (``count += 1;
    mean += (x - mean)/count`` in float64), so columnar rows produce
    bit-identical averages, and also maintains the row's completion-time
    EWMA column.
    """

    __slots__ = ("_cols", "_i")

    def __init__(self, cols, index: int) -> None:
        self._cols = cols
        self._i = index

    @property
    def count(self) -> int:
        return int(self._cols.comp_count[self._i])

    @property
    def mean(self) -> float:
        return float(self._cols.comp_mean[self._i])

    @property
    def value(self) -> float:
        """The mean so far (0.0 before any observation)."""
        return self.mean if self.count else 0.0

    def add(self, x: float) -> None:
        cols, i = self._cols, self._i
        x = float(x)
        n = int(cols.comp_count[i]) + 1
        cols.comp_count[i] = n
        m = float(cols.comp_mean[i])
        cols.comp_mean[i] = m + (x - m) / n
        if n == 1:
            cols.comp_ewma[i] = x
        else:
            e = float(cols.comp_ewma[i])
            cols.comp_ewma[i] = e + EWMA_ALPHA * (x - e)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CompletionView(count={self.count}, mean={self.mean})"


class TaskTrackingStatus:
    """Shared task-lifecycle bookkeeping for one STAT row.

    Both grains of the STAT table — per-worker rows and per-partition
    rows — track the same quantities per task: in-flight count, the
    oldest in-flight model version (staleness is pessimistic), the last
    observed staleness, and completion statistics. The coordinator
    drives rows of either grain through the three ``note_*`` hooks.

    A row is a view of index ``index`` into a column store: attribute
    reads and writes go straight to the backing arrays. The store uses
    ``-1`` as the "no in-flight version" sentinel for
    ``computing_version``; the view translates it to/from ``None`` so
    user-side predicates keep the optional-int contract.
    """

    __slots__ = ("_cols", "_i")

    def __init__(self, cols, index: int) -> None:
        self._cols = cols
        self._i = index

    # -- column-backed attributes ------------------------------------------------
    @property
    def in_flight(self) -> int:
        return int(self._cols.in_flight[self._i])

    @in_flight.setter
    def in_flight(self, value: int) -> None:
        self._cols.in_flight[self._i] = value

    @property
    def computing_version(self) -> int | None:
        cv = int(self._cols.computing_version[self._i])
        return None if cv < 0 else cv

    @computing_version.setter
    def computing_version(self, value: int | None) -> None:
        self._cols.computing_version[self._i] = -1 if value is None else value

    @property
    def last_staleness(self) -> int:
        return int(self._cols.last_staleness[self._i])

    @last_staleness.setter
    def last_staleness(self, value: int) -> None:
        self._cols.last_staleness[self._i] = value

    @property
    def tasks_completed(self) -> int:
        return int(self._cols.tasks_completed[self._i])

    @tasks_completed.setter
    def tasks_completed(self, value: int) -> None:
        self._cols.tasks_completed[self._i] = value

    @property
    def last_delivered_ms(self) -> float:
        return float(self._cols.last_delivered_ms[self._i])

    @last_delivered_ms.setter
    def last_delivered_ms(self, value: float) -> None:
        self._cols.last_delivered_ms[self._i] = value

    @property
    def completion(self) -> CompletionView:
        return CompletionView(self._cols, self._i)

    @property
    def avg_completion_ms(self) -> float:
        """Average task turnaround (assignment to result submission)."""
        if not self._cols.comp_count[self._i]:
            return 0.0
        return float(self._cols.comp_mean[self._i])

    @property
    def ewma_completion_ms(self) -> float:
        """Exponentially-weighted completion time (0.0 before history)."""
        if not self._cols.comp_count[self._i]:
            return 0.0
        return float(self._cols.comp_ewma[self._i])

    # -- coordinator hooks -------------------------------------------------------
    def note_assigned(self, version: int) -> None:
        """A task computing at ``version`` was dispatched to this row."""
        cols, i = self._cols, self._i
        cols.in_flight[i] += 1
        if cols.computing_version[i] < 0:
            cols.computing_version[i] = version

    def note_done(self) -> None:
        """A task of this row finished (successfully or not)."""
        cols, i = self._cols, self._i
        n = max(int(cols.in_flight[i]) - 1, 0)
        cols.in_flight[i] = n
        if n == 0:
            cols.computing_version[i] = -1

    def note_completion(self, staleness: int, submitted_ms: float,
                        delivered_ms: float) -> None:
        """Record a successful result's staleness and timing."""
        cols, i = self._cols, self._i
        cols.last_staleness[i] = staleness
        cols.tasks_completed[i] += 1
        cols.last_delivered_ms[i] = delivered_ms
        self.completion.add(delivered_ms - submitted_ms)

    def _tracking_snapshot(self) -> dict:
        return {
            "in_flight": self.in_flight,
            "computing_version": self.computing_version,
            "last_staleness": self.last_staleness,
            "tasks_completed": self.tasks_completed,
            "avg_completion_ms": self.avg_completion_ms,
        }


class WorkerStatus(TaskTrackingStatus):
    """One worker's row in the STAT table (a view; worker_id == index)."""

    __slots__ = ()

    @property
    def worker_id(self) -> int:
        return self._i

    @property
    def alive(self) -> bool:
        return bool(self._cols.alive[self._i])

    @alive.setter
    def alive(self, value: bool) -> None:
        self._cols.alive[self._i] = value

    @property
    def available(self) -> bool:
        return bool(self._cols.available[self._i])

    @available.setter
    def available(self, value: bool) -> None:
        self._cols.available[self._i] = value

    def snapshot(self) -> dict:
        """A plain-dict view for user-side barrier predicates / logging."""
        return {
            "worker_id": self.worker_id,
            "alive": self.alive,
            "available": self.available,
            **self._tracking_snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"WorkerStatus({self.snapshot()!r})"


class PartitionStatus(TaskTrackingStatus):
    """One data partition's row in the STAT table.

    Maintained only for tasks submitted at partition granularity: each
    partition-granular task updates both its worker's row and its
    partition's row, so staleness and completion statistics exist at the
    finer grain Hogwild-style and federated update rules schedule on.
    ``owner`` is the worker the partition's tasks ran on most recently.
    """

    __slots__ = ()

    @property
    def partition_id(self) -> int:
        return int(self._cols.ids[self._i])

    @property
    def owner(self) -> int:
        return int(self._cols.owner[self._i])

    @owner.setter
    def owner(self, value: int) -> None:
        self._cols.owner[self._i] = value

    def snapshot(self) -> dict:
        """A plain-dict view (the per-partition analog of WorkerStatus)."""
        return {
            "partition_id": self.partition_id,
            "owner": self.owner,
            **self._tracking_snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"PartitionStatus({self.snapshot()!r})"
