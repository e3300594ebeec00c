"""Bookkeeping records (Section 4.1 of the paper).

For each submitted task result, the server stores the worker's id, the
result's staleness, its mini-batch size and the result itself — plus the
timing data our metrics layer consumes. :class:`WorkerStatus` is one row
of the ``STAT`` table: the worker's most recent status, its availability
and its average-task-completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["TaskResultRecord", "WorkerStatus"]


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


class WorkerStatus:
    """One worker's row in the STAT table.

    The coordinator's three ``note_*`` hooks keep, per task, the
    in-flight count, the model version the worker has computed with
    since it was last idle (``computing_version``, ``None`` when idle; so
    staleness is pessimistic), the last observed staleness and the
    average task turnaround, assignment to result submission
    (``avg_completion_ms``, 0.0 before the first completion).
    """

    # In ``snapshot()`` key order.
    __slots__ = (
        "worker_id", "alive", "available", "in_flight", "computing_version",
        "last_staleness", "tasks_completed", "avg_completion_ms",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.alive = True
        self.available = True
        self.in_flight = 0
        self.computing_version: int | None = None
        self.last_staleness = 0
        self.tasks_completed = 0
        self.avg_completion_ms = 0.0

    # -- coordinator hooks -------------------------------------------------------
    def note_assigned(self, version: int) -> None:
        """A task computing at ``version`` was dispatched to this worker."""
        self.in_flight += 1
        if self.computing_version is None:
            self.computing_version = version

    def note_done(self) -> None:
        """A task of this worker finished (successfully or not)."""
        self.in_flight = max(self.in_flight - 1, 0)
        if self.in_flight == 0:
            self.computing_version = None

    def note_completion(self, staleness: int, submitted_ms: float,
                        delivered_ms: float) -> None:
        """Record a successful result's staleness and timing.

        The completion mean is a running mean in a fixed operation order
        (``count += 1; mean += (x - mean) / count`` in float64).
        """
        self.last_staleness = staleness
        self.tasks_completed += 1
        x = float(delivered_ms - submitted_ms)
        self.avg_completion_ms += (
            (x - self.avg_completion_ms) / self.tasks_completed
        )

    def snapshot(self) -> dict:
        """A plain-dict view for user-side barrier predicates / logging."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return f"WorkerStatus({self.snapshot()!r})"
