"""ASYNCcoordinator (Section 4.2).

Collects bookkeeping structures and coordinates the other components:
annotates every incoming task result with worker attributes (staleness,
batch size, timings), maintains the STAT table (in-flight counts,
average task-completion time) and queues annotated records for
``ASYNCcollect`` / ``ASYNCcollectAll``. It never records liveness: STAT
reads that from the backend, so a task lost with its worker is only
counted here (``lost_tasks``).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.cluster.backend import TaskMetrics
from repro.core.history import HistoryStore
from repro.core.records import TaskResultRecord
from repro.core.stat import StatTable
from repro.errors import TaskError, WorkerLostError

__all__ = ["Coordinator"]


class Coordinator:
    """Server-side bookkeeping hub of the ASYNC framework.

    Alongside ``STAT`` the coordinator owns ``HIST``: the
    :class:`~repro.core.history.HistoryStore` every server-side history
    consumer (broadcast channels, variance-reduction aggregates,
    curvature pairs) registers its channels with.
    """

    def __init__(self, stat: StatTable) -> None:
        self.stat = stat
        #: The HIST table (Section 4.3's second pillar).
        self.history = HistoryStore()
        self.results: deque[TaskResultRecord] = deque()
        self.lost_tasks = 0
        self.collected = 0
        #: Task failures not yet raised to the server, oldest first.
        self.errors: deque[TaskError] = deque()

    # -- model version --------------------------------------------------------
    @property
    def version(self) -> int:
        """Server model version = number of updates applied so far."""
        return self.stat.current_version

    def model_updated(self, count: int = 1) -> None:
        """Advance the version after the server applies update(s)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.stat.current_version += count

    # -- task lifecycle ----------------------------------------------------------
    def on_assigned(self, worker_id: int, version: int) -> None:
        """A task was dispatched to a worker computing at ``version``."""
        self.stat[worker_id].note_assigned(version)

    def on_result(
        self,
        task_id: int,
        worker_id: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
        *,
        version: int,
        batch_size: int,
        partition: int | None = None,
    ) -> None:
        """Annotate and enqueue a completed task (or record its failure)."""
        w = self.stat[worker_id]
        w.note_done()

        if error is not None:
            if isinstance(error, WorkerLostError):
                self.lost_tasks += 1
            else:
                self.errors.append(
                    TaskError(
                        f"async task {task_id} failed on worker "
                        f"{worker_id}: {error!r}",
                        task_id=task_id,
                        worker_id=worker_id,
                        cause=error,
                    )
                )
            return

        staleness = self.version - version
        w.note_completion(staleness, metrics.submitted_ms, metrics.delivered_ms)

        self.results.append(
            TaskResultRecord(
                value=value,
                worker_id=worker_id,
                task_id=task_id,
                version=version,
                staleness=staleness,
                batch_size=batch_size,
                submitted_ms=metrics.submitted_ms,
                delivered_ms=metrics.delivered_ms,
                compute_ms=metrics.compute_ms,
                job_id=metrics.job_id,
                partition=partition,
            )
        )

    # -- consumption ------------------------------------------------------------
    def pop_result(self) -> TaskResultRecord:
        """FIFO pop; re-stamps staleness at collection time.

        A result may sit in the queue while the server applies other
        updates, so its effective staleness is measured when the server
        *consumes* it — that is the value staleness-aware algorithms need.
        """
        self.raise_pending_error()
        record = self.results.popleft()
        record.staleness = self.version - record.version
        self.stat[record.worker_id].last_staleness = record.staleness
        self.collected += 1
        return record

    def raise_pending_error(self) -> None:
        if self.errors:
            raise self.errors.popleft()
