"""ASYNCcoordinator (Section 4.2).

Collects bookkeeping structures and coordinates the other components:
annotates every incoming task result with worker attributes (staleness,
batch size, timings), maintains the STAT table (availability, average
task-completion time), queues annotated records for ``ASYNCcollect`` /
``ASYNCcollectAll``, and owns the partition *placement* overlay —
scheduling policies propose ``partition -> worker`` moves through their
``place`` hook and the coordinator records the accepted assignment so
later rounds dispatch accordingly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping

from repro.cluster.backend import TaskMetrics
from repro.core.history import HistoryStore
from repro.core.records import TaskResultRecord
from repro.core.stat import StatTable
from repro.errors import TaskError, WorkerLostError

__all__ = ["Coordinator"]


class Coordinator:
    """Server-side bookkeeping hub of the ASYNC framework.

    ``pipeline_depth`` controls how many tasks a worker may hold before it
    stops counting as *available*: 1 (default) is the paper's model — a
    worker is available iff it is idle; deeper pipelines keep workers fed
    across the submission round-trip at the cost of extra staleness.

    Alongside ``STAT`` the coordinator owns ``HIST``: the
    :class:`~repro.core.history.HistoryStore` every server-side history
    consumer (broadcast channels, variance-reduction aggregates,
    curvature pairs) registers its channels with.
    """

    def __init__(
        self,
        stat: StatTable,
        pipeline_depth: int = 1,
        history: HistoryStore | None = None,
    ) -> None:
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        self.stat = stat
        #: The HIST table (Section 4.3's second pillar).
        self.history = history if history is not None else HistoryStore()
        self.pipeline_depth = pipeline_depth
        self.results: deque[TaskResultRecord] = deque()
        self.lost_tasks = 0
        self.collected = 0
        #: Task failures not yet raised to the server, oldest first.
        self.errors: deque[TaskError] = deque()
        #: Partition placement overlay: entries override the context's
        #: locality rule (``partition -> worker``) for every subsequent
        #: dispatch. Populated by accepted ``place`` hook moves.
        self.placement: dict[int, int] = {}
        #: Count of accepted migrations (placement changes).
        self.migrations = 0
        #: ``(partition, old_worker, new_worker)`` per accepted move.
        self.migration_log: list[tuple[int, int, int]] = []

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

    # -- partition placement ---------------------------------------------------
    def owner_of(self, partition: int, default_owner: Callable[[int], int]) -> int:
        """Current worker for ``partition``: overlay, else locality rule."""
        return self.placement.get(partition, default_owner(partition))

    def apply_placement(
        self,
        moves: Mapping[int, int],
        default_owner: Callable[[int], int],
        *,
        acceptable: Callable[[int], bool] = lambda w: True,
    ) -> int:
        """Record a policy's ``place`` moves; returns how many took effect.

        No-op moves (already-current owner) and moves to workers rejected
        by ``acceptable`` (dead, out of range) are dropped silently — a
        policy proposes, the scheduler's view of the cluster disposes.
        """
        applied = 0
        for partition, worker in moves.items():
            current = self.owner_of(partition, default_owner)
            if worker == current or not acceptable(worker):
                continue
            self.placement[partition] = worker
            self.migrations += 1
            self.migration_log.append((partition, current, worker))
            applied += 1
        return applied

    # -- checkpoint state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe placement/migration state (the checkpointable part).

        Queued results and worker liveness are execution state that a
        resumed run rebuilds from its own dispatch; the placement overlay
        is *decision* state — losing it would silently undo accepted
        migrations on resume. Empty when no migration ever happened, so
        callers can cheaply skip serializing a no-op.
        """
        if not self.placement and not self.migrations:
            return {}
        return {
            "placement": {str(p): w for p, w in self.placement.items()},
            "migrations": self.migrations,
            "migration_log": [list(move) for move in self.migration_log],
        }

    def load_state(self, state: dict) -> None:
        """Reinstate a :meth:`state_dict` (e.g. from a sweep checkpoint)."""
        self.placement = {
            int(p): int(w) for p, w in state.get("placement", {}).items()
        }
        self.migrations = int(state.get("migrations", 0))
        self.migration_log = [
            tuple(move) for move in state.get("migration_log", [])
        ]

    # -- task lifecycle ----------------------------------------------------------
    def on_assigned(
        self, worker_id: int, version: int, partition: int | None = None
    ) -> None:
        """A task was dispatched to a worker computing at ``version``.

        ``partition`` identifies the single data partition a
        partition-granular task covers; its STAT row is then maintained
        alongside the worker's.
        """
        w = self.stat[worker_id]
        w.note_assigned(version)
        w.available = w.alive and w.in_flight < self.pipeline_depth
        if partition is not None:
            self.stat.partition_row(partition, owner=worker_id).note_assigned(
                version
            )

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
        w.available = w.alive and w.in_flight < self.pipeline_depth
        prow = None
        if partition is not None:
            prow = self.stat.partition_row(partition)
            prow.note_done()

        if error is not None:
            if isinstance(error, WorkerLostError):
                w.alive = False
                w.available = False
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
        if prow is not None:
            prow.note_completion(
                staleness, metrics.submitted_ms, metrics.delivered_ms
            )

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
    def has_result(self) -> bool:
        return bool(self.results)

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
        if record.partition is not None:
            self.stat.partition_row(record.partition).last_staleness = (
                record.staleness
            )
        self.collected += 1
        return record

    def raise_pending_error(self) -> None:
        if self.errors:
            raise self.errors.popleft()

    def pending_errors(self) -> int:
        return len(self.errors)
