"""The STAT table (Section 4.1).

Per-worker status — staleness, average-task-completion time, availability
— plus the aggregates the paper calls out: the number of available workers
and the maximum overall worker staleness. Barrier-control policies are
functions of this table; Listing 2's predicates all read it.

The table is one :class:`~repro.core.records.WorkerStatus` row per
worker, and every aggregate is a loop over those rows. The median of an
even count averages the two middle values as ``(a + b) / 2``, like
``statistics.median``.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.records import WorkerStatus

__all__ = ["StatTable"]


class StatTable:
    """Live view of every worker's state, maintained by the coordinator."""

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.workers = [WorkerStatus(w) for w in range(num_workers)]
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
        n = 0
        for w in self.workers:
            if w.alive:
                n += 1
        return n

    @property
    def num_available(self) -> int:
        """Workers that are alive and not executing a task."""
        n = 0
        for w in self.workers:
            if w.alive and w.available:
                n += 1
        return n

    def available_workers(self) -> list[int]:
        return [w.worker_id for w in self.workers if w.alive and w.available]

    @property
    def max_staleness(self) -> int:
        """Maximum staleness of any in-flight computation.

        A worker computing with model version ``v`` while the server is at
        version ``k`` is ``k - v`` updates stale. A worker counts while it
        holds a task (or is marked busy), even when a pipeline depth above
        1 keeps it available; idle workers do not contribute.
        """
        stale = 0
        for w in self.workers:
            v = w.computing_version
            if (w.alive and v is not None
                    and (w.in_flight > 0 or not w.available)
                    and self.current_version - v > stale):
                stale = self.current_version - v
        return stale

    def median_completion_ms(self) -> float:
        """Median avg-completion over alive workers with history (the
        threshold ``ct`` filters against); 0.0 before any completion."""
        vals = sorted(
            w.avg_completion_ms for w in self.workers
            if w.alive and w.tasks_completed > 0
        )
        if not vals:
            return 0.0
        mid = len(vals) // 2
        if len(vals) % 2:
            return vals[mid]
        return (vals[mid - 1] + vals[mid]) / 2

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
