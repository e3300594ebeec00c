"""Fault injection helpers.

Failure semantics: killing a worker clears its block store (cached RDD
partitions, broadcast replicas, history caches) and errors its in-flight
tasks with :class:`~repro.errors.WorkerLostError`. The BSP scheduler
retries elsewhere; cached data is recomputed from lineage; broadcast reads
re-fetch from the driver. These are exactly Spark's guarantees, which the
paper's layer inherits ("preserving the in-memory and fault tolerant
features of Spark").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.simbackend import SimBackend
from repro.errors import BackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = ["FaultInjector"]


class FaultInjector:
    """Scriptable worker failures for tests and failure-injection benches.

    ``injected`` records every applied action (``("kill"|"revive",
    worker_id, time_ms)``) so fault-plan runs can report exactly what
    happened and when — the reproducibility contract of a scripted
    failure scenario.
    """

    def __init__(self, ctx: "ClusterContext") -> None:
        self.ctx = ctx
        self.killed: set[int] = set()
        self.injected: list[tuple[str, int, float]] = []

    def kill(self, worker_id: int) -> None:
        """Fail a worker immediately."""
        self.ctx.backend.kill_worker(worker_id)
        self.killed.add(worker_id)
        self.injected.append(("kill", worker_id, self.ctx.now()))

    def revive(self, worker_id: int) -> None:
        """Bring a worker back (empty block store, like a fresh executor)."""
        self.ctx.backend.revive_worker(worker_id)
        self.killed.discard(worker_id)
        self.injected.append(("revive", worker_id, self.ctx.now()))

    def kill_at(self, time_ms: float, worker_id: int) -> None:
        """Schedule a failure at a future virtual time (simulation only)."""
        backend = self.ctx.backend
        if not isinstance(backend, SimBackend):
            raise BackendError("kill_at requires the simulation backend")
        if time_ms < backend.now():
            raise BackendError("cannot schedule a failure in the past")
        backend.queue.push(time_ms, self.kill, worker_id)

    def alive_workers(self) -> list[int]:
        return [
            w
            for w in self.ctx.backend.worker_ids()
            if self.ctx.backend.worker_env(w).alive
        ]
