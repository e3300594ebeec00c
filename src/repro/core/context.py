"""ASYNCContext (Section 5.1): the entry point to the ASYNC framework.

Created once per application on top of a :class:`ClusterContext`. It wires
the coordinator, broadcaster and scheduler together and exposes the
paper's API (Table 1):

======================  =====================================================
Paper                   Here
======================  =====================================================
``new ASYNCcontext``    ``ac = ASYNCContext(sc)``
``ASYNCreduce(f, AC)``  ``rdd.async_reduce(f, ac)`` / ``ac.async_reduce(rdd, f, granularity=...)``
``ASYNCaggregate``      ``rdd.async_aggregate(zero, seq_op, comb_op, ac)``
``ASYNCbarrier(f, S)``  ``rdd.async_barrier(policy_or_predicate, ac.stat)``
``AC.ASYNCcollect()``   ``ac.collect()``
``AC.ASYNCcollectAll``  ``ac.collect_all()`` (returns a TaskResultRecord)
``AC.ASYNCbroadcast``   ``ac.async_broadcast(value)``
``AC.STAT``             ``ac.stat`` (live) / ``ac.stat.snapshot()``
``AC.hasNext()``        ``ac.has_next()``
======================  =====================================================

One addition relative to the paper's listings: after applying update(s) to
the model, the server calls ``ac.model_updated()`` so the coordinator can
track versions and compute staleness. (On Spark, ASYNC extracts this from
the TaskContext; a library cannot observe your ``w -= ...`` statement.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.broadcaster import AsyncBroadcaster, HistoryBroadcast
from repro.core.coordinator import Coordinator
from repro.core.history import HistoryStore
from repro.core.policies import SchedulingPolicy, as_policy
from repro.core.records import TaskResultRecord
from repro.core.scheduler import AsyncScheduler
from repro.core.stat import StatTable
from repro.engine.context import ClusterContext
from repro.errors import AsyncContextError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD

__all__ = ["ASYNCContext"]


class ASYNCContext:
    """Server-side hub for asynchronous execution."""

    def __init__(
        self,
        ctx: ClusterContext,
        policy: SchedulingPolicy | Callable[[StatTable], bool] | None = None,
        pipeline_depth: int = 1,
    ) -> None:
        self.ctx = ctx
        self.stat = StatTable(ctx.num_workers)
        self.coordinator = Coordinator(
            self.stat, pipeline_depth, history=HistoryStore(clock=ctx.now)
        )
        self.scheduler = AsyncScheduler(self)
        # The broadcaster is the transport view over the coordinator's
        # HIST store: broadcast channels and server-side history share
        # one namespace, one accounting, one checkpoint surface.
        self.broadcaster = AsyncBroadcaster(ctx, store=self.history)
        #: The scheduling policy used when a round names none (ASP
        #: unless ``policy`` says otherwise).
        self.default_policy = as_policy(policy)
        #: The run's :class:`~repro.comm.manager.CommManager` (collect
        #: compression + byte ledger); the server loop installs it here
        #: and on the broadcaster. ``None`` = pre-COMM byte paths.
        self.comm: Any = None

    # -- server-side history -----------------------------------------------------
    @property
    def history(self) -> HistoryStore:
        """The run's HIST table (``AC.HIST``), owned by the coordinator."""
        return self.coordinator.history

    # -- partition placement ----------------------------------------------------
    @property
    def placement(self) -> dict[int, int]:
        """Live partition -> worker overlay maintained by ``place`` hooks."""
        return self.coordinator.placement

    @property
    def migrations(self) -> int:
        """Accepted partition moves so far."""
        return self.coordinator.migrations

    # -- versioning --------------------------------------------------------------
    @property
    def version(self) -> int:
        """Model version: number of updates the server has applied."""
        return self.coordinator.version

    def model_updated(self, count: int = 1) -> None:
        """Tell the coordinator the server applied ``count`` update(s)."""
        self.coordinator.model_updated(count)

    # -- result consumption ---------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.scheduler.in_flight

    def has_next(self, block: bool = False) -> bool:
        """True if a task result is waiting.

        With ``block=True``, advances the cluster until a result arrives or
        no in-flight task remains (then returns False). A failed task's
        error is raised instead, ahead of any queued result.
        """
        # Reading the two queues needs no lock: each check is one atomic
        # deque operation, and only the server consumes from them.
        coordinator = self.coordinator
        if block and not (coordinator.results or coordinator.errors):
            self.ctx.backend.run_until(
                self._arrived, host_timeout_s=self.ctx.job_timeout_s
            )
        if coordinator.errors:
            coordinator.raise_pending_error()
        return bool(coordinator.results)

    def _arrived(self) -> bool:
        """A blocking :meth:`has_next` may stop advancing the cluster."""
        coordinator = self.coordinator
        return bool(
            coordinator.results or coordinator.errors
            or self.scheduler.in_flight == 0
        )

    def collect_all(self, block: bool = True) -> TaskResultRecord:
        """FIFO-pop one result with its worker attributes (Table 1)."""
        if not self.has_next(block=block):
            raise AsyncContextError(
                "ASYNCcollect: no task result available"
                + ("" if block else " (non-blocking)")
            )
        with self.ctx.backend.state_lock:
            return self.coordinator.pop_result()

    def collect(self, block: bool = True) -> Any:
        """FIFO-pop one task result value."""
        return self.collect_all(block=block).value

    def drain(self) -> list[TaskResultRecord]:
        """Pop every result currently queued (non-blocking)."""
        out = []
        while self.has_next(block=False):
            out.append(self.collect_all(block=False))
        return out

    def wait_all(self) -> None:
        """Advance until no submitted task remains in flight."""
        self.ctx.backend.run_until(
            lambda: self.scheduler.in_flight == 0,
            host_timeout_s=self.ctx.job_timeout_s,
        )

    # -- submission -------------------------------------------------------------------
    def async_reduce(
        self,
        rdd: "RDD",
        f: Callable[[Any, Any], Any],
        granularity: str = "worker",
    ) -> list[int]:
        """Submit one asynchronous reduction round over ``rdd``.

        The context-first spelling of ``rdd.async_reduce(f, ac)``.
        ``granularity="worker"`` (default, the paper's model) locally
        reduces each worker's partitions into a single result;
        ``granularity="partition"`` submits one task per partition —
        every result is tagged with its partition id, the STAT table
        grows per-partition rows, and staleness is tracked per
        partition. Returns the workers that received tasks.
        """
        from repro.core.ops import async_reduce

        return async_reduce(rdd, f, self, granularity)

    def async_aggregate(
        self,
        rdd: "RDD",
        zero: Any,
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
        granularity: str = "worker",
    ) -> list[int]:
        """Submit one asynchronous aggregation round over ``rdd``."""
        from repro.core.ops import async_aggregate

        return async_aggregate(rdd, zero, seq_op, comb_op, self, granularity)

    # -- broadcast --------------------------------------------------------------------
    def async_broadcast(
        self, value: Any, channel: str = "model"
    ) -> HistoryBroadcast:
        """Versioned broadcast with history access (Section 4.3)."""
        return self.broadcaster.broadcast(value, channel)

    # -- cluster membership --------------------------------------------------------------
    def refresh_workers(self) -> list[int]:
        """Re-sync STAT liveness with the backend (worker elasticity).

        A worker the coordinator marked dead (its task was lost) may have
        been revived by the fault injector / cluster manager; calling this
        re-admits it to scheduling with a clean slate. Returns the workers
        that rejoined.
        """
        rejoined = []
        with self.ctx.backend.state_lock:
            for w in self.ctx.backend.worker_ids():
                status = self.stat[w]
                alive = self.ctx.backend.worker_env(w).alive
                if alive and not status.alive:
                    status.alive = True
                    status.in_flight = 0
                    status.computing_version = None
                    status.available = True
                    rejoined.append(w)
                elif not alive and status.alive:
                    status.alive = False
                    status.available = False
        return rejoined

    # -- bookkeeping totals ---------------------------------------------------------------
    @property
    def collected(self) -> int:
        return self.coordinator.collected

    @property
    def lost_tasks(self) -> int:
        return self.coordinator.lost_tasks

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ASYNCContext(version={self.version}, "
            f"in_flight={self.in_flight}, "
            f"queued={len(self.coordinator.results)})"
        )
