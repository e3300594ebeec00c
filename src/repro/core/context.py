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
(the one collect call)  ``ac.next_result(block)`` (a record, or ``None``)
======================  =====================================================

``collect_all``, ``collect`` and ``drain`` are built on ``next_result``,
which the server loop calls once blocking per round, then non-blocking
until it returns ``None`` (Algorithm 2's collect-and-drain). One more
addition to the paper's listings: after applying update(s) to the model,
the server calls ``ac.model_updated()``, which advances STAT's model
version so staleness can be computed. (On Spark, ASYNC extracts this
from the TaskContext; a library cannot observe your ``w -= ...``
statement.)

Worker membership needs no call at all: ``ac.stat`` reads each worker's
liveness from the backend (``ctx.backend.worker_env(w).alive``), so a
worker killed or revived through ``ctx.backend.kill_worker`` /
``revive_worker`` or a fault plan leaves or rejoins scheduling at once.
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
        self.stat = StatTable(ctx.backend.envs, pipeline_depth)
        self.coordinator = Coordinator(self.stat)
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

    # -- versioning --------------------------------------------------------------
    @property
    def version(self) -> int:
        """Model version: number of updates the server has applied."""
        return self.stat.current_version

    def model_updated(self, count: int = 1) -> None:
        """Advance the model version after the server applied ``count``
        update(s)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.stat.current_version += count

    # -- result consumption ---------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.scheduler.in_flight

    def next_result(self, block: bool = False) -> TaskResultRecord | None:
        """FIFO-pop the next result record, or ``None`` if there is none.

        With ``block=True``, first advances the cluster until a result
        arrives or no in-flight task remains (then returns ``None``). A
        failed task's error is raised instead, ahead of any queued result.
        """
        coordinator = self.coordinator
        if block:
            self._wait()
        if coordinator.results or coordinator.errors:
            return coordinator.pop_result()
        return None

    def _wait(self) -> None:
        """Step the cluster until a result or error is queued or nothing
        is in flight (or no event is left)."""
        coordinator, scheduler = self.coordinator, self.scheduler
        step = self.ctx.backend.step
        while (not (coordinator.results or coordinator.errors)
               and scheduler.in_flight and step()):
            pass

    def has_next(self, block: bool = False) -> bool:
        """True if a task result is waiting.

        With ``block=True``, advances the cluster until a result arrives or
        no in-flight task remains (then returns False). A failed task's
        error is raised instead, ahead of any queued result.
        """
        coordinator = self.coordinator
        if block:
            self._wait()
        if coordinator.errors:
            raise coordinator.errors.popleft()
        return bool(coordinator.results)

    def collect_all(self, block: bool = True) -> TaskResultRecord:
        """FIFO-pop one result with its worker attributes (Table 1)."""
        record = self.next_result(block)
        if record is None:
            raise AsyncContextError(
                "ASYNCcollect: no task result available"
                + ("" if block else " (non-blocking)")
            )
        return record

    def collect(self, block: bool = True) -> Any:
        """FIFO-pop one task result value."""
        return self.collect_all(block=block).value

    def drain(self) -> list[TaskResultRecord]:
        """Pop every result currently queued (non-blocking)."""
        return list(iter(self.next_result, None))

    def wait_all(self) -> None:
        """Advance until no submitted task remains in flight."""
        self.ctx.backend.run_until(lambda: self.scheduler.in_flight == 0)

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
        every result record carries its partition id
        (``record.partition``); STAT stays one row per worker. Returns
        the workers that received tasks.
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
