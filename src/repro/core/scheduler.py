"""ASYNCscheduler (Section 4.4).

Dispatches tasks to the workers a :class:`~repro.core.policies.
SchedulingPolicy` admits over the live STAT table. ``submit_round``
blocks (advancing backend time) until the policy's ``ready`` predicate
holds, then walks the policy's ``eligible`` workers in order and ships,
to each one that holds data, one locally reduced task at
``granularity="worker"`` or one task per resident partition (ascending)
at ``granularity="partition"``.

This is the mechanism behind ASP / BSP / SSP / ``frac`` / ``ct`` and the
user-defined filters of Listing 2.
``run_sync_round`` is the synchronous algorithms' round instead: no
policy, the engine's one partition job
(:func:`~repro.engine.scheduler.run_partitions`) places, retries and
waits, and every attempt still goes through this scheduler's dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.backend import TaskMetrics, WorkerEnv
from repro.core.policies import SchedulingPolicy
from repro.engine.dispatch import Continuation
from repro.engine.scheduler import run_partitions
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ASYNCContext
    from repro.engine.rdd import RDD

__all__ = ["AsyncScheduler"]

# make_fn(worker_id, local_splits) -> task closure returning (value, count)
TaskFactory = Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]


class AsyncScheduler:
    """Policy-gated task dispatch at worker or partition granularity."""

    def __init__(self, ac: "ASYNCContext") -> None:
        self.ac = ac
        self.in_flight = 0
        self.tasks_submitted = 0
        #: Subset of ``tasks_submitted`` that carried partition identity.
        self.partition_tasks_submitted = 0
        # task_id -> (model version, partition, comm manager, sync-round
        # continuation) of every task in flight, read by the one
        # continuation.
        self._tasks: dict[
            int, tuple[int, int | None, Any, Continuation | None]
        ] = {}
        # ((num_partitions, members_epoch), assigned): each alive
        # data-holding worker's partitions. The locality rule is static
        # and membership changes are rare, so most rounds reuse the
        # previous round's map instead of re-deriving it.
        self._assigned_cache: tuple[tuple, dict[int, list[int]]] | None = None

    def submit_round(
        self,
        rdd: "RDD",
        make_fn: TaskFactory,
        policy: SchedulingPolicy,
        granularity: str = "worker",
    ) -> list[int]:
        """Wait for the policy, then dispatch to the workers it admits.

        ``granularity`` selects the submission unit:

        - ``"worker"`` (default, the paper's model): one task per worker
          covering all of its local partitions, locally reduced before
          submission — the capability the paper notes Glint lacks.
        - ``"partition"``: one task per partition; every partition ships
          its own result to the server, where its record carries the
          partition id (``record.partition``).

        ``policy`` is a normalized :class:`SchedulingPolicy` (callers
        coerce user input once, via ``as_policy``, not per round). Its
        ``eligible`` workers are served in the order listed; one that
        holds no data is skipped, one listed twice is a
        :class:`~repro.errors.SchedulerError`.

        Returns the workers that received task(s) this round (possibly
        empty if the policy's filter excluded everyone).
        """
        if granularity not in ("worker", "partition"):
            raise SchedulerError(
                f"unknown submission granularity {granularity!r}"
            )
        ac = self.ac
        backend = ac.ctx.backend
        stat = ac.stat

        satisfied = policy.ready(stat) or backend.run_until(
            lambda: policy.ready(stat)
        )
        if not satisfied:
            raise SchedulerError(
                f"policy {policy.describe()} can never be satisfied: "
                f"{stat.num_available}/{len(stat)} workers available, "
                f"{self.in_flight} task(s) in flight"
            )

        # Alive workers holding data, with their partitions in
        # ascending order. Membership (kill/revive) bumps a counter,
        # so the map is cached across rounds.
        num_partitions = rdd.num_partitions
        cache_key = (num_partitions, backend.members_epoch)
        cached = self._assigned_cache
        if cached is not None and cached[0] == cache_key:
            assigned = cached[1]
        else:
            by_owner: dict[int, list[int]] = {}
            for p in range(num_partitions):
                by_owner.setdefault(ac.ctx.owner_of(p), []).append(p)
            assigned = {
                w: by_owner[w] for w in sorted(by_owner)
                if backend.worker_env(w).alive
            }
            self._assigned_cache = (cache_key, assigned)

        version = ac.coordinator.version
        job_id = ac.ctx.dispatcher.new_job_id()
        targets: list[int] = []
        dataless: list[int] = []
        for w in policy.eligible(stat):
            if w in targets or w in dataless:
                raise SchedulerError(
                    f"policy {policy.describe()} listed worker {w} "
                    "twice; eligible workers must be distinct"
                )
            splits = assigned.get(w)
            if splits is None:
                dataless.append(w)
                continue
            targets.append(w)
            if granularity == "worker":
                self._dispatch(w, make_fn(w, splits), version, job_id)
            else:
                for p in splits:
                    self._dispatch(
                        w, make_fn(w, [p]), version, job_id, partition=p,
                    )
        if not targets and self.in_flight == 0:
            # Nothing dispatched and nothing in flight: the driver
            # would spin forever waiting for a result that can never
            # arrive. Fail loudly instead.
            raise SchedulerError(
                f"policy {policy.describe()} admitted no data-holding "
                "worker with no tasks in flight; a policy must admit "
                "at least one when the cluster is idle"
            )
        return targets

    def run_sync_round(
        self,
        num_partitions: int,
        make_fn: TaskFactory,
        out_bytes_of: Callable[[Any], int] | None = None,
    ) -> None:
        """One bulk-synchronous round: every partition, then a barrier.

        No policy: the engine's partition job places, retries and waits
        exactly as for ``run_job``. Each attempt at partition ``p`` is the
        task ``make_fn(worker, [p])``, tagged ``p`` and dispatched against
        the model version the round opened with. Every attempt reaches the
        coordinator (a lost one counts in ``lost_tasks``), and each
        partition's result waits once in its queue. A partition out of
        retries raises :class:`~repro.errors.TaskError`, a stalled round
        :class:`~repro.errors.SchedulerError`.
        """
        version = self.ac.coordinator.version

        def send(
            split: int, worker: int, job_id: int, then: Continuation
        ) -> None:
            self._dispatch(
                worker, make_fn(worker, [split]), version, job_id,
                partition=split, out_bytes_of=out_bytes_of, then=then,
            )

        run_partitions(self.ac.ctx, num_partitions, send)

    def _on_complete(
        self,
        task_id: int,
        wid: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
    ) -> None:
        """The one continuation of every dispatched task: the coordinator
        sees every attempt, then a sync round's job sees it too."""
        version, partition, comm, then = self._tasks[task_id]
        del self._tasks[task_id]
        self.in_flight -= 1
        if error is None:
            payload, count = value
            if comm is not None:
                # Server-side decode + one "collect" ledger row.
                payload = comm.note_collect(payload, metrics.out_bytes)
        else:
            payload, count = None, 0
        self.ac.coordinator.on_result(
            task_id, wid, payload, metrics, error,
            version=version, batch_size=count, partition=partition,
        )
        if then is not None:
            then(task_id, wid, None, metrics, error)

    def _dispatch(
        self,
        worker_id: int,
        fn: Callable[[WorkerEnv], tuple[Any, int]],
        version: int,
        job_id: int,
        partition: int | None = None,
        out_bytes_of: Callable[[Any], int] | None = None,
        then: Continuation | None = None,
    ) -> None:
        ac = self.ac
        self.in_flight += 1
        self.tasks_submitted += 1
        if partition is not None:
            self.partition_tasks_submitted += 1
        ac.coordinator.on_assigned(worker_id, version)
        comm = ac.comm
        if comm is not None:
            # Worker-side encode (error-feedback compression of the
            # reduced payload; identity for "none") and the matching
            # wire-byte measure for the backend's network pricing.
            fn = comm.wrap_task_fn(fn, partition)
            out_bytes_of = comm.out_bytes_of
        task_id = ac.ctx.dispatcher.submit(
            fn,
            worker_id,
            on_complete=self._on_complete,
            job_id=job_id,
            in_bytes=ac.ctx.task_descriptor_bytes,
            partition=partition,
            out_bytes_of=out_bytes_of,
        )
        # Recorded after submit returns: a task's result is delivered by
        # a later event-loop step, never inside ``submit``.
        self._tasks[task_id] = (version, partition, comm, then)
