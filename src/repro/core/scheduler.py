"""ASYNCscheduler (Section 4.4).

Dispatches tasks to targets chosen by a :class:`~repro.core.policies.
SchedulingPolicy` over the live STAT table. ``submit_round`` blocks
(advancing backend time) until the policy's ``ready`` predicate holds,
then:

1. builds the round's candidate :class:`~repro.core.policies.Target`
   list from the context's locality rule — one worker-target per
   data-owning alive worker at ``granularity="worker"``, one
   partition-target per resident partition (worker-major order) at
   ``granularity="partition"``,
2. hands the candidates to the policy's ``select`` hook and ships one
   task per chosen target.

This is the mechanism behind ASP / BSP / SSP / ``frac`` / ``ct`` and the
user-defined filters of Listing 2.
``run_sync_round`` is the synchronous algorithms' round instead: no
policy, the engine's one partition job
(:func:`~repro.engine.scheduler.run_partitions`) places, retries and
waits, and every attempt still goes through this scheduler's dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.backend import TaskMetrics, WorkerEnv
from repro.core.policies import SchedulingPolicy, Target
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
        # (num_partitions, members_epoch, granularity) -> (assigned,
        # candidates, set(candidates)). The locality rule is static and
        # membership changes are rare, so most rounds reuse the previous
        # round's candidates instead of re-deriving them.
        self._candidate_cache: tuple[
            tuple, dict[int, list[int]], list[Target], set[Target]
        ] | None = None

    def submit_round(
        self,
        rdd: "RDD",
        make_fn: TaskFactory,
        policy: SchedulingPolicy,
        granularity: str = "worker",
    ) -> list[int]:
        """Wait for the policy, then dispatch to the targets it selects.

        ``granularity`` selects the submission unit:

        - ``"worker"`` (default, the paper's model): one task per worker
          covering all of its local partitions, locally reduced before
          submission — the capability the paper notes Glint lacks.
        - ``"partition"``: one task per partition; every partition ships
          its own result to the server tagged with its partition id, and
          the STAT table grows per-partition rows.

        ``policy`` is a normalized :class:`SchedulingPolicy` (callers
        coerce user input once, via ``as_policy``, not per round).

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
            lambda: policy.ready(stat),
            host_timeout_s=ac.ctx.job_timeout_s,
        )
        if not satisfied:
            raise SchedulerError(
                f"policy {policy.describe()} can never be satisfied: "
                f"{stat.num_available}/{len(stat)} workers available, "
                f"{self.in_flight} task(s) in flight"
            )

        with backend.state_lock:
            # 1. Candidates: alive workers holding data, in worker-id
            # order; availability filtering is the policy's job (the
            # default select admits available ones). Membership
            # (kill/revive) bumps a counter, so the derived structures
            # are cached across rounds.
            num_partitions = rdd.num_partitions
            cache_key = (num_partitions, backend.members_epoch, granularity)
            cached = self._candidate_cache
            if cached is not None and cached[0] == cache_key:
                _, assigned, candidates, allowed = cached
            else:
                owners = np.fromiter(
                    (ac.ctx.owner_of(p) for p in range(num_partitions)),
                    dtype=np.int64,
                    count=num_partitions,
                )
                assigned = {}
                for w in np.unique(owners).tolist():
                    if backend.worker_env(w).alive:
                        assigned[w] = np.flatnonzero(owners == w).tolist()
                owner_workers = list(assigned)  # np.unique is sorted
                if granularity == "worker":
                    candidates = [
                        Target("worker", w, w) for w in owner_workers
                    ]
                else:
                    candidates = [
                        Target("partition", p, w)
                        for w in owner_workers
                        for p in assigned[w]
                    ]
                allowed = set(candidates)
                self._candidate_cache = (
                    cache_key, assigned, candidates, allowed
                )

            # 2. Selection and dispatch.
            chosen = policy.select(stat, candidates)
            version = ac.coordinator.version
            job_id = ac.ctx.dispatcher.new_job_id()
            targets: list[int] = []
            seen_workers: set[int] = set()
            seen_targets: set[Target] = set()
            for t in chosen:
                if t not in allowed:
                    raise SchedulerError(
                        f"policy {policy.describe()} selected {t!r}, which "
                        "was not among this round's candidates"
                    )
                if t in seen_targets:
                    raise SchedulerError(
                        f"policy {policy.describe()} selected {t!r} twice; "
                        "a selection must not duplicate targets"
                    )
                seen_targets.add(t)
                if t.worker not in seen_workers:
                    seen_workers.add(t.worker)
                    targets.append(t.worker)
                if granularity == "worker":
                    self._dispatch(
                        t.worker, make_fn(t.worker, assigned[t.worker]),
                        version, job_id,
                    )
                else:
                    self._dispatch(
                        t.worker, make_fn(t.worker, [t.id]), version, job_id,
                        partition=t.id,
                    )
            if not chosen and self.in_flight == 0:
                # Nothing dispatched and nothing in flight: the driver
                # would spin forever waiting for a result that can never
                # arrive. Fail loudly instead.
                raise SchedulerError(
                    f"policy {policy.describe()} selected no targets with "
                    "no tasks in flight; a selection policy must admit at "
                    "least one target when the cluster is idle"
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
            self.ac.coordinator.on_result(
                task_id, wid, payload, metrics, None,
                version=version, batch_size=count,
                partition=partition,
            )
        else:
            self.ac.coordinator.on_result(
                task_id, wid, None, metrics, error,
                version=version, batch_size=0,
                partition=partition,
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
        ac.coordinator.on_assigned(worker_id, version, partition=partition)
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
        # Recorded after submit returns: dispatch runs under
        # ``state_lock``, which every delivery also holds.
        self._tasks[task_id] = (version, partition, comm, then)
