"""ASYNCscheduler (Section 4.4).

Dispatches tasks to targets chosen by a :class:`~repro.core.policies.
SchedulingPolicy` over the live STAT table. ``submit_round`` blocks
(advancing backend time) until the policy's ``ready`` predicate holds,
then:

1. consults the policy's ``place`` hook and records accepted
   partition -> worker moves in the coordinator's placement overlay,
2. builds the round's candidate :class:`~repro.core.policies.Target`
   list — one worker-target per data-owning alive worker at
   ``granularity="worker"``, one partition-target per resident partition
   (worker-major order) at ``granularity="partition"``,
3. hands the candidates to the policy's ``select`` hook and ships one
   task per chosen target.

This is the mechanism behind ASP / BSP / SSP, the user-defined filters
of Listing 2, and the richer disciplines (client sampling, per-partition
completion filtering, partition migration) the protocol enables.
``run_sync_round`` is the synchronous algorithms' round instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.backend import TaskMetrics, WorkerEnv
from repro.core.policies import SchedulingPolicy, Target
from repro.errors import SchedulerError, TaskError, WorkerLostError

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
        # task_id -> (model version, partition, comm manager, sync retry
        # state) of every task in flight, read by the one continuation.
        self._tasks: dict[int, tuple[int, int | None, Any, Any]] = {}
        # The context's locality rule is static for the scheduler's
        # lifetime, so its partition -> worker map is computed once and
        # only the (usually tiny) placement overlay varies per round.
        self._base_owners: np.ndarray | None = None
        # (num_partitions, migrations, members_epoch, granularity) ->
        # (assigned, candidates, set(candidates)). Membership and
        # placement changes are rare; most rounds reuse the previous
        # round's candidates instead of re-deriving them from the owner
        # map.
        self._candidate_cache: tuple[
            tuple, dict[int, list[int]], list[Target], set[Target]
        ] | None = None

    def _owners(self, num_partitions: int, default_owner) -> np.ndarray:
        """Current partition -> worker map as an int array (overlay applied)."""
        if self._base_owners is None or len(self._base_owners) != num_partitions:
            self._base_owners = np.fromiter(
                (default_owner(p) for p in range(num_partitions)),
                dtype=np.int64,
                count=num_partitions,
            )
        placement = self.ac.coordinator.placement
        if not placement:
            return self._base_owners
        owners = self._base_owners.copy()
        for p, w in placement.items():
            if 0 <= p < num_partitions:
                owners[p] = w
        return owners

    @property
    def migrations(self) -> int:
        """Accepted partition moves (kept on the coordinator's overlay)."""
        return self.ac.coordinator.migrations

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
          the STAT table grows per-partition rows — the unit Hogwild-style
          and federated (local-update) methods schedule on.

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
            coordinator = ac.coordinator
            # 1. Placement: let the policy reassign partitions before the
            # round's candidates are built, so moves take effect now.
            moves = policy.place(stat)
            if moves:
                num_partitions = rdd.num_partitions

                def alive(w: int) -> bool:
                    return (
                        0 <= w < len(stat)
                        and stat[w].alive
                        and backend.worker_env(w).alive
                    )

                before = len(coordinator.migration_log)
                coordinator.apply_placement(
                    {
                        p: w for p, w in moves.items()
                        if 0 <= p < num_partitions
                    },
                    ac.ctx.owner_of,
                    acceptable=alive,
                )
                if ac.comm is not None:
                    # Each accepted move re-ships one partition's block;
                    # the COMM ledger prices it under "migration".
                    for moved, _old, _new in coordinator.migration_log[before:]:
                        ac.comm.record_migration(moved)

            # 2. Candidates: alive workers holding data (under the current
            # placement), in worker-id order; availability filtering is
            # the policy's job (the default select admits available ones).
            # Membership (kill/revive) and placement moves both bump a
            # counter, so the derived structures are cached across rounds.
            cache_key = (
                rdd.num_partitions,
                coordinator.migrations,
                backend.members_epoch,
                granularity,
            )
            cached = self._candidate_cache
            if cached is not None and cached[0] == cache_key:
                _, assigned, candidates, allowed = cached
            else:
                owners = self._owners(rdd.num_partitions, ac.ctx.owner_of)
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

            # 3. Selection and dispatch.
            chosen = policy.select(stat, candidates)
            version = coordinator.version
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

        No policy: partition ``p`` is the task ``make_fn(worker, [p])``,
        tagged ``p`` and sent in partition order to the worker
        ``JobScheduler.pick_worker`` picks, as ``run_job`` places it. A
        task lost with its worker goes at once to the next alive one, at
        most ``max_retries`` times (then a :class:`~repro.errors.TaskError`
        is queued), so every partition counts once per round. Returns when
        nothing is in flight; the results wait in the coordinator's queue.
        """
        ctx = self.ac.ctx
        job = (make_fn, ctx.dispatcher.new_job_id(), out_bytes_of)
        version = self.ac.coordinator.version
        with ctx.backend.state_lock:
            for split in range(num_partitions):
                self._dispatch_partition(split, 0, version, job)
        ctx.backend.run_until(
            lambda: self.in_flight == 0, host_timeout_s=ctx.job_timeout_s
        )

    def _dispatch_partition(
        self, split: int, attempt: int, version: int, job: tuple
    ) -> None:
        """Send attempt ``attempt`` of a sync round's partition ``split``."""
        make_fn, job_id, out_bytes_of = job
        worker = self.ac.ctx.scheduler.pick_worker(split, attempt)
        self._dispatch(
            worker, make_fn(worker, [split]), version, job_id,
            partition=split, out_bytes_of=out_bytes_of, retry=(attempt, job),
        )

    def _on_complete(
        self,
        task_id: int,
        wid: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
    ) -> None:
        """The one continuation of every dispatched task."""
        version, partition, comm, retry = self._tasks[task_id]
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
            coordinator = self.ac.coordinator
            coordinator.on_result(
                task_id, wid, None, metrics, error,
                version=version, batch_size=0,
                partition=partition,
            )
            if retry is None or not isinstance(error, WorkerLostError):
                return  # a task error is queued; collect raises it
            attempt, job = retry
            if attempt < self.ac.ctx.scheduler.max_retries:
                self._dispatch_partition(partition, attempt + 1, version, job)
                return
            coordinator.errors.append(TaskError(
                f"partition {partition} failed after {attempt + 1} "
                f"attempt(s): {error!r}",
                task_id=task_id, worker_id=wid, cause=error,
            ))

    def _dispatch(
        self,
        worker_id: int,
        fn: Callable[[WorkerEnv], tuple[Any, int]],
        version: int,
        job_id: int,
        partition: int | None = None,
        out_bytes_of: Callable[[Any], int] | None = None,
        retry: tuple | None = None,
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
        self._tasks[task_id] = (version, partition, comm, retry)
