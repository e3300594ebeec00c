"""The engine's one partition job: Spark's synchronous stage with retry.

:func:`run_partitions` sends one task per partition ``0..n-1``, in
order, to the worker :func:`pick_worker` chooses (partition ``i`` lives
on worker ``i mod P`` — the engine's locality rule), blocks until every
partition has delivered, and returns the values in partition order. A
task lost with its worker goes at once to the next alive worker, at most
:data:`MAX_RETRIES` times, recomputing the partition from lineage.

Both synchronous paths run through it and differ only in the ``send``
that submits one attempt: ``ClusterContext.run_job`` (RDD actions and the
optimizers' full-gradient passes) and ``AsyncScheduler.run_sync_round``
(every round of ``sgd``, ``saga``, ``svrg`` and ``admm``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.backend import TaskMetrics
from repro.engine.dispatch import Continuation
from repro.errors import SchedulerError, TaskError, WorkerLostError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = ["MAX_RETRIES", "pick_worker", "run_partitions"]

#: Resends of a task lost with its worker before its partition fails.
MAX_RETRIES = 2

# send(split, worker_id, job_id, on_complete): submit one attempt
Send = Callable[[int, int, int, Continuation], None]


def pick_worker(ctx: "ClusterContext", split: int, attempt: int) -> int:
    """Preferred locality with linear probing over alive workers: the
    first alive worker of ``(split + attempt + k) % P``, k = 0, 1, ..."""
    backend = ctx.backend
    n = backend.num_workers
    for probe in range(n):
        w = (split + attempt + probe) % n
        if backend.worker_env(w).alive:
            return w
    raise SchedulerError("no alive workers in the cluster")


def run_partitions(
    ctx: "ClusterContext", num_partitions: int, send: Send
) -> list:
    """Run one task per partition to completion; values in partition order."""
    job_id = ctx.dispatcher.new_job_id()
    results: list = [None] * num_partitions
    fatal: list[TaskError] = []
    # A partition has at most one attempt in flight, so the job is done
    # exactly when every partition has delivered.
    left = num_partitions

    def submit(split: int, attempt: int) -> None:
        def cont(
            task_id: int,
            worker_id: int,
            value: Any,
            metrics: TaskMetrics,
            error: BaseException | None,
        ) -> None:
            nonlocal left
            if error is None:
                results[split] = value
                left -= 1
            elif isinstance(error, WorkerLostError) and attempt < MAX_RETRIES:
                submit(split, attempt + 1)
            else:
                fatal.append(TaskError(
                    f"partition {split} failed after {attempt + 1} "
                    f"attempt(s): {error!r}",
                    task_id=task_id, worker_id=worker_id, cause=error,
                ))

        send(split, pick_worker(ctx, split, attempt), job_id, cont)

    with ctx.backend.state_lock:
        for split in range(num_partitions):
            submit(split, 0)
    ctx.backend.run_until(
        lambda: not left or bool(fatal), host_timeout_s=ctx.job_timeout_s
    )
    if fatal:
        raise fatal[0]
    if left:
        raise SchedulerError(
            f"job {job_id} stalled: {num_partitions - left}/"
            f"{num_partitions} partitions finished"
        )
    return results
