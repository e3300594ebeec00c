"""BSP job scheduler: Spark's synchronous action execution path.

``run_job`` launches one task per requested partition on its preferred
worker (partition ``i`` lives on worker ``i mod P`` — the engine's
locality rule), blocks until every task has delivered, and returns results
in partition order. A worker lost mid-job triggers transparent retry on
another worker, recomputing the partition from lineage.

It runs RDD actions and the optimizers' one-off full passes; the
synchronous optimizers' rounds place and retry partitions by the same
:meth:`JobScheduler.pick_worker` rule under the server loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.backend import TaskMetrics, WorkerEnv
from repro.engine.taskcontext import task_env
from repro.errors import SchedulerError, TaskError, WorkerLostError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext
    from repro.engine.rdd import RDD

__all__ = ["JobScheduler"]

# func(split_index, partition_data) -> per-partition result
PartitionFunc = Callable[[int, list], Any]


class JobScheduler:
    """Synchronous (bulk-synchronous) job execution with retry."""

    def __init__(self, ctx: "ClusterContext", max_retries: int = 2) -> None:
        self.ctx = ctx
        self.max_retries = max_retries
        self.jobs_run = 0

    def run_job(
        self,
        rdd: "RDD",
        func: PartitionFunc,
        partitions: Sequence[int] | None = None,
    ) -> list:
        """Execute ``func`` over each partition; block until all deliver."""
        splits = list(partitions) if partitions is not None else list(
            rdd.partitions()
        )
        for s in splits:
            if not 0 <= s < rdd.num_partitions:
                raise SchedulerError(f"partition {s} out of range")
        dispatcher = self.ctx.dispatcher
        job_id = dispatcher.new_job_id()
        results: dict[int, Any] = {}
        fatal: list[BaseException] = []
        outstanding = {"n": 0}

        def submit(split: int, attempt: int) -> None:
            worker = self.pick_worker(split, attempt)

            def fn(env: WorkerEnv, _split: int = split) -> Any:
                with task_env(env):
                    data = rdd.iterator(_split, env)
                    return func(_split, data)

            def cont(
                task_id: int,
                worker_id: int,
                value: Any,
                metrics: TaskMetrics,
                error: BaseException | None,
                _split: int = split,
                _attempt: int = attempt,
            ) -> None:
                outstanding["n"] -= 1
                if error is None:
                    results[_split] = value
                elif isinstance(error, WorkerLostError) and _attempt < self.max_retries:
                    submit(_split, _attempt + 1)
                else:
                    fatal.append(
                        TaskError(
                            f"partition {_split} failed after "
                            f"{_attempt + 1} attempt(s): {error!r}",
                            task_id=task_id,
                            worker_id=worker_id,
                            cause=error,
                        )
                    )

            outstanding["n"] += 1
            dispatcher.submit(
                fn,
                worker,
                on_complete=cont,
                job_id=job_id,
                in_bytes=self.ctx.task_descriptor_bytes,
            )

        with self.ctx.backend.state_lock:
            for split in splits:
                submit(split, 0)

        def done() -> bool:
            return bool(fatal) or (
                len(results) == len(splits) and outstanding["n"] == 0
            )

        self.ctx.backend.run_until(done, host_timeout_s=self.ctx.job_timeout_s)
        if fatal:
            raise fatal[0]
        if len(results) != len(splits):
            raise SchedulerError(
                f"job {job_id} stalled: {len(results)}/{len(splits)} "
                "partitions finished"
            )
        self.jobs_run += 1
        return [results[s] for s in splits]

    def pick_worker(self, split: int, attempt: int) -> int:
        """Preferred locality with linear probing over alive workers:
        the first alive worker of ``(split + attempt + k) % P``, k = 0,
        1, ... (the server loop's synchronous rounds use it too)."""
        backend = self.ctx.backend
        n = backend.num_workers
        for probe in range(n):
            w = (split + attempt + probe) % n
            if backend.worker_env(w).alive:
                return w
        raise SchedulerError("no alive workers in the cluster")
