"""Task dispatch: the single funnel between schedulers and the backend.

The engine's partition job (``run_job``) and the ASYNCscheduler submit
work through the dispatcher, which owns the backend's completion callback
and routes each result to the submitter's continuation (carried on the
task itself, with its job id, so the dispatcher keeps no per-task
table). It also keeps the metrics log — every task's
:class:`~repro.cluster.backend.TaskMetrics` row, in completion order —
that the wait-time analysis (Figures 4/6, Table 3) is computed from.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.cluster.backend import BackendTask, TaskMetrics
from repro.cluster.simbackend import SimBackend
from repro.utils.sizeof import sizeof_bytes

__all__ = ["Dispatcher"]

# on_complete(task_id, worker_id, value, metrics, error)
Continuation = Callable[[int, int, Any, TaskMetrics, BaseException | None], None]


class Dispatcher:
    """Routes completions to per-submission continuations, logs metrics."""

    def __init__(self, backend: SimBackend) -> None:
        self.backend = backend
        self._task_ids = itertools.count()
        self._job_ids = itertools.count()
        self.metrics_log: list[TaskMetrics] = []
        self.total_in_bytes = 0
        self.total_out_bytes = 0
        self.total_fetch_bytes = 0
        backend.set_completion_callback(self._on_complete)

    def new_job_id(self) -> int:
        return next(self._job_ids)

    def submit(
        self,
        fn: Callable[[Any], Any],
        worker_id: int,
        *,
        on_complete: Continuation,
        job_id: int | None = None,
        in_bytes: int = 256,
        partition: int | None = None,
        out_bytes_of: Callable[[Any], int] | None = None,
    ) -> int:
        """Submit ``fn`` to ``worker_id``; returns the task id.

        ``partition`` tags a partition-granular task with the single data
        partition it covers; the backend carries it into the task's
        metrics row, so the metrics log can be sliced per partition.
        """
        task_id = next(self._task_ids)
        task = BackendTask(
            task_id=task_id,
            fn=fn,
            in_bytes=in_bytes,
            partition=partition,
            out_bytes_of=out_bytes_of or sizeof_bytes,
            job_id=self.new_job_id() if job_id is None else job_id,
            on_complete=on_complete,
        )
        self.backend.submit(task, worker_id)
        return task_id

    def _on_complete(
        self,
        task: BackendTask,
        worker_id: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
    ) -> None:
        cont = task.on_complete
        if cont is None:
            # A task submitted without a continuation: only its metrics
            # are kept.
            self.metrics_log.append(metrics)
            return
        metrics.job_id = task.job_id
        self.metrics_log.append(metrics)
        self.total_in_bytes += metrics.in_bytes
        self.total_out_bytes += metrics.out_bytes
        self.total_fetch_bytes += metrics.fetch_bytes
        cont(task.task_id, worker_id, value, metrics, error)
