"""Task dispatch: the single funnel between schedulers and the backend.

Both the BSP job scheduler and the ASYNCscheduler submit work through the
dispatcher, which owns the backend's completion callback and routes each
result to the submitting scheduler's continuation. It also keeps the
metrics log that the wait-time analysis (Figures 4/6, Table 3) is computed
from; long runs can bound its footprint with ``metrics_retention``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Iterator

from repro.cluster.backend import Backend, BackendTask, TaskMetrics
from repro.errors import ReproError
from repro.utils.sizeof import sizeof_bytes

__all__ = ["Dispatcher", "MetricsLog"]

# on_complete(task_id, worker_id, value, metrics, error)
Continuation = Callable[[int, int, Any, TaskMetrics, BaseException | None], None]


class MetricsLog:
    """Task-metrics sink with selectable retention.

    Modes (the dispatcher's ``metrics_retention`` knob):

    - ``"all"`` (default): keep every row — list semantics, and the mode
      the wait-time figures reproduce under.
    - ``"window:n"``: keep only the most recent ``n`` rows. Older rows
      are dropped but still *counted*, so ``len()`` and the
      ``metrics_log[start:]`` windows optimizers take keep their global
      indexing; a slice simply omits rows that fell out of the window.
    - ``"aggregate"``: keep no rows at all, only running totals
      (:meth:`summary`) — million-update runs hold O(1) metrics state.

    ``len()`` is always the total number of rows ever appended.
    """

    __slots__ = ("retention", "_rows", "_window", "_total", "_sums")

    _SUM_FIELDS = (
        "queue_ms", "compute_ms", "measured_ms",
        "in_bytes", "out_bytes", "fetch_bytes",
    )

    def __init__(self, retention: str = "all") -> None:
        self.retention = retention
        self._window: int | None = None
        if retention == "all":
            self._rows: "list[TaskMetrics] | deque[TaskMetrics] | None" = []
        elif retention == "aggregate":
            self._rows = None
        elif retention.startswith("window:"):
            try:
                self._window = int(retention.split(":", 1)[1])
            except ValueError:
                self._window = 0
            if self._window <= 0:
                raise ReproError(
                    f"metrics_retention window must be a positive int, "
                    f"got {retention!r}"
                )
            self._rows = deque(maxlen=self._window)
        else:
            raise ReproError(
                f"unknown metrics_retention {retention!r}; expected "
                "'all', 'window:n', or 'aggregate'"
            )
        self._total = 0
        # Running sums are only maintained when rows can be dropped; in
        # "all" mode the summary is computed from the retained rows, so
        # the hot append path stays a bare list append.
        self._sums = (
            None if retention == "all"
            else dict.fromkeys(self._SUM_FIELDS, 0.0)
        )

    # -- write path ----------------------------------------------------------
    def append(self, metrics: TaskMetrics) -> None:
        self._total += 1
        if self._sums is not None:
            for name in self._SUM_FIELDS:
                self._sums[name] += getattr(metrics, name)
        if self._rows is not None:
            self._rows.append(metrics)

    # -- list-compatible read path -------------------------------------------
    def __len__(self) -> int:
        return self._total

    def __iter__(self) -> Iterator[TaskMetrics]:
        return iter(self._rows) if self._rows is not None else iter(())

    @property
    def dropped(self) -> int:
        """Rows appended but no longer retained."""
        retained = len(self._rows) if self._rows is not None else 0
        return self._total - retained

    def __getitem__(self, index):
        """Index/slice by *global* row position.

        Rows outside the retained suffix are omitted from slices; direct
        indexing of a dropped row raises ``IndexError``.
        """
        if isinstance(index, slice):
            start, stop, step = index.indices(self._total)
            if self._rows is None:
                return []
            first = self.dropped
            rows = self._rows
            return [
                rows[g - first]
                for g in range(start, stop, step)
                if g >= first
            ]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError("metrics index out of range")
        offset = index - self.dropped
        if self._rows is None or offset < 0:
            raise IndexError(
                f"metrics row {index} was dropped by retention "
                f"{self.retention!r}"
            )
        return self._rows[offset]

    # -- aggregates ----------------------------------------------------------
    def summary(self) -> dict:
        """Running totals over *all* appended rows (any retention mode)."""
        sums = self._sums
        if sums is None:  # "all": every row is retained, sum on demand
            sums = {
                name: float(sum(getattr(m, name) for m in self._rows))
                for name in self._SUM_FIELDS
            }
        out = {"count": self._total, "dropped": self.dropped}
        for name in self._SUM_FIELDS:
            out[f"total_{name}"] = sums[name]
            out[f"mean_{name}"] = (
                sums[name] / self._total if self._total else 0.0
            )
        return out


class Dispatcher:
    """Routes completions to per-submission continuations, logs metrics."""

    def __init__(
        self, backend: Backend, *, metrics_retention: str = "all"
    ) -> None:
        self.backend = backend
        self._task_ids = itertools.count()
        self._job_ids = itertools.count()
        self._continuations: dict[int, tuple[int, Continuation]] = {}
        self.metrics_log = MetricsLog(metrics_retention)
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
        cost_units: float = 0.0,
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
        jid = self.new_job_id() if job_id is None else job_id
        task = BackendTask(
            task_id=task_id,
            fn=fn,
            cost_units=cost_units,
            in_bytes=in_bytes,
            partition=partition,
            out_bytes_of=out_bytes_of or sizeof_bytes,
        )
        self._continuations[task_id] = (jid, on_complete)
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
        entry = self._continuations.pop(task.task_id, None)
        if entry is None:
            # Worker-loss notifications arrive with a synthetic task id; they
            # carry no continuation and are logged for the fault injector.
            self.metrics_log.append(metrics)
            return
        job_id, cont = entry
        metrics.job_id = job_id
        self.metrics_log.append(metrics)
        self.total_in_bytes += metrics.in_bytes
        self.total_out_bytes += metrics.out_bytes
        self.total_fetch_bytes += metrics.fetch_bytes
        cont(task.task_id, worker_id, value, metrics, error)

    def outstanding(self) -> int:
        return len(self._continuations)
