"""The records a backend passes around: tasks, their metrics, worker envs.

:class:`~repro.cluster.simbackend.SimBackend` owns ``num_workers``
worker slots, each with a :class:`WorkerEnv` (worker-local key/value
store used by the engine's block manager and the ASYNCbroadcaster's
history cache). The engine submits :class:`BackendTask` closures to a
specific worker and receives a completion callback ``(task, worker_id,
value, metrics, error)``. Everything runs on the driver's thread: a task
body, a completion callback and the driver's own bookkeeping never
overlap, so none of them takes a lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.utils.sizeof import sizeof_bytes

__all__ = ["BackendTask", "TaskMetrics", "WorkerEnv", "CompletionCallback"]


@dataclass
class TaskMetrics:
    """Timing and volume record for one executed task (all times in ms).

    ``partition`` is the data partition the task covered when it was
    submitted at partition granularity; ``-1`` for worker-granular tasks
    (one locally-reduced task over all of a worker's partitions).
    """

    task_id: int
    worker_id: int
    job_id: int = -1
    partition: int = -1
    submitted_ms: float = 0.0
    started_ms: float = 0.0
    finished_ms: float = 0.0
    delivered_ms: float = 0.0
    compute_ms: float = 0.0
    delay_factor: float = 1.0
    in_bytes: int = 0
    out_bytes: int = 0
    fetch_bytes: int = 0


@dataclass
class BackendTask:
    """A unit of work bound for one worker.

    ``fn`` receives the worker's :class:`WorkerEnv` and returns the task's
    value. ``cost_units`` is the advertised work volume, used when the
    body reports none; ``in_bytes`` the driver->worker payload size (task
    description plus any broadcast value shipped alongside, per the
    engine's accounting). ``partition`` identifies the single data
    partition a partition-granular task covers (``None`` for
    worker-granular tasks); backends stamp it into the task's metrics.
    """

    task_id: int
    fn: Callable[["WorkerEnv"], Any]
    cost_units: float = 0.0
    in_bytes: int = 0
    partition: int | None = None
    out_bytes_of: Callable[[Any], int] = field(default=sizeof_bytes)

    @property
    def metrics_partition(self) -> int:
        """The partition id as recorded in :class:`TaskMetrics` (-1 = none)."""
        return -1 if self.partition is None else self.partition


CompletionCallback = Callable[
    [BackendTask, int, Any, TaskMetrics, BaseException | None], None
]


class WorkerEnv:
    """Worker-local state: a key/value block store plus fetch accounting.

    The ASYNCbroadcaster records bytes it had to fetch from the server
    (history misses) via :meth:`record_fetch`; the simulation backend folds
    those bytes into the task's modeled duration.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.alive = True
        self._kv: dict[Any, Any] = {}
        self._pending_fetch_bytes = 0
        self._pending_cost_units = 0.0

    def get(self, key: Any, default: Any = None) -> Any:
        return self._kv.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._kv[key] = value

    def __contains__(self, key: Any) -> bool:
        return key in self._kv

    def keys(self) -> list[Any]:
        return list(self._kv.keys())

    def clear(self) -> None:
        """Drop all local state (used when a worker is killed)."""
        self._kv.clear()
        self._pending_fetch_bytes = 0

    def record_fetch(self, nbytes: int) -> None:
        """Account for bytes fetched on-demand from the server mid-task."""
        self._pending_fetch_bytes += int(nbytes)

    def consume_fetch_bytes(self) -> int:
        """Return and reset the bytes fetched by the task that just ran."""
        n = self._pending_fetch_bytes
        self._pending_fetch_bytes = 0
        return n

    def record_cost(self, units: float) -> None:
        """Report the actual work volume a task processed (e.g. rows).

        Overrides the static ``BackendTask.cost_units`` estimate when
        present — closures that sample data only know their true volume
        at execution time.
        """
        self._pending_cost_units += float(units)

    def consume_cost_units(self) -> float:
        units = self._pending_cost_units
        self._pending_cost_units = 0.0
        return units
