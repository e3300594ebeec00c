"""Backend abstraction shared by the DES and thread executors.

A backend owns ``num_workers`` worker slots, each with a
:class:`WorkerEnv` (worker-local key/value store used by the engine's
block manager and the ASYNCbroadcaster's history cache). The engine
submits :class:`BackendTask` closures to a specific worker and receives a
completion callback ``(task, worker_id, value, metrics, error)``.

Synchronization contract
------------------------
Callbacks are delivered while holding ``backend.state_lock``; driver-side
code that mutates shared bookkeeping from callbacks is therefore safe on
both backends. The lock and each worker env's counter lock are built from
the backend's ``lock_type``: a no-op for the single-threaded simulation,
an ``RLock`` for the thread backend.
``run_until(predicate)`` advances the backend until the predicate holds —
by popping virtual-time events in the simulation, or by waiting on a
condition variable with real threads.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.clock import Clock
from repro.utils.sizeof import sizeof_bytes

__all__ = [
    "BackendTask", "TaskMetrics", "WorkerEnv",
    "Backend", "CompletionCallback",
]


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
    measured_ms: float = 0.0
    delay_factor: float = 1.0
    in_bytes: int = 0
    out_bytes: int = 0
    fetch_bytes: int = 0

    @property
    def queue_ms(self) -> float:
        """Time the task waited for the worker to become free."""
        return max(self.started_ms - self.submitted_ms, 0.0)


@dataclass
class BackendTask:
    """A unit of work bound for one worker.

    ``fn`` receives the worker's :class:`WorkerEnv` and returns the task's
    value. ``cost_units`` is the advertised work volume for analytic cost
    models; ``in_bytes`` the driver->worker payload size (task description
    plus any broadcast value shipped alongside, per the engine's
    accounting). ``tag`` is opaque engine context carried through to the
    completion callback. ``partition`` identifies the single data
    partition a partition-granular task covers (``None`` for
    worker-granular tasks); backends stamp it into the task's metrics.
    """

    task_id: int
    fn: Callable[["WorkerEnv"], Any]
    cost_units: float = 0.0
    in_bytes: int = 0
    tag: Any = None
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

    Each store operation is a single dict operation, atomic on its own.
    The read-modify-write task counters are guarded by ``lock``: the
    owning backend passes an instance of its lock type (a no-op for the
    single-threaded simulation); a standalone env gets an ``RLock``.
    """

    def __init__(self, worker_id: int, lock: Any = None) -> None:
        self.worker_id = worker_id
        self.alive = True
        self._kv: dict[Any, Any] = {}
        self._lock = threading.RLock() if lock is None else lock
        self._pending_fetch_bytes = 0
        self._pending_cost_units = 0.0

    def get(self, key: Any, default: Any = None) -> Any:
        return self._kv.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._kv[key] = value

    def delete(self, key: Any) -> None:
        self._kv.pop(key, None)

    def __contains__(self, key: Any) -> bool:
        return key in self._kv

    def keys(self) -> list[Any]:
        return list(self._kv.keys())

    def clear(self) -> None:
        """Drop all local state (used when a worker is killed)."""
        with self._lock:
            self._kv.clear()
            self._pending_fetch_bytes = 0

    def record_fetch(self, nbytes: int) -> None:
        """Account for bytes fetched on-demand from the server mid-task."""
        with self._lock:
            self._pending_fetch_bytes += int(nbytes)

    def consume_fetch_bytes(self) -> int:
        """Return and reset the bytes fetched by the task that just ran."""
        with self._lock:
            n = self._pending_fetch_bytes
            self._pending_fetch_bytes = 0
            return n

    def record_cost(self, units: float) -> None:
        """Report the actual work volume a task processed (e.g. rows).

        Overrides the static ``BackendTask.cost_units`` estimate when
        present — closures that sample data only know their true volume
        at execution time.
        """
        with self._lock:
            self._pending_cost_units += float(units)

    def consume_cost_units(self) -> float:
        with self._lock:
            units = self._pending_cost_units
            self._pending_cost_units = 0.0
            return units


class _NullLock:
    """Context-manager no-op lock for the single-threaded simulation."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def acquire(self) -> bool:  # pragma: no cover - parity with RLock
        return True

    def release(self) -> None:  # pragma: no cover
        return None


class Backend(ABC):
    """Executor abstraction: submit tasks, advance time, observe results."""

    #: Builds ``state_lock`` and every worker env's counter lock: a no-op
    #: unless the backend runs tasks on threads of its own.
    lock_type: Callable[[], Any] = _NullLock

    def __init__(self, num_workers: int, clock: Clock) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.clock = clock
        self.envs = [WorkerEnv(w, self.lock_type()) for w in range(num_workers)]
        self._callback: CompletionCallback | None = None
        self.state_lock: Any = self.lock_type()
        #: Bumped on every kill/revive; schedulers key caches of
        #: membership-derived structures (candidate lists) on it.
        self.members_epoch = 0

    # -- configuration -----------------------------------------------------
    def set_completion_callback(self, cb: CompletionCallback) -> None:
        """Install the single completion sink (the engine's coordinator)."""
        self._callback = cb

    def worker_env(self, worker_id: int) -> WorkerEnv:
        return self.envs[worker_id]

    def now(self) -> float:
        return self.clock.now()

    def worker_ids(self) -> range:
        return range(self.num_workers)

    # -- execution ----------------------------------------------------------
    @abstractmethod
    def submit(self, task: BackendTask, worker_id: int) -> None:
        """Queue ``task`` for execution on ``worker_id`` (non-blocking)."""

    @abstractmethod
    def run_until(
        self, predicate: Callable[[], bool], *, host_timeout_s: float | None = None
    ) -> bool:
        """Advance until ``predicate()`` is true or no progress is possible.

        Returns the predicate's final value.
        """

    @abstractmethod
    def pending_count(self) -> int:
        """Number of submitted tasks whose results are not yet delivered."""

    def drain(self) -> None:
        """Run until all in-flight work has been delivered."""
        self.run_until(lambda: self.pending_count() == 0)

    # -- fault injection ----------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Mark a worker dead; its local blocks are lost and in-flight
        tasks fail with :class:`~repro.errors.WorkerLostError`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support fault injection"
        )

    def revive_worker(self, worker_id: int) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support fault injection"
        )

    def shutdown(self) -> None:
        """Release resources; further submissions are invalid."""

    # -- helpers -------------------------------------------------------------
    def _deliver(
        self,
        task: BackendTask,
        worker_id: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
    ) -> None:
        if self._callback is None:
            raise RuntimeError("no completion callback installed")
        self._callback(task, worker_id, value, metrics, error)
