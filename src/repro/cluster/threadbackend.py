"""Real-thread backend.

Each worker is an OS thread draining a FIFO queue. Stragglers are emulated
exactly the way the paper does on its physical cluster: by sleeping — a
delay factor ``f`` stretches a task that took ``t`` seconds of real compute
to ``f * t`` (plus an optional floor so that microsecond-scale closures
still exhibit visible queueing).

All completion callbacks run under ``state_lock`` and wake any driver
blocked in :meth:`run_until`, which gives the exact synchronization
contract the simulation backend provides for free.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.cluster.backend import Backend, BackendTask, TaskMetrics
from repro.cluster.clock import WallClock
from repro.cluster.stragglers import DelayModel, NoDelay
from repro.errors import BackendError, WorkerLostError

__all__ = ["ThreadBackend"]

_POISON = object()


class ThreadBackend(Backend):
    """Executor with one thread per worker and wall-clock timing.

    Parameters
    ----------
    num_workers:
        Cluster size.
    delay_model:
        Straggler model; factors > 1 stretch task durations via sleep.
    min_task_s:
        Artificial floor on task duration in seconds. Defaults to 0 (no
        floor). Setting a small floor (e.g. 2 ms) makes straggler effects
        visible even for trivial closures, mirroring the paper's CDS setup
        where the sleep dominates.
    """

    lock_type = threading.RLock

    def __init__(
        self,
        num_workers: int,
        *,
        delay_model: DelayModel | None = None,
        min_task_s: float = 0.0,
    ) -> None:
        super().__init__(num_workers, WallClock())
        self.delay_model = delay_model or NoDelay()
        self.min_task_s = float(min_task_s)
        self._cond = threading.Condition(self.state_lock)
        self._queues: list[queue.Queue] = [queue.Queue() for _ in range(num_workers)]
        self._task_seq = [0] * num_workers
        self._pending = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(w,), daemon=True,
                name=f"repro-worker-{w}",
            )
            for w in range(num_workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission -----------------------------------------------------------
    def submit(self, task: BackendTask, worker_id: int) -> None:
        if self._shutdown:
            raise BackendError("backend already shut down")
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        with self._cond:
            self._pending += 1
        self._queues[worker_id].put((task, self.clock.now()))

    def pending_count(self) -> int:
        with self._cond:
            return self._pending

    # -- worker loop ------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        env = self.envs[worker_id]
        q = self._queues[worker_id]
        while True:
            item = q.get()
            if item is _POISON:
                return
            task, submitted_ms = item
            metrics = TaskMetrics(
                task_id=task.task_id,
                worker_id=worker_id,
                partition=task.metrics_partition,
                submitted_ms=submitted_ms,
                in_bytes=task.in_bytes,
            )
            metrics.started_ms = self.clock.now()
            error: BaseException | None = None
            value: Any = None
            if not env.alive:
                error = WorkerLostError(worker_id)
            else:
                t0 = time.perf_counter()
                try:
                    value = task.fn(env)
                except Exception as exc:  # noqa: BLE001 - forwarded
                    error = exc
                measured_s = time.perf_counter() - t0
                self._task_seq[worker_id] += 1
                factor = self.delay_model.factor(
                    worker_id, self._task_seq[worker_id]
                )
                metrics.delay_factor = factor
                metrics.measured_ms = measured_s * 1000.0
                base_s = max(measured_s, self.min_task_s)
                extra_s = base_s * factor - measured_s
                if extra_s > 0:
                    time.sleep(extra_s)
            metrics.finished_ms = self.clock.now()
            metrics.compute_ms = metrics.finished_ms - metrics.started_ms
            if error is None:
                metrics.out_bytes = task.out_bytes_of(value)
            env.consume_fetch_bytes()  # fetches are instantaneous here
            env.consume_cost_units()
            with self._cond:
                metrics.delivered_ms = self.clock.now()
                self._deliver(task, worker_id, value, metrics, error)
                self._pending -= 1
                self._cond.notify_all()

    # -- driver synchronization ---------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], *, host_timeout_s: float | None = None
    ) -> bool:
        deadline = (
            time.perf_counter() + host_timeout_s if host_timeout_s else None
        )
        with self._cond:
            while not predicate():
                if self._pending == 0:
                    return predicate()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return predicate()
                self._cond.wait(timeout=remaining if remaining else 0.5)
        return True

    # -- fault injection -----------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        env = self.envs[worker_id]
        env.alive = False
        env.clear()
        with self._cond:
            self.members_epoch += 1

    def revive_worker(self, worker_id: int) -> None:
        """Bring a dead worker back; a no-op on a live one."""
        env = self.envs[worker_id]
        if env.alive:
            return
        env.alive = True
        with self._cond:
            self.members_epoch += 1

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        for q in self._queues:
            q.put(_POISON)
        for t in self._threads:
            t.join(timeout=5.0)
