"""Discrete-event simulation backend.

Executes task closures for real (actual numpy work, actual results) while
tracking *when* everything happens on a virtual clock:

- driver -> worker payload transfer: ``network.transfer_ms(in_bytes)``
- queueing: each worker runs one task at a time, FIFO by arrival
- compute: ``cost_model.compute_ms(units) * delay.factor(worker, seq)``
- on-demand server fetches recorded by the closure (history-broadcast
  misses, broadcast cold reads) are charged as extra, undelayed transfer
  time
- worker -> driver result transfer: ``network.transfer_ms(out_bytes)``

Completion callbacks fire in virtual-time order with deterministic
tie-breaking, which makes whole asynchronous optimization runs
bit-reproducible under a fixed seed.

One task is two events — arrival at its worker, then delivery of its
result — each scheduled as a bound method plus arguments, so a hop
allocates no closure. Arrival stays its own event rather than being
folded into ``submit``: between a task's submit and its arrival other
tasks can finish, workers can be killed, and HIST can be pruned, and the
task must observe all of that. Per-task random streams (network jitter,
cost noise) are keyed by ``(name, task_id)`` and only seeded for a model
that draws from them; deterministic models are handed ``None``.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable

from repro.cluster.backend import (
    BackendTask, CompletionCallback, TaskMetrics, WorkerEnv,
)
from repro.cluster.clock import VirtualClock
from repro.cluster.cost import AnalyticCostModel, TaskCostModel
from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.stragglers import DelayModel, NoDelay
from repro.errors import WorkerLostError
from repro.utils.rng import RngFactory

__all__ = ["SimBackend"]


class _SimWorker:
    """Mutable simulation state for one worker slot (its liveness is its
    :class:`WorkerEnv`'s ``alive``)."""

    __slots__ = ("worker_id", "free_at", "task_seq")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.free_at = 0.0
        self.task_seq = 0


class SimBackend:
    """Deterministic virtual-time executor: submit tasks, advance time,
    observe results through one completion callback."""

    def __init__(
        self,
        num_workers: int,
        *,
        cost_model: TaskCostModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
        seed: int = 0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.clock = VirtualClock()
        self.envs = [WorkerEnv(w) for w in range(num_workers)]
        self._callback: CompletionCallback | None = None
        #: Bumped on every kill/revive; schedulers key caches of
        #: membership-derived structures (candidate lists) on it.
        self.members_epoch = 0
        self.cost_model = cost_model or AnalyticCostModel()
        self.network = network or NetworkModel()
        self.delay_model = delay_model or NoDelay()
        self.rngs = RngFactory(seed)
        self.queue = EventQueue()
        self._workers = [_SimWorker(w) for w in range(num_workers)]
        self._pending = 0
        # worker_id -> {task_id: (task, currently-pending Event, submitted_ms)}
        self._live: dict[int, dict[int, tuple[BackendTask, Event, float]]] = {
            w: {} for w in range(num_workers)
        }

    # -- configuration -------------------------------------------------------
    def set_completion_callback(self, cb: CompletionCallback) -> None:
        """Install the single completion sink (the engine's coordinator)."""
        self._callback = cb

    def worker_env(self, worker_id: int) -> WorkerEnv:
        return self.envs[worker_id]

    def now(self) -> float:
        return self.clock.now()

    def worker_ids(self) -> range:
        return range(self.num_workers)

    # -- introspection -------------------------------------------------------
    def pending_count(self) -> int:
        """Number of submitted tasks whose results are not yet delivered."""
        return self._pending

    def worker_alive(self, worker_id: int) -> bool:
        return self.envs[worker_id].alive

    # -- submission ----------------------------------------------------------
    def submit(self, task: BackendTask, worker_id: int) -> None:
        """Queue ``task`` for execution on ``worker_id`` (non-blocking)."""
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        self._pending += 1
        submitted = self.clock.now()
        network = self.network
        rng = self.rngs.lazy("net-in", task.task_id) if network.jitter else None
        ev = self.queue.push(
            submitted + network.transfer_ms(task.in_bytes, rng),
            self._on_arrival, task, worker_id, submitted,
        )
        self._live[worker_id][task.task_id] = (task, ev, submitted)

    def _on_arrival(
        self, task: BackendTask, worker_id: int, submitted: float
    ) -> None:
        worker = self._workers[worker_id]
        env = self.envs[worker_id]
        network = self.network
        now = self.clock.now()
        metrics = TaskMetrics(
            task_id=task.task_id,
            worker_id=worker_id,
            partition=task.metrics_partition,
            submitted_ms=submitted,
            in_bytes=task.in_bytes,
        )
        if not env.alive:
            self._live[worker_id].pop(task.task_id, None)
            metrics.delivered_ms = now + network.latency_ms
            self.queue.push(
                metrics.delivered_ms, self._finish,
                task, worker_id, None, metrics, WorkerLostError(worker_id),
            )
            return

        free_at = worker.free_at
        start = free_at if free_at > now else now
        metrics.started_ms = start

        # Execute the closure for real; the virtual duration is modeled.
        t0 = _time.perf_counter()
        error: BaseException | None = None
        value: Any = None
        try:
            value = task.fn(env)
        except Exception as exc:  # noqa: BLE001 - forwarded to the engine
            error = exc
        measured_ms = (_time.perf_counter() - t0) * 1000.0

        worker.task_seq += 1
        seq = worker.task_seq
        cost_model = self.cost_model
        cost_rng = (
            self.rngs.lazy("cost", task.task_id) if cost_model.draws_rng
            else None
        )
        reported_units = env.consume_cost_units()
        units = reported_units if reported_units > 0 else task.cost_units
        base_ms = cost_model.compute_ms(
            units, measured_ms=measured_ms, rng=cost_rng
        )
        factor = self.delay_model.factor(worker_id, seq)
        fetch_bytes = env.consume_fetch_bytes()
        fetch_ms = 0.0
        if fetch_bytes:
            fetch_rng = (
                self.rngs.lazy("net-fetch", task.task_id) if network.jitter
                else None
            )
            # A miss costs a round-trip: request out, payload back.
            fetch_ms = (
                network.transfer_ms(fetch_bytes, fetch_rng)
                + network.latency_ms
            )
        compute_ms = base_ms * factor + fetch_ms

        metrics.measured_ms = measured_ms
        metrics.compute_ms = compute_ms
        metrics.delay_factor = factor
        metrics.fetch_bytes = fetch_bytes
        metrics.finished_ms = start + compute_ms
        worker.free_at = metrics.finished_ms

        out_bytes = 0 if error is not None else task.out_bytes_of(value)
        metrics.out_bytes = out_bytes
        out_rng = (
            self.rngs.lazy("net-out", task.task_id) if network.jitter else None
        )
        metrics.delivered_ms = metrics.finished_ms + network.transfer_ms(
            out_bytes, out_rng
        )
        ev = self.queue.push(
            metrics.delivered_ms, self._finish,
            task, worker_id, value, metrics, error,
        )
        self._live[worker_id][task.task_id] = (task, ev, submitted)

    def _finish(
        self,
        task: BackendTask,
        worker_id: int,
        value: Any,
        metrics: TaskMetrics,
        error: BaseException | None,
    ) -> None:
        self._live[worker_id].pop(task.task_id, None)
        self._pending -= 1
        if self._callback is None:
            raise RuntimeError("no completion callback installed")
        self._callback(task, worker_id, value, metrics, error)

    # -- event loop -----------------------------------------------------------
    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        ev = self.queue.pop()
        if ev is None:
            return False
        self.clock.advance_to(ev.time)
        ev.callback(*ev.args)
        return True

    def run_until(self, predicate: Callable[[], bool]) -> bool:
        """Advance until ``predicate()`` is true or no event is left.

        Returns the predicate's final value.
        """
        while not predicate():
            if not self.step():
                return predicate()
        return True

    def drain(self) -> None:
        """Run until all in-flight work has been delivered."""
        self.run_until(lambda: self._pending == 0)

    # -- fault injection --------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Fail the worker: lose its local blocks, error its live tasks."""
        env = self.envs[worker_id]
        if not env.alive:
            return
        env.alive = False
        env.clear()
        self.members_epoch += 1
        now = self.clock.now()
        live = self._live[worker_id]
        doomed = list(live.items())
        live.clear()
        for task_id, (task, ev, submitted) in doomed:
            self.queue.cancel(ev)
            metrics = TaskMetrics(
                task_id=task_id,
                worker_id=worker_id,
                partition=task.metrics_partition,
                submitted_ms=submitted,
                delivered_ms=now + self.network.latency_ms,
            )
            self.queue.push(
                metrics.delivered_ms, self._finish,
                task, worker_id, None, metrics, WorkerLostError(worker_id),
            )

    def revive_worker(self, worker_id: int) -> None:
        """Bring a dead worker back with an empty slot; a no-op on a live
        one (its queued tasks keep their slot times)."""
        env = self.envs[worker_id]
        if env.alive:
            return
        env.alive = True
        self._workers[worker_id].free_at = self.clock.now()
        self.members_epoch += 1
