"""Discrete-event simulation backend.

Executes task closures for real (actual numpy work, actual results) while
tracking *when* everything happens in virtual time, one float of
milliseconds that only the event loop advances:

- driver -> worker payload transfer: ``network.transfer_ms(in_bytes)``
- queueing: each worker runs one task at a time, FIFO by arrival
- compute: ``cost_model.compute_ms(units) * delay.factor(worker, seq)``,
  where ``units`` is the work the task reported (else its advertised
  ``cost_units``)
- on-demand server fetches recorded by the closure (history-broadcast
  misses, broadcast cold reads) are charged as extra, undelayed transfer
  time
- worker -> driver result transfer: ``network.transfer_ms(out_bytes)``

The backend binds the worker's env around each task body
(:data:`~repro.cluster.backend.TASK_ENV`, restored however the body ends).

Completion callbacks fire in virtual-time order with deterministic
tie-breaking. A task's duration depends only on the task, its bytes and
the delay model, never on the host's wall clock, so whole asynchronous
optimization runs — results and task metrics alike — are
bit-reproducible under a fixed seed.

One task is two events — arrival at its worker, then delivery of its
result — each scheduled as a bound method plus arguments, so a hop
allocates no closure. Arrival stays its own event rather than being
folded into ``submit``: between a task's submit and its arrival other
tasks can finish, workers can be killed, and HIST can be pruned, and the
task must observe all of that. The backend draws no random numbers of
its own: the delay models (CDS, PCS) and fault plans carry their own
seeded streams.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.backend import (
    TASK_ENV, BackendTask, CompletionCallback, TaskMetrics, WorkerEnv,
)
from repro.cluster.cost import AnalyticCostModel
from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.stragglers import DelayModel, NoDelay
from repro.errors import ClockError, WorkerLostError

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
        cost_model: AnalyticCostModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        #: Virtual time in ms; only :meth:`step` moves it, never backwards.
        self._now = 0.0
        self.envs = [WorkerEnv(w) for w in range(num_workers)]
        self._callback: CompletionCallback | None = None
        #: Bumped on every kill/revive; schedulers key caches of
        #: membership-derived structures (candidate lists) on it.
        self.members_epoch = 0
        self.cost_model = cost_model or AnalyticCostModel()
        self.network = network or NetworkModel()
        self.delay_model = delay_model or NoDelay()
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
        """Current virtual time in ms since the start of the simulation."""
        return self._now

    def worker_ids(self) -> range:
        return range(self.num_workers)

    # -- introspection -------------------------------------------------------
    def pending_count(self) -> int:
        """Number of submitted tasks whose results are not yet delivered."""
        return self._pending

    # -- submission ----------------------------------------------------------
    def submit(self, task: BackendTask, worker_id: int) -> None:
        """Queue ``task`` for execution on ``worker_id`` (non-blocking)."""
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        self._pending += 1
        submitted = self._now
        ev = self.queue.push(
            submitted + self.network.transfer_ms(task.in_bytes),
            self._on_arrival, task, worker_id, submitted,
        )
        self._live[worker_id][task.task_id] = (task, ev, submitted)

    def _on_arrival(
        self, task: BackendTask, worker_id: int, submitted: float
    ) -> None:
        worker = self._workers[worker_id]
        env = self.envs[worker_id]
        network = self.network
        now = self._now
        metrics = TaskMetrics(
            task_id=task.task_id,
            worker_id=worker_id,
            partition=-1 if task.partition is None else task.partition,
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
        error: BaseException | None = None
        value: Any = None
        token = TASK_ENV.set(env)
        try:
            value = task.fn(env)
        except Exception as exc:  # noqa: BLE001 - forwarded to the engine
            error = exc
        finally:
            TASK_ENV.reset(token)

        worker.task_seq += 1
        units = env.pending_cost_units
        fetch_bytes = env.pending_fetch_bytes
        env.pending_cost_units, env.pending_fetch_bytes = 0.0, 0
        base_ms = self.cost_model.compute_ms(
            units if units > 0 else task.cost_units
        )
        factor = self.delay_model.factor(worker_id, worker.task_seq)
        fetch_ms = 0.0
        if fetch_bytes:
            # A miss costs a round-trip: request out, payload back.
            fetch_ms = network.transfer_ms(fetch_bytes) + network.latency_ms
        compute_ms = base_ms * factor + fetch_ms

        metrics.compute_ms = compute_ms
        metrics.delay_factor = factor
        metrics.fetch_bytes = fetch_bytes
        metrics.finished_ms = start + compute_ms
        worker.free_at = metrics.finished_ms

        out_bytes = 0 if error is not None else task.out_bytes_of(value)
        metrics.out_bytes = out_bytes
        metrics.delivered_ms = (
            metrics.finished_ms + network.transfer_ms(out_bytes)
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
        t = ev.time
        if t > self._now:
            self._now = t
        elif t < self._now - 1e-9:
            # The queue pops in time order, so this is a scheduling bug:
            # fail loudly rather than silently reordering.
            raise ClockError(
                f"virtual clock moved backwards: {self._now} -> {t}"
            )
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
        now = self._now
        live = self._live[worker_id]
        doomed = list(live.items())
        live.clear()
        for task_id, (task, ev, submitted) in doomed:
            self.queue.cancel(ev)
            metrics = TaskMetrics(
                task_id=task_id,
                worker_id=worker_id,
                partition=-1 if task.partition is None else task.partition,
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
        self._workers[worker_id].free_at = self._now
        self.members_epoch += 1
