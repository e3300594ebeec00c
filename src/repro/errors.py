"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EngineError(ReproError):
    """Errors raised by the Spark-like dataflow engine."""


class TaskError(EngineError):
    """A task failed while executing on a worker.

    Carries the original exception and enough context to identify the
    offending task.
    """

    def __init__(self, message: str, *, task_id: int | None = None,
                 worker_id: int | None = None,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.worker_id = worker_id
        self.cause = cause


class WorkerLostError(EngineError):
    """A worker died (fault injection) while holding tasks or blocks."""

    def __init__(self, worker_id: int, message: str = "") -> None:
        super().__init__(message or f"worker {worker_id} lost")
        self.worker_id = worker_id


class BroadcastError(EngineError):
    """A broadcast value could not be resolved on a worker."""


class HistoryError(EngineError):
    """A HIST channel was misused (bad retention spec, policy conflict)."""


class SchedulerError(EngineError):
    """The scheduler was driven into an invalid state."""


class BackendError(ReproError):
    """Errors raised by the simulated cluster backend."""


class ClockError(BackendError):
    """Virtual time was manipulated inconsistently (e.g. moved backwards)."""


class AsyncContextError(ReproError):
    """Misuse of the ASYNCcontext API (e.g. collect with no result)."""


class OptimError(ReproError):
    """Errors raised by optimization drivers."""


class SnapshotError(OptimError):
    """A mid-run snapshot could not be written, read, or applied."""


class FaultPlanError(ReproError):
    """A fault-injection plan was malformed or impossible to schedule."""


class ApiError(ReproError):
    """Errors raised by the declarative experiment API (registries, specs)."""


class DataError(ReproError):
    """Errors raised by dataset generation or I/O."""


class FabricError(ReproError):
    """Errors raised by the distributed sweep fabric (coordinator/worker)."""


class ProtocolError(FabricError):
    """A malformed, truncated, or oversized fabric wire message."""


class FabricDrained(FabricError):
    """A sweep coordinator drained gracefully (SIGTERM) before finishing.

    Raised out of ``SweepCoordinator.wait`` so callers can distinguish
    "stopped on request, resume later" from a real failure; the CLI maps
    it to exit code 143 (128 + SIGTERM)."""
