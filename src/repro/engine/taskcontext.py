"""Task-local execution context.

Closures executing inside a task (gradient kernels, samplers) sometimes
need to talk to the worker environment — to report how much work they did
(`record_cost`) — without threading ``env`` through every user-facing
function signature. Code that pulls bytes from the driver holds its env
and calls ``WorkerEnv.record_fetch``.

The backend binds the env around each task body
(:data:`~repro.cluster.backend.TASK_ENV`, set before the body runs and
restored after it returns or raises); this module only reads it.
"""

from __future__ import annotations

from repro.cluster.backend import TASK_ENV, WorkerEnv

__all__ = ["current_env", "record_cost"]


def current_env() -> WorkerEnv | None:
    """The worker environment of the task currently executing, if any."""
    return TASK_ENV.get()


def record_cost(units: float) -> None:
    """Report work volume from inside a task closure (no-op on driver)."""
    env = TASK_ENV.get()
    if env is not None:
        env.record_cost(units)
