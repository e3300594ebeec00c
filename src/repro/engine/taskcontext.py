"""Task-local execution context.

Closures executing inside a task (gradient kernels, samplers) sometimes
need to talk to the worker environment — to report how much work they did
(`record_cost`) — without threading ``env`` through every user-facing
function signature. Code that pulls bytes from the driver holds its env
and calls ``WorkerEnv.record_fetch``.
A context variable scoped to the task body provides that channel. A
context variable rather than a module global, because the fabric's
in-process sweep workers run several engines on threads of one process,
and each thread has its own context.
"""

from __future__ import annotations

import contextvars

from repro.cluster.backend import WorkerEnv

__all__ = ["task_env", "current_env", "record_cost"]

_current_env: contextvars.ContextVar[WorkerEnv | None] = contextvars.ContextVar(
    "repro_task_env", default=None
)


class task_env:
    """``with task_env(env):`` binds ``env`` as the ambient worker
    environment for a task body and restores the previous one on exit.

    A plain class rather than ``@contextlib.contextmanager``: every task
    enters one, and a generator-based manager costs several extra calls.
    """

    __slots__ = ("_env", "_token")

    def __init__(self, env: WorkerEnv | None) -> None:
        self._env = env

    def __enter__(self) -> None:
        self._token = _current_env.set(self._env)

    def __exit__(self, *exc: object) -> None:
        _current_env.reset(self._token)


def current_env() -> WorkerEnv | None:
    """The worker environment of the task currently executing, if any."""
    return _current_env.get()


def record_cost(units: float) -> None:
    """Report work volume from inside a task closure (no-op on driver)."""
    env = _current_env.get()
    if env is not None:
        env.record_cost(units)
