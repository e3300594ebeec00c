"""Broadcast variables with per-worker caching and byte accounting.

Mirrors Spark's broadcast semantics: ``ClusterContext.broadcast`` gives a
value a unique id; the first task on each worker that reads the value
pays the transfer (recorded via ``WorkerEnv.record_fetch`` so the
simulation charges it as network time), after which it is served from the
worker's local store. NumPy values are exposed as read-only views to
catch accidental mutation on workers — broadcast data is immutable by
contract.

``ASYNCbroadcast`` (:mod:`repro.core.broadcaster`) builds on this to keep a
*history* of versions addressable by id, which is the paper's mechanism
for variance-reduced methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.backend import WorkerEnv
from repro.utils.sizeof import sizeof_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = ["Broadcast"]

_MISSING = object()


class Broadcast:
    """Handle to an immutable value replicated on demand to workers."""

    def __init__(self, ctx: "ClusterContext", bc_id: int, value: Any):
        self._ctx = ctx
        self.bc_id = bc_id
        self.nbytes = sizeof_bytes(value)
        if isinstance(value, np.ndarray):
            # Workers read a read-only view; the caller's array is untouched.
            value = value.view()
            value.flags.writeable = False
        self._value = value

    def value(self, env: WorkerEnv | None = None) -> Any:
        """Read the broadcast value.

        On the driver (``env is None``) this is a direct reference. On a
        worker, the first read records a fetch of ``nbytes`` (charged as
        network time by the simulation) and caches the value locally.
        """
        if env is None:
            return self._value
        key = ("bc", self.bc_id)
        cached = env.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        env.record_fetch(self.nbytes)
        comm = self._ctx.comm
        if comm is not None:
            # Plain broadcasts always ship in full; the COMM ledger
            # still counts them (raw == wire) so a run's broadcast
            # bytes are complete, not just the HIST channels.
            comm.record_plain_broadcast(self.nbytes)
        env.put(key, self._value)
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Broadcast(id={self.bc_id}, nbytes={self.nbytes})"
