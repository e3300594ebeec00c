"""ASYNCbroadcaster (Section 4.3): history-aware broadcast.

The problem it solves: variance-reduced methods (SAGA) need workers to
re-evaluate gradients at *previous* model parameters. Vanilla Spark must
re-broadcast the entire table of past parameters with every task — a
payload that grows linearly with iterations. The ASYNCbroadcaster instead
gives every broadcast a ``(channel, version)`` identity; tasks reference
old versions **by id**, and a worker only pays a transfer when a version
is missing from its local cache (typically the current version, once).

``HistoryBroadcast.value()`` reads the handle's own version (the paper's
``w_br.value``); ``value_at(v)`` reads any historical version (the
paper's ``w_br.value(index)``). Both record fetch bytes on a miss so the
simulation charges the transfer; cache hits are free — that difference is
the entire communication story of Figure 5/8's SAGA experiments.

Storage-wise the broadcaster is the *transport view* over the HIST
subsystem: every channel it serves is a
:class:`~repro.core.history.HistoryChannel` in a
:class:`~repro.core.history.HistoryStore` (by default its own store; the
:class:`~repro.core.context.ASYNCContext` hands it the coordinator's, so
broadcast history shares ids, byte accounting and checkpointing with all
other server-side history).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.backend import WorkerEnv
from repro.core.history import HistoryChannel, HistoryStore, RetentionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = ["AsyncBroadcaster", "HistoryBroadcast", "HistoryChannel"]

_MISSING = object()


class HistoryBroadcast:
    """Worker-facing handle: ``(channel, version)`` plus history access."""

    def __init__(
        self, channel: HistoryChannel, version: int, comm: Any = None
    ) -> None:
        self.channel = channel
        self.version = version
        #: The run's :class:`~repro.comm.manager.CommManager`; ``None``
        #: keeps the original full-value fetch path untouched.
        self.comm = comm

    def _resolve(self, version: int, env: WorkerEnv | None) -> Any:
        if env is None:
            return self.channel.get(version)
        key = ("hbc", self.channel.channel_id, version)
        cached = env.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        if self.comm is not None:
            # COMM owns the miss: it records the broadcast in the run's
            # ledger and, under delta mode, ships a compressed delta
            # against this worker's mirror instead of the full value.
            value, nbytes = self.comm.fetch_channel_value(
                self.channel, version, env
            )
        else:
            value = self.channel.get(version)
            nbytes = self.channel.nbytes(version)
        env.record_fetch(nbytes)
        env.put(key, value)
        return value

    def report_watermark(self, scope: Any, version: int) -> None:
        """Declare that ``scope`` will never again read below ``version``
        on this channel (feeds COMM's prune floor; no-op without COMM)."""
        if self.comm is not None:
            self.comm.report_watermark(self.channel.name, scope, version)

    def value(self, env: WorkerEnv | None = None) -> Any:
        """This handle's own version (the paper's ``w_br.value``)."""
        return self._resolve(self.version, env)

    def value_at(self, version: int, env: WorkerEnv | None = None) -> Any:
        """Any historical version by id (the paper's ``w_br.value(i)``)."""
        return self._resolve(int(version), env)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HistoryBroadcast(channel={self.channel.name!r}, "
            f"version={self.version})"
        )


class AsyncBroadcaster:
    """Driver-side transport view over a HIST store's channels."""

    def __init__(
        self, ctx: "ClusterContext", store: HistoryStore | None = None
    ) -> None:
        self.ctx = ctx
        #: The backing HIST store (own one unless the caller shares its
        #: coordinator's, which the ASYNCContext does).
        self.store = store if store is not None else HistoryStore()
        #: The run's :class:`~repro.comm.manager.CommManager` (set by the
        #: server loop); ``None`` = plain transport, no ledger, no delta.
        self.comm: Any = None

    def channel(
        self, name: str = "model", keep: RetentionPolicy | str | None = None
    ) -> HistoryChannel:
        """The named HIST channel (created on first access, ``keep="all"``
        by default — workers may re-reference any version by id)."""
        return self.store.channel(name, keep=keep)

    def broadcast(
        self,
        value: Any,
        channel: str = "model",
        keep: RetentionPolicy | str | None = None,
    ) -> HistoryBroadcast:
        """Publish a new version on ``channel`` and return its handle.

        With a COMM manager attached, publishing also prunes the channel
        below its watermark floor — the version every registered reader
        scope has advanced past — so ``keep="all"`` model channels stop
        growing with the run once no one can re-reference old versions.
        """
        ch = self.channel(channel, keep=keep)
        version = ch.append(value)
        if self.comm is not None:
            floor = self.comm.prune_floor(ch.name)
            if floor is not None:
                ch.prune_below(floor)
        return HistoryBroadcast(ch, version, comm=self.comm)
