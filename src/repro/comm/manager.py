"""The COMM manager: one object owning a run's bytes on the wire.

A :class:`CommManager` is resolved from the spec's ``compressor`` field
and attached to the optimizer (``opt.comm``), from where the server loop
hands it to the scheduler (collect-path codec), the broadcasters
(delta/full model fetches, watermark pruning) and the result extras
(ledger). It bundles:

- the configured :class:`~repro.comm.compressors.Compressor` plus the
  worker-side :class:`~repro.comm.codec.PayloadCodec` (error feedback),
- the per-run :class:`~repro.comm.ledger.CommLedger`,
- the HIST version-table watermark: each partition/worker scope reports
  the lowest model version it may still read, the minimum over scopes is
  the prune floor for ``keep="all"`` channels *and* the anchor for delta
  broadcasting (ship ``w_v - mirror`` against the last value the worker
  reconstructed instead of the full model),
- codec compute pricing via
  :class:`~repro.cluster.cost.CodecCostModel` (``env.record_cost``).

With ``compressor="none"`` the collect path is left untouched — no
closure wrapping, no extra float ops — so the parity suite can pin
``none`` bit-identical to a run with no comm subsystem at all; only the
(purely observational) ledger and watermark pruning are active.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.cluster.cost import CodecCostModel
from repro.comm.codec import EncodedPayload, PayloadCodec
from repro.comm.compressors import Compressor, parse_compressor
from repro.comm.ledger import CommLedger
from repro.errors import ReproError

__all__ = ["CommManager"]


class CommManager:
    """Per-run communication state: codec, ledger, watermarks, mirrors."""

    def __init__(
        self,
        compressor: "str | Mapping[str, Any] | Compressor | None" = None,
        *,
        delta: bool = False,
        codec_cost: CodecCostModel | None = None,
    ) -> None:
        self.compressor = parse_compressor(compressor)
        self.delta = bool(delta)
        self.codec = PayloadCodec(self.compressor)
        self.codec_cost = codec_cost or CodecCostModel()
        self.ledger = CommLedger(self.compressor.spec())
        #: channel name -> {scope: lowest model version it may still read}.
        self._watermarks: dict[str, dict[Any, int]] = {}
        #: (channel name, worker id) -> last value that worker reconstructed.
        self._mirrors: dict[tuple[str, int], np.ndarray] = {}
        # Delta-packet reuse: two workers whose mirrors followed the same
        # reconstruction chain hold bitwise-equal mirrors, and every
        # compressor is deterministic, so the same version's delta
        # compresses to the identical packet — encode it once and share
        # the reconstruction. Chains are interned to small
        # ids: (previous chain id, version) -> chain id.
        self._path_ids: dict[tuple[int, int], int] = {}
        #: (channel name, worker id) -> interned reconstruction-chain id.
        self._mirror_paths: dict[tuple[str, int], int] = {}
        #: (channel name, version, chain id) -> (recon, wire_bytes); holds
        #: the current version's burst only.
        self._delta_shared: dict[tuple[str, int, int], tuple[np.ndarray, int]] = {}
        self._delta_shared_version: dict[str, int] = {}

    # -- construction ----------------------------------------------------------
    @classmethod
    def coerce(cls, value: Any) -> "CommManager | None":
        """Resolve a spec's ``compressor`` field; ``None`` stays ``None``.

        Accepts a token (``"topk:0.1"``), an options dict whose extra
        keys configure the manager (``{"name": "topk", "fraction": 0.1,
        "delta": true}``), a :class:`Compressor`, or a built manager.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        delta = False
        if isinstance(value, Mapping):
            value = dict(value)
            delta = bool(value.pop("delta", False))
            if "name" not in value:
                raise ReproError(
                    "compressor dict needs a 'name' key, e.g. "
                    '{"name": "topk", "fraction": 0.1, "delta": true}'
                )
        return cls(value, delta=delta)

    @property
    def compresses(self) -> bool:
        """True when the collect path actually rewrites payloads."""
        return self.compressor.lossy

    # -- collect path (worker -> server) ---------------------------------------
    def encode_value(self, value: Any, env, partition: "int | None") -> Any:
        """Worker-side encode of one reduced ``(acc, count)`` pair
        (error-feedback residual update plus the codec's
        ``env.record_cost`` pricing); see :meth:`wrap_task_fn`."""
        if not (isinstance(value, tuple) and len(value) == 2):
            return value
        payload, count = value
        if payload is None:
            return value
        enc = self.codec.encode(payload, env, partition)
        units = self.codec_cost.units(enc.raw_bytes + enc.wire_bytes)
        if units > 0.0:
            env.record_cost(units)
        return (enc, count)

    def wrap_task_fn(self, fn: Callable, partition: "int | None") -> Callable:
        """Encode the reduced ``(acc, count)`` pair on the worker.

        Identity for ``none``: the unwrapped closure keeps the pre-COMM
        path bit-exact (and its byte accounting identical).
        """
        if not self.compresses:
            return fn

        def encoded(env):
            return self.encode_value(fn(env), env, partition)

        return encoded

    def out_bytes_of(self, value: Any) -> int:
        return PayloadCodec.out_bytes_of(value)

    def note_collect(self, payload: Any, out_bytes: int) -> Any:
        """Driver-side decode + ledger row for one collected payload."""
        if isinstance(payload, EncodedPayload):
            self.ledger.record("collect", payload.raw_bytes, payload.wire_bytes)
            return self.codec.decode(payload)
        self.ledger.record("collect", out_bytes, out_bytes)
        return payload

    # -- broadcast path (server -> worker) -------------------------------------
    def record_plain_broadcast(self, nbytes: int) -> None:
        """A full (uncompressed) broadcast value fetched by one worker."""
        self.ledger.record("broadcast", nbytes, nbytes)

    def fetch_channel_value(self, channel, version: int, env) -> tuple[Any, int]:
        """Resolve one HIST channel fetch for ``env``'s worker.

        Returns ``(value, fetch_bytes)``. With ``delta`` off the exact
        stored value ships at its raw size. With ``delta`` on, float
        model vectors ship as a compressed delta against the worker's
        mirror (the last value it reconstructed on this channel); the
        mirror then advances to the reconstruction, so compression error
        self-corrects the same way error feedback does on collects.
        """
        raw = channel.nbytes(version)
        exact = channel.get(version)
        if not self.delta:
            self.ledger.record("broadcast", raw, raw)
            return exact, raw
        value = np.asarray(exact) if isinstance(exact, np.ndarray) else None
        if value is None or value.dtype.kind != "f":
            self.ledger.record("broadcast", raw, raw)
            return exact, raw
        key = (channel.name, env.worker_id)
        mirror = self._mirrors.get(key)
        if mirror is None or mirror.shape != value.shape:
            self._mirrors[key] = value.astype(np.float64, copy=True)
            self._mirror_paths[key] = self._intern_path(0, int(version))
            self.ledger.record("broadcast", raw, raw)
            return exact, raw
        path = self._mirror_paths.get(key, 0)
        cache_key = (channel.name, int(version), path)
        hit = self._delta_shared.get(cache_key)
        if hit is not None:
            recon, wire = hit
        else:
            delta = value.astype(np.float64, copy=False) - mirror
            packet = self.compressor.compress(delta)
            recon = mirror + self.compressor.decompress(packet).astype(
                np.float64, copy=False
            )
            wire = packet.wire_bytes
            if self._delta_shared_version.get(channel.name) != int(version):
                self._delta_shared = {
                    k: v for k, v in self._delta_shared.items()
                    if k[0] != channel.name
                }
                self._delta_shared_version[channel.name] = int(version)
            self._delta_shared[cache_key] = (recon, wire)
        self._mirrors[key] = recon
        self._mirror_paths[key] = self._intern_path(path, int(version))
        self.ledger.record("broadcast", raw, wire)
        return recon.astype(value.dtype, copy=False), wire

    def _intern_path(self, prev: int, version: int) -> int:
        """Intern one reconstruction-chain step to a small id."""
        step = (prev, version)
        got = self._path_ids.get(step)
        if got is None:
            got = self._path_ids[step] = len(self._path_ids) + 1
        return got

    # -- HIST watermarks --------------------------------------------------------
    def register_scope(self, channel: str, scope: Any, version: int = 0) -> None:
        """Declare a reader scope (partition/worker) at ``version``.

        Pruning a channel needs the *complete* reader set: the floor is
        the min over registered scopes, so an unregistered reader can
        never have versions pruned out from under it.
        """
        self._watermarks.setdefault(channel, {}).setdefault(
            scope, int(version)
        )

    def report_watermark(self, channel: str, scope: Any, version: int) -> None:
        """A scope advanced: it will never again read below ``version``."""
        table = self._watermarks.setdefault(channel, {})
        table[scope] = max(int(version), table.get(scope, 0))

    def prune_floor(self, channel: str) -> "int | None":
        """Version every registered scope has advanced past, or ``None``."""
        table = self._watermarks.get(channel)
        if not table:
            return None
        return min(table.values())

    def watermark_scopes(self, channel: str) -> int:
        return len(self._watermarks.get(channel, {}))

    # -- result surface ----------------------------------------------------------
    def extras(self) -> dict:
        out = dict(self.ledger.scalars())
        out["comm"] = self.ledger.as_dict()
        out["comm"]["delta"] = self.delta
        return out
