"""Worker-side payload codec: encode task results, carry error feedback.

The scheduler wraps each dispatched task closure so the reduced payload
(the ``acc`` half of the ``(acc, count)`` pair every async round ships)
is encoded on the worker before it crosses the wire, and decoded on the
driver before the update rule sees it. Float ndarray leaves of the
payload tree compress through the configured
:class:`~repro.comm.compressors.Compressor`; everything else passes
through untouched.

Error feedback (the Bagua ``onebit_adam`` shape): per worker/partition,
the residual ``x - decompress(compress(x))`` of each leaf is stored in
the :class:`~repro.cluster.backend.WorkerEnv` and added back into the
next round's payload before compressing, so compression error is
re-injected rather than lost. The residual comes from
:meth:`Compressor.residual <repro.comm.compressors.Compressor.residual>`:
the sparse codecs subtract their kept values from ``x`` in place instead
of building the dense reconstruction, with bit-identical results. A
killed worker loses its residuals with the rest of its local state —
exactly what a real crash would do.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.compressors import Compressor, Packet
from repro.comm.measure import payload_nbytes
from repro.utils.sizeof import sizeof_bytes

__all__ = ["EncodedPayload", "PayloadCodec"]

#: Float leaves smaller than this travel raw (header would dominate).
_MIN_COMPRESS_SIZE = 8

#: env-kv sentinel scope for worker-granular tasks (no partition id).
_WORKER_SCOPE = -1


class EncodedPayload:
    """A payload tree with float ndarray leaves replaced by packets.

    ``raw_bytes`` is the uncompressed payload's wire measure;
    ``wire_bytes`` the encoded tree's — packets at their exact serialized
    size, passthrough leaves at the raw measure.
    """

    __slots__ = ("tree", "raw_bytes", "wire_bytes")

    def __init__(self, tree: Any, raw_bytes: int, wire_bytes: int) -> None:
        self.tree = tree
        self.raw_bytes = int(raw_bytes)
        self.wire_bytes = int(wire_bytes)

    @property
    def ratio(self) -> float:
        return self.raw_bytes / max(self.wire_bytes, 1)


class _Feedback:
    """One scope's error-feedback state, kept in the worker's env."""

    __slots__ = ("draws", "residuals")

    def __init__(self) -> None:
        #: Encodes so far (seeds ``randk``'s per-encode rng stream).
        self.draws = 0
        #: Leaf index -> residual carried into the next encode.
        self.residuals: dict[int, np.ndarray] = {}


def _is_compressible(leaf: Any) -> bool:
    return (
        isinstance(leaf, np.ndarray)
        and leaf.dtype.kind == "f"
        and leaf.size >= _MIN_COMPRESS_SIZE
    )


class PayloadCodec:
    """Encode/decode payload trees with per-scope error feedback."""

    def __init__(self, compressor: Compressor, seed: int = 0) -> None:
        self.compressor = compressor
        self.seed = int(seed)

    # -- worker side -----------------------------------------------------------
    def encode(self, payload: Any, env, partition: "int | None") -> EncodedPayload:
        """Compress ``payload``'s float leaves; residuals live in ``env``."""
        scope = _WORKER_SCOPE if partition is None else int(partition)
        key = ("comm_ef", scope)
        state = env.get(key)
        if state is None:
            state = _Feedback()
            env.put(key, state)
        draw = state.draws
        state.draws += 1
        residuals = state.residuals
        compressor = self.compressor

        leaf_index = 0
        # The encoded tree's wire measure, summed as it is built: packets
        # at their exact size, tuples at 64 + children, the rest raw.
        wire = 0

        def walk(node: Any) -> Any:
            nonlocal leaf_index, wire
            if isinstance(node, tuple):
                wire += 64
                return tuple(walk(child) for child in node)
            if not _is_compressible(node):
                wire += sizeof_bytes(node)
                return node
            index = leaf_index
            leaf_index += 1
            x = node.astype(np.float64, copy=True)
            residual = residuals.get(index)
            if residual is not None and residual.shape == x.shape:
                x += residual
            rng = None
            if compressor.needs_rng:
                rng = np.random.default_rng(
                    [self.seed, env.worker_id, scope & 0x7FFFFFFF, draw, index]
                )
            packet = compressor.compress(x, rng=rng)
            residuals[index] = compressor.residual(x, packet)
            wire += packet.wire_bytes
            return packet

        tree = walk(payload)
        return EncodedPayload(tree, payload_nbytes(payload), wire)

    # -- driver side -----------------------------------------------------------
    def decode(self, encoded: EncodedPayload) -> Any:
        def walk(node: Any) -> Any:
            if isinstance(node, Packet):
                return self.compressor.decompress(node)
            if isinstance(node, tuple):
                return tuple(walk(child) for child in node)
            return node

        return walk(encoded.tree)

    @staticmethod
    def out_bytes_of(value: Any) -> int:
        """``BackendTask.out_bytes_of`` for encoded ``(acc, count)`` pairs."""
        if isinstance(value, EncodedPayload):
            return value.wire_bytes
        if isinstance(value, tuple):
            return 64 + sum(PayloadCodec.out_bytes_of(v) for v in value)
        return sizeof_bytes(value)
