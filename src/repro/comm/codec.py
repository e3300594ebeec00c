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


class _Encoding:
    """One encode's running state: leaf numbering and both byte sums.

    ``raw`` and ``wire`` follow :func:`~repro.utils.sizeof.sizeof_bytes`
    (64 per tuple or array plus an array's ``nbytes``),
    except that ``wire`` counts each packet at its exact size.
    """

    __slots__ = ("residuals", "leaves", "raw", "wire")

    def __init__(self, residuals: dict) -> None:
        #: Leaf index -> residual carried into the next encode (the
        #: scope's error-feedback state, kept in the worker's env).
        self.residuals = residuals
        self.leaves = 0
        self.raw = 0
        self.wire = 0


class PayloadCodec:
    """Encode/decode payload trees with per-scope error feedback."""

    def __init__(self, compressor: Compressor) -> None:
        self.compressor = compressor

    # -- worker side -----------------------------------------------------------
    def encode(self, payload: Any, env, partition: "int | None") -> EncodedPayload:
        """Compress ``payload``'s float leaves; residuals live in ``env``.

        One walk builds the encoded tree and sums both byte measures.
        """
        scope = _WORKER_SCOPE if partition is None else int(partition)
        key = ("comm_ef", scope)
        residuals = env.get(key)
        if residuals is None:
            residuals = {}
            env.put(key, residuals)
        job = _Encoding(residuals)
        tree = self._encode(payload, job)
        return EncodedPayload(tree, job.raw, job.wire)

    def _encode(self, node: Any, job: _Encoding) -> Any:
        if isinstance(node, tuple):
            job.raw += 64
            job.wire += 64
            out = []
            for child in node:
                out.append(self._encode(child, job))
            return tuple(out)
        if not (
            isinstance(node, np.ndarray)
            and node.dtype.kind == "f"
            and node.size >= _MIN_COMPRESS_SIZE
        ):
            nbytes = sizeof_bytes(node)
            job.raw += nbytes
            job.wire += nbytes
            return node
        job.raw += 64 + node.nbytes
        index = job.leaves
        job.leaves += 1
        x = node.astype(np.float64, copy=True)
        residual = job.residuals.get(index)
        if residual is not None and residual.shape == x.shape:
            x += residual
        compressor = self.compressor
        packet = compressor.compress(x)
        job.residuals[index] = compressor.residual(x, packet)
        job.wire += packet.wire_bytes
        return packet

    # -- driver side -----------------------------------------------------------
    def decode(self, encoded: EncodedPayload) -> Any:
        return self._decode(encoded.tree)

    def _decode(self, node: Any) -> Any:
        if isinstance(node, Packet):
            return self.compressor.decompress(node)
        if isinstance(node, tuple):
            out = []
            for child in node:
                out.append(self._decode(child))
            return tuple(out)
        return node

    @staticmethod
    def out_bytes_of(value: Any) -> int:
        """``BackendTask.out_bytes_of`` for encoded ``(acc, count)`` pairs."""
        if isinstance(value, EncodedPayload):
            return value.wire_bytes
        if isinstance(value, tuple):
            return 64 + sum(PayloadCodec.out_bytes_of(v) for v in value)
        return sizeof_bytes(value)
