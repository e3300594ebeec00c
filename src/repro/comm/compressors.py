"""The ``Compressor`` component family: gradient/model wire codecs.

Every compressor maps a float ndarray to a :class:`Packet` — a scheme,
the tensor's shape and dtype, and payload arrays — and back. The
simulated network prices each transfer by ``Packet.wire_bytes``, the
size of the packet laid out as a fixed binary header followed by its
arrays' raw bytes.

Spellings follow the policy/barrier grammar (registry + string tokens):

- ``none`` — identity (the parity-pinned default),
- ``topk:f`` — keep the ``ceil(f*n)`` largest-magnitude entries,
- ``onebit`` — sign bitmap + mean-magnitude scale (the 1-bit Adam
  shape: 1 bit per entry plus one float).

All lossy compressors are used with error feedback (the codec layer
carries the residual per worker/partition), so compression error is
re-injected the next round instead of lost.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Mapping

import numpy as np

from repro.api.registry import COMPRESSORS, register_compressor
from repro.errors import ReproError

__all__ = [
    "Packet",
    "Compressor",
    "NoneCompressor",
    "TopKCompressor",
    "OneBitCompressor",
    "parse_compressor",
]

#: Scheme names a packet may carry.
_SCHEMES = frozenset({"none", "topk", "onebit"})


@functools.lru_cache(maxsize=64)
def _dtype_name(dtype) -> str:
    """Canonical numpy name of ``dtype`` (a dtype, scalar type or string).

    Memoised: ``np.dtype.name`` is a Python-level property, and every
    packet resolves it for its tensor.
    """
    return str(np.dtype(dtype).name)


class Packet:
    """One compressed tensor: scheme + original shape/dtype + payload arrays.

    ``arrays`` is a scheme-defined ordered tuple (e.g. ``(indices,
    values)`` for top-k). ``wire_bytes`` is computed once, when the
    packet is built: a fixed header — magic, format version, scheme,
    original dtype, shape, one ``(dtype, length)`` descriptor per array —
    plus the arrays' raw bytes.
    """

    __slots__ = ("scheme", "shape", "dtype", "arrays", "wire_bytes")

    def __init__(
        self,
        scheme: str,
        shape: tuple[int, ...],
        dtype: str,
        arrays: tuple[np.ndarray, ...],
    ) -> None:
        if scheme not in _SCHEMES:
            raise ReproError(f"unknown packet scheme {scheme!r}")
        self.scheme = scheme
        self.shape = tuple(shape)
        self.dtype = _dtype_name(dtype)
        # ndarrays in any layout: ``nbytes`` counts the same in each.
        self.arrays = arrays = tuple(arrays)
        # magic(2) + version(1) + scheme(1) + dtype(1) + ndim(1) +
        # shape(8 each) + narrays(1) + (dtype(1) + length(4)) per array
        wire = 7 + 8 * len(self.shape) + 5 * len(arrays)
        for a in arrays:
            wire += a.nbytes
        self.wire_bytes = wire


class Compressor:
    """Base of the compressor family (registered like policies/steps)."""

    name = "?"
    #: Lossy compressors run under error feedback in the codec layer.
    lossy = True

    def compress(self, arr: np.ndarray) -> Packet:
        raise NotImplementedError

    def decompress(self, packet: Packet) -> np.ndarray:
        raise NotImplementedError

    def residual(self, x: np.ndarray, packet: Packet) -> np.ndarray:
        """The error-feedback remainder ``x - decompress(packet)``.

        ``packet`` is ``compress(x)`` and ``x`` is the codec's own fresh
        float64 array, which an override may overwrite and return.
        """
        return x - self.decompress(packet).astype(np.float64, copy=False)

    def spec(self) -> str:
        """Canonical grammar spelling (round-trips via parse_compressor)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r})"


def _restore(packet: Packet, flat: np.ndarray) -> np.ndarray:
    return flat.reshape(packet.shape).astype(packet.dtype, copy=False)


@register_compressor("none")
class NoneCompressor(Compressor):
    """Identity codec: full-precision payload, parity-pinned byte counts."""

    name = "none"
    lossy = False

    def compress(self, arr: np.ndarray) -> Packet:
        arr = np.asarray(arr)
        return Packet("none", arr.shape, arr.dtype, (arr.ravel(),))

    def decompress(self, packet: Packet) -> np.ndarray:
        return _restore(packet, np.array(packet.arrays[0], copy=True))


@register_compressor("topk")
class TopKCompressor(Compressor):
    """Keep the ``ceil(f*n)`` largest-magnitude entries (an index/value
    packet)."""

    name = "topk"

    def __init__(self, fraction: float = 0.1) -> None:
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ReproError(
                f"{self.name} fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = fraction
        #: size -> entries kept, ``ceil(fraction * size)`` clipped to [1, size].
        self._k: dict[int, int] = {}

    def spec(self) -> str:
        return f"{self.name}:{self.fraction:g}"

    def compress(self, arr: np.ndarray) -> Packet:
        if type(arr) is not np.ndarray:
            arr = np.asarray(arr)
        flat = arr if arr.ndim == 1 else arr.ravel()
        n = flat.size
        k = self._k.get(n)
        if k is None:
            k = self._k[n] = max(1, min(n, int(math.ceil(self.fraction * n))))
        if k >= n:
            idx = np.arange(n)
        else:
            idx = np.abs(flat).argpartition(n - k)[n - k:]
        # ``idx`` is fresh: narrow it, then sort it in place.
        idx = idx.astype(np.int64 if n > 2**31 else np.int32, copy=False)
        idx.sort()
        values = flat[idx]
        if values.dtype != np.float64:
            values = values.astype(np.float64)
        return Packet(self.name, arr.shape, arr.dtype, (idx, values))

    def decompress(self, packet: Packet) -> np.ndarray:
        idx, values = packet.arrays
        dense = np.zeros(packet.shape, dtype=np.float64)
        # A 1-D float64 packet (every model vector) is its own flat view.
        flat = dense if dense.ndim == 1 else dense.reshape(-1)
        flat[idx] = values
        if packet.dtype == "float64":
            return dense
        return dense.astype(packet.dtype)

    def residual(self, x: np.ndarray, packet: Packet) -> np.ndarray:
        # Bit-identical to the dense ``x - decompress(packet)``: entries
        # the packet dropped see ``x - (+0.0) == x`` there (for -0.0,
        # inf, subnormals and every NaN arithmetic produces), kept ones
        # the same subtraction, and a packet never repeats an index.
        idx, values = packet.arrays
        flat = x if x.ndim == 1 else x.ravel()  # a view if x is C-contiguous
        flat[idx] -= values
        return flat if x.ndim == 1 else flat.reshape(x.shape)


@register_compressor("onebit")
class OneBitCompressor(Compressor):
    """Sign bitmap plus mean-magnitude scale (1-bit Adam shape).

    ``n`` entries cost ``ceil(n/8)`` bytes of packed signs and one
    float64 scale; error feedback makes the aggressive rounding converge.
    """

    name = "onebit"

    def compress(self, arr: np.ndarray) -> Packet:
        arr = np.asarray(arr)
        flat = arr.ravel().astype(np.float64, copy=False)
        scale = float(np.mean(np.abs(flat))) if flat.size else 0.0
        bits = np.packbits(flat >= 0.0)
        return Packet(
            "onebit", arr.shape, arr.dtype,
            (bits, np.array([scale], dtype=np.float64)),
        )

    def decompress(self, packet: Packet) -> np.ndarray:
        bits, scale = packet.arrays
        n = math.prod(packet.shape)
        signs = np.unpackbits(bits, count=n).astype(np.float64) * 2.0 - 1.0
        return _restore(packet, signs * float(scale[0]))


def parse_compressor(value: "str | Mapping[str, Any] | Compressor | None") -> Compressor:
    """Resolve a compressor spelling to an instance.

    Accepts an instance (returned as-is), a registry token
    (``"topk:0.1"``), or a dict (``{"name": "topk", "fraction": 0.25}``).
    ``None`` resolves to :class:`NoneCompressor`.
    """
    if value is None:
        return NoneCompressor()
    if isinstance(value, Compressor):
        return value
    return COMPRESSORS.create(value)
