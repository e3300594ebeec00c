"""The ``Compressor`` component family: gradient/model wire codecs.

Every compressor maps a float ndarray to a :class:`Packet` — a
self-describing binary payload with an *exact* byte count — and back.
Exactness matters: the simulated network prices transfers by
``Packet.wire_bytes``, and ``Packet.to_bytes()`` produces a buffer of
precisely that many bytes, so the cost model and an actual socket agree
to the byte.

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
import struct
from typing import Any, Mapping

import numpy as np

from repro.api.registry import COMPRESSORS, register_compressor
from repro.comm.frames import MAX_MESSAGE_BYTES
from repro.errors import ReproError

__all__ = [
    "Packet",
    "Compressor",
    "NoneCompressor",
    "TopKCompressor",
    "OneBitCompressor",
    "parse_compressor",
]

_MAGIC = b"RC"
_FORMAT_VERSION = 1

#: Wire codes; 2 and 3 are unassigned (retired schemes) and fail decode.
_SCHEME_CODES = {"none": 0, "topk": 1, "onebit": 4}
_SCHEME_NAMES = {code: name for name, code in _SCHEME_CODES.items()}

_DTYPE_CODES = {
    "float64": 0, "float32": 1, "float16": 2,
    "int64": 3, "int32": 4, "int16": 5, "int8": 6,
    "uint64": 7, "uint32": 8, "uint16": 9, "uint8": 10,
}
_DTYPE_NAMES = {code: name for name, code in _DTYPE_CODES.items()}


@functools.lru_cache(maxsize=64)
def _dtype_name(dtype) -> str:
    """Canonical numpy name of ``dtype`` (a dtype, scalar type or string).

    Memoised: ``np.dtype.name`` is a Python-level property, and every
    packet resolves it for the tensor and again for each payload array.
    """
    return str(np.dtype(dtype).name)


def _code_name(names: dict[int, str], code: int, what: str) -> str:
    try:
        return names[code]
    except KeyError:
        raise ReproError(f"unknown packet {what} code {code}") from None


def _dtype_code(dtype: np.dtype) -> int:
    name = _dtype_name(dtype)
    if name not in _DTYPE_CODES:
        raise ReproError(f"packet cannot carry dtype {name!r}")
    return _DTYPE_CODES[name]


class Packet:
    """One compressed tensor: scheme + original shape/dtype + payload arrays.

    ``arrays`` is a scheme-defined ordered tuple (e.g. ``(indices,
    values)`` for top-k). The binary layout is a fixed header — magic,
    format version, scheme, original dtype, shape, one ``(dtype, length)``
    descriptor per array — followed by the arrays' raw bytes, so
    ``wire_bytes``, the exact serialized size ``len(to_bytes())``, is
    computed once, when the packet is built.
    """

    __slots__ = ("scheme", "shape", "dtype", "arrays", "wire_bytes")

    def __init__(
        self,
        scheme: str,
        shape: tuple[int, ...],
        dtype: str,
        arrays: tuple[np.ndarray, ...],
    ) -> None:
        if scheme not in _SCHEME_CODES:
            raise ReproError(f"unknown packet scheme {scheme!r}")
        self.scheme = scheme
        self.shape = tuple(shape)
        self.dtype = _dtype_name(dtype)
        # ndarrays in any layout: ``to_bytes`` writes C order, and
        # ``wire_bytes`` counts ``nbytes``, which no layout changes.
        self.arrays = arrays = tuple(arrays)
        # magic(2) + version(1) + scheme(1) + dtype(1) + ndim(1) +
        # shape(8 each) + narrays(1) + (dtype(1) + length(4)) per array
        wire = 7 + 8 * len(self.shape) + 5 * len(arrays)
        for a in arrays:
            wire += a.nbytes
        self.wire_bytes = wire

    def to_bytes(self) -> bytes:
        parts = [
            _MAGIC,
            struct.pack(
                "<BBBB",
                _FORMAT_VERSION,
                _SCHEME_CODES[self.scheme],
                _DTYPE_CODES[self.dtype],
                len(self.shape),
            ),
            struct.pack(f"<{len(self.shape)}q", *self.shape),
            struct.pack("<B", len(self.arrays)),
        ]
        for arr in self.arrays:
            parts.append(struct.pack("<BI", _dtype_code(arr.dtype), arr.size))
        for arr in self.arrays:
            parts.append(arr.tobytes())
        blob = b"".join(parts)
        assert len(blob) == self.wire_bytes
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Packet":
        """Parse :meth:`to_bytes` output; any malformed blob (truncated,
        unknown scheme or dtype code, trailing bytes, arrays that do not
        fit the scheme and shape) raises :class:`~repro.errors.ReproError`
        saying what is wrong, so every packet it returns decompresses."""
        if blob[:2] != _MAGIC:
            raise ReproError("not a comm packet (bad magic)")
        try:
            version, scheme_code, dtype_code, ndim = struct.unpack_from(
                "<BBBB", blob, 2
            )
            if version != _FORMAT_VERSION:
                raise ReproError(
                    f"unsupported packet format version {version}"
                )
            scheme = _code_name(_SCHEME_NAMES, scheme_code, "scheme")
            dtype = _code_name(_DTYPE_NAMES, dtype_code, "dtype")
            offset = 6
            shape = struct.unpack_from(f"<{ndim}q", blob, offset)
            offset += 8 * ndim
            (narrays,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            descriptors = []
            for _ in range(narrays):
                code, size = struct.unpack_from("<BI", blob, offset)
                offset += 5
                descriptors.append(
                    (np.dtype(_code_name(_DTYPE_NAMES, code, "array dtype")),
                     size)
                )
        except struct.error:
            raise ReproError(
                f"truncated comm packet header ({len(blob)} bytes)"
            ) from None
        arrays = []
        for array_dtype, size in descriptors:
            nbytes = array_dtype.itemsize * size
            if offset + nbytes > len(blob):
                raise ReproError(
                    f"truncated comm packet payload: array {len(arrays)} "
                    f"needs {nbytes} bytes at offset {offset}, the packet "
                    f"has {len(blob)}"
                )
            arrays.append(
                np.frombuffer(blob[offset:offset + nbytes], dtype=array_dtype)
            )
            offset += nbytes
        if offset != len(blob):
            raise ReproError("trailing bytes after comm packet payload")
        _check_layout(scheme, shape, arrays)
        return cls(scheme, shape, dtype, tuple(arrays))


def _check_layout(scheme: str, shape: tuple, arrays: list) -> None:
    """A parsed packet's arrays fit its scheme and shape, and its dense
    float64 tensor stays under the message cap (as a frame's JSON does)."""
    n = math.prod(shape)
    if min(shape, default=0) < 0 or 8 * n > MAX_MESSAGE_BYTES:
        raise ReproError(f"comm packet shape {shape} out of range")
    sizes = [a.size for a in arrays]
    if scheme == "none":
        fits = sizes == [n]
    elif scheme == "topk":  # strictly increasing indices inside the tensor
        idx = arrays[0] if len(sizes) == 2 and sizes[0] == sizes[1] else None
        fits = idx is not None and idx.dtype.kind in "iu" and (
            not idx.size or idx[0] >= 0 and idx[-1] < n
            and bool(np.all(idx[1:] > idx[:-1]))
        )
    else:  # onebit: packed sign bits and one float64 scale
        fits = sizes == [(n + 7) // 8, 1] and (
            arrays[0].dtype == np.uint8 and arrays[1].dtype == np.float64
        )
    if not fits:
        raise ReproError(
            f"{scheme} packet arrays {sizes} do not fit shape {shape}"
        )


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
        values = flat[idx].astype(np.float64, copy=False)
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
