"""Payload size estimation for network-cost modelling.

The DES network model charges transfers by byte volume. This module
estimates the serialized size of the payloads the engine ships around:
numpy arrays, scipy sparse matrices, python scalars and (shallow)
containers. The numbers approximate pickled sizes without paying for an
actual pickle round-trip on the hot path.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy import sparse

__all__ = ["sizeof_bytes"]

# Rough per-object pickle framing overhead (opcode + memo bookkeeping).
_OBJ_OVERHEAD = 64


def sizeof_bytes(obj: Any) -> int:
    """Estimate the serialized size in bytes of ``obj``.

    Supports ``None``, bools, ints, floats, strings/bytes, numpy scalars and
    ndarrays, scipy sparse matrices (CSR/CSC/COO), and lists/tuples/dicts of
    the above. Unknown objects are charged a flat overhead — good enough for
    cost modelling, where model vectors and matrix blocks dominate.
    """
    # Exact-type fast path for what every task result is made of —
    # ``((gradient, rows), count)`` — ahead of the isinstance ladder.
    kind = type(obj)
    if kind is np.ndarray:
        return _OBJ_OVERHEAD + obj.nbytes
    if kind is int or kind is float:
        return _OBJ_OVERHEAD
    if kind is tuple:
        total = _OBJ_OVERHEAD
        for item in obj:
            # The same two exact-type cases, inline: no call per leaf.
            item_kind = type(item)
            if item_kind is np.ndarray:
                total += _OBJ_OVERHEAD + item.nbytes
            elif item_kind is int or item_kind is float:
                total += _OBJ_OVERHEAD
            else:
                total += sizeof_bytes(item)
        return total
    if obj is None or isinstance(obj, bool):
        return _OBJ_OVERHEAD
    if isinstance(obj, (int, float, complex, np.generic)):
        return _OBJ_OVERHEAD
    if isinstance(obj, (str, bytes, bytearray)):
        return _OBJ_OVERHEAD + len(obj)
    if isinstance(obj, np.ndarray):
        return _OBJ_OVERHEAD + int(obj.nbytes)
    # ``format == "csr"``: a block's array-level row subset (CsrRows)
    # carries the same three arrays as the scipy matrix and is priced alike.
    if sparse.issparse(obj) or getattr(obj, "format", None) == "csr":
        csr = obj
        if isinstance(obj, sparse.coo_matrix) or isinstance(
            obj, getattr(sparse, "coo_array", ())
        ):
            # COO: row + col + data
            return _OBJ_OVERHEAD + int(
                obj.data.nbytes + obj.row.nbytes + obj.col.nbytes
            )
        data = getattr(csr, "data", None)
        indices = getattr(csr, "indices", None)
        indptr = getattr(csr, "indptr", None)
        total = _OBJ_OVERHEAD
        for part in (data, indices, indptr):
            if part is not None:
                total += int(part.nbytes)
        return total
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _OBJ_OVERHEAD + sum(sizeof_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return _OBJ_OVERHEAD + sum(
            sizeof_bytes(k) + sizeof_bytes(v) for k, v in obj.items()
        )
    # Dataclass-ish objects expose __dict__; charge their fields.
    fields = getattr(obj, "__dict__", None)
    if fields:
        return _OBJ_OVERHEAD + sum(sizeof_bytes(v) for v in fields.values())
    return _OBJ_OVERHEAD
