"""LIBSVM text-format reader/writer.

The paper's datasets (rcv1_full.binary, mnist8m, epsilon) ship in LIBSVM
format: one sample per line, ``<label> <index>:<value> ...`` with 1-based
feature indices. This module reads/writes that format so users with the
real files can run the experiments on them; the benchmarks default to the
synthetic generators in :mod:`repro.data.synthetic`.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.data.blocks import Csr, as_matrix
from repro.errors import DataError

__all__ = ["load_libsvm", "dump_libsvm"]

PathOrFile = Union[str, Path, IO[str]]


def _open_for_read(source: PathOrFile) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf8"), True
    return source, False


def _finite(text: str, line_no: int, what: str) -> float:
    """``float(text)``; NaN and infinities (``1e999`` too) are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: {what} {text!r} is not finite")
    return value


def load_libsvm(
    source: PathOrFile,
    n_features: int | None = None,
    *,
    zero_based: bool = False,
    dtype=np.float64,
) -> tuple[Csr, np.ndarray]:
    """Parse LIBSVM text into ``(X, y)``, ``X`` a :class:`Csr`.

    Parameters
    ----------
    source: path or open text file.
    n_features: force the feature dimension (otherwise inferred from the
        largest index seen).
    zero_based: set True if indices start at 0 instead of LIBSVM's 1.
    """
    fh, should_close = _open_for_read(source)
    try:
        data: list[float] = []
        indices: list[int] = []
        indptr: list[int] = [0]
        labels: list[float] = []
        offset = 0 if zero_based else 1
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(_finite(parts[0], line_no, "label"))
            except ValueError as exc:
                raise DataError(
                    f"line {line_no}: bad label {parts[0]!r}"
                ) from exc
            last_idx = -1
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx = int(idx_s) - offset
                    val = _finite(val_s, line_no, "feature value")
                except ValueError as exc:
                    raise DataError(
                        f"line {line_no}: bad feature token {token!r}"
                    ) from exc
                if idx < 0:
                    raise DataError(
                        f"line {line_no}: feature index {idx_s} out of range"
                    )
                if idx <= last_idx:
                    raise DataError(
                        f"line {line_no}: feature indices must be "
                        f"strictly increasing (saw {idx_s})"
                    )
                last_idx = idx
                indices.append(idx)
                data.append(val)
            indptr.append(len(indices))
    finally:
        if should_close:
            fh.close()

    if not labels:
        raise DataError("empty LIBSVM input")
    inferred = (max(indices) + 1) if indices else 0
    d = n_features if n_features is not None else inferred
    if d < inferred:
        raise DataError(
            f"n_features={d} but data references feature {inferred - 1}"
        )
    X = Csr(
        np.asarray(data, dtype=dtype), np.asarray(indices, dtype=np.intp),
        np.asarray(indptr, dtype=np.intp), (len(labels), d),
    )
    return X, np.asarray(labels, dtype=np.float64)


def dump_libsvm(
    X, y: np.ndarray, target: PathOrFile, *, zero_based: bool = False
) -> None:
    """Write ``(X, y)`` in LIBSVM format (sorted, sparse-aware).

    ``X`` is dense, a :class:`Csr` or a scipy CSR matrix (adopted).
    """
    X = as_matrix(X)
    if X.shape[0] != len(y):
        raise DataError(f"X has {X.shape[0]} rows but y has {len(y)}")
    offset = 0 if zero_based else 1

    def write_to(fh: IO[str]) -> None:
        for i in range(X.shape[0]):
            label = y[i]
            label_s = (
                str(int(label)) if float(label).is_integer() else repr(float(label))
            )
            if type(X) is Csr:
                lo, hi = X.indptr[i], X.indptr[i + 1]
                pairs = zip(X.indices[lo:hi], X.data[lo:hi])
            else:
                row = np.asarray(X[i]).ravel()
                nz = np.nonzero(row)[0]
                pairs = ((j, row[j]) for j in nz)
            toks = [label_s]
            toks.extend(f"{j + offset}:{v:.17g}" for j, v in pairs)
            fh.write(" ".join(toks) + "\n")

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf8") as fh:
            write_to(fh)
    else:
        write_to(target)


def loads_libsvm(text: str, **kwargs) -> tuple[Csr, np.ndarray]:
    """Parse LIBSVM content from a string."""
    return load_libsvm(io.StringIO(text), **kwargs)
