"""Matrix blocks: the partition payload for ML workloads.

Per the HPC-Python guides, partitions carry contiguous matrix blocks (dense
``ndarray`` or CSR) rather than per-row Python objects, so gradient kernels
are single vectorized BLAS/sparse calls. A block knows its global row
offset, which lets SAGA's per-sample version table address rows globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import sparse

from repro.errors import DataError

__all__ = ["MatrixBlock", "split_matrix", "stack_blocks"]

Matrix = Union[np.ndarray, sparse.csr_matrix]


@dataclass
class MatrixBlock:
    """A horizontal slice of the design matrix with its targets.

    Attributes
    ----------
    X: dense ``(rows, d)`` array or CSR matrix.
    y: targets, shape ``(rows,)``.
    offset: global index of the first row in this block.
    """

    X: Matrix
    y: np.ndarray
    offset: int = 0
    block_id: int = field(default=-1)
    #: Local row indices into the originating block (set by ``take_rows``);
    #: None for source blocks. SAGA's version bookkeeping needs these.
    ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise DataError("y must be one-dimensional")

    @property
    def rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.X)

    @property
    def nnz(self) -> int:
        if self.is_sparse:
            return int(self.X.nnz)
        return int(self.X.size)

    def cost_units(self, n_rows: int | None = None) -> float:
        """Work volume for the cost model: rows for dense, scaled for sparse.

        Sparse rows are cheaper than dense rows by the density ratio, so a
        sparse block advertises ``rows * (avg nnz per row) / dim`` units —
        matching the FLOP count of the matvec.
        """
        rows = self.rows if n_rows is None else n_rows
        if self.rows == 0:
            return 0.0
        if self.is_sparse:
            avg_nnz = self.nnz / self.rows
            return rows * avg_nnz / max(self.dim, 1)
        return float(rows)

    def take_rows(self, idx: np.ndarray) -> "MatrixBlock":
        """Return a sub-block with the given local row indices.

        The sub-block remembers which rows of the *source* block it holds
        (``ids``), composing through repeated selection.
        """
        idx = np.asarray(idx, dtype=np.intp)
        source_ids = idx if self.ids is None else self.ids[idx]
        return MatrixBlock(
            X=self.X[idx], y=self.y[idx], offset=self.offset,
            block_id=self.block_id, ids=source_ids,
        )

    def sample_indices(
        self, fraction: float, rng: np.random.Generator,
        with_replacement: bool = False,
    ) -> np.ndarray:
        """Sample local row indices for a mini-batch.

        Uses a fixed batch size ``max(1, round(fraction * rows))`` (the
        paper's "sampling rate b"), sampled uniformly without replacement
        by default.
        """
        if not 0.0 < fraction <= 1.0:
            raise DataError(f"fraction must be in (0, 1], got {fraction}")
        if self.rows == 0:
            return np.empty(0, dtype=np.intp)
        size = max(1, int(round(fraction * self.rows)))
        if with_replacement:
            return rng.integers(0, self.rows, size=size, dtype=np.intp)
        return rng.choice(self.rows, size=min(size, self.rows), replace=False)

    def global_ids(self, local_idx: np.ndarray) -> np.ndarray:
        return local_idx + self.offset


def stack_blocks(
    blocks: "list[MatrixBlock]",
) -> tuple[Matrix, np.ndarray, np.ndarray]:
    """Concatenate blocks row-wise: the inverse of :func:`split_matrix`.

    Returns ``(X, y, bounds)`` where rows ``bounds[i]:bounds[i+1]`` of the
    stacked matrix are exactly block ``i``'s rows (same values, same
    within-row storage order). Dense blocks stack with one
    ``np.concatenate``; CSR blocks stack by concatenating
    ``data``/``indices`` and chaining the (re-based) ``indptr`` segments.
    Blocks must agree on density and column count.
    """
    if not blocks:
        raise DataError("stack_blocks needs at least one block")
    bounds = np.zeros(len(blocks) + 1, dtype=np.intp)
    np.cumsum([b.rows for b in blocks], out=bounds[1:])
    y = (
        blocks[0].y
        if len(blocks) == 1
        else np.concatenate([b.y for b in blocks])
    )
    if any(b.is_sparse != blocks[0].is_sparse for b in blocks):
        raise DataError("cannot stack dense and sparse blocks together")
    if not blocks[0].is_sparse:
        X = blocks[0].X if len(blocks) == 1 else np.concatenate(
            [b.X for b in blocks]
        )
        return X, y, bounds
    if len(blocks) == 1:
        return blocks[0].X, y, bounds
    data = np.concatenate([b.X.data for b in blocks])
    indices = np.concatenate([b.X.indices for b in blocks])
    indptr = np.zeros(int(bounds[-1]) + 1, dtype=np.int64)
    nnz = 0
    for b, lo in zip(blocks, bounds[:-1]):
        bp = b.X.indptr
        indptr[lo : lo + b.rows + 1] = bp.astype(np.int64) - int(bp[0]) + nnz
        nnz += int(bp[-1]) - int(bp[0])
    X = sparse.csr_matrix(
        (data, indices, indptr),
        shape=(int(bounds[-1]), blocks[0].dim),
        copy=False,
    )
    return X, y, bounds


def split_matrix(
    X: Matrix, y: np.ndarray, num_blocks: int
) -> list[MatrixBlock]:
    """Split ``(X, y)`` row-wise into ``num_blocks`` contiguous blocks.

    Blocks sizes differ by at most one row (numpy ``array_split``
    convention). CSR inputs stay CSR; anything sparse is converted to CSR.

    Blocks are *views* of the parent storage, never copies: dense slices
    alias ``X`` directly, and CSR blocks are rebuilt around slices of the
    parent's ``data``/``indices``/``indptr`` (fancy indexing ``X[lo:hi]``
    would copy every nonzero). This is what keeps shared-memory datasets
    (:mod:`repro.data.shm`) one physical copy per host after splitting.
    """
    if num_blocks <= 0:
        raise DataError("num_blocks must be positive")
    n = X.shape[0]
    if n != y.shape[0]:
        raise DataError(f"X has {n} rows but y has {y.shape[0]}")
    if num_blocks > n:
        raise DataError(f"cannot split {n} rows into {num_blocks} blocks")
    if sparse.issparse(X) and not sparse.isspmatrix_csr(X):
        X = X.tocsr()
    bounds = np.linspace(0, n, num_blocks + 1).astype(np.intp)
    blocks = []
    for i in range(num_blocks):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if sparse.issparse(X):
            indptr = X.indptr
            s, e = int(indptr[lo]), int(indptr[hi])
            Xb = sparse.csr_matrix(
                (X.data[s:e], X.indices[s:e], indptr[lo : hi + 1] - indptr[lo]),
                shape=(hi - lo, X.shape[1]),
                copy=False,
            )
        else:
            Xb = X[lo:hi]
        blocks.append(
            MatrixBlock(X=Xb, y=np.asarray(y[lo:hi]), offset=lo, block_id=i)
        )
    return blocks
