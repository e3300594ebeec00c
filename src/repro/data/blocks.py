"""Matrix blocks: the partition payload for ML workloads.

Per the HPC-Python guides, partitions carry contiguous matrix blocks (dense
``ndarray`` or CSR) rather than per-row Python objects, so gradient kernels
are single vectorized BLAS/sparse calls. A block knows its global row
offset, which lets SAGA's per-sample version table address rows globally.

The sparse layout decision lives here, and it is made on size. Constructing
a scipy matrix costs a fixed ~40 us (index validation, dtype negotiation,
format check; a transpose per gradient costs it again) and its compiled
products are then fast; an array-level product has no fixed cost but runs
about twice as slow per nonzero. So a row subset of a CSR block that
gathers at most :data:`ARRAY_ROWS_MAX_NNZ` nonzeros is a :class:`CsrRows`
— the selected rows' three raw arrays, gathered in one vectorised pass and
multiplied with ``np.bincount`` — and anything larger (big mini-batches,
source blocks, a problem's training set) is a scipy CSR matrix using
scipy's operators. :func:`matvec` and :func:`rmatvec` multiply whichever
of the three payloads a block holds; the two sparse forms accumulate in
the same order and agree bit for bit, so where the boundary sits changes
speed only. :func:`grouped_products` multiplies each row against its own
group's vector (SAGA's historical gradients, one group per stored model
version) and leans on that identity to treat both sparse forms as one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.errors import DataError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ARRAY_ROWS_MAX_NNZ",
    "CsrRows",
    "MatrixBlock",
    "grouped_products",
    "issparse",
    "matvec",
    "rmatvec",
    "scipy_sparse",
    "split_matrix",
    "stack_blocks",
]

_INT32_MAX = np.iinfo(np.int32).max

#: Largest gathered row subset kept as :class:`CsrRows`. Measured on the
#: benchmark host (one thread; gather + one ``grad_sum``, against
#: ``X[idx]`` + scipy's operators) over 5..75 nonzeros per row and
#: 200..47236 columns: the array path wins 1.3-7x up to ~4k gathered
#: nonzeros, the two tie between 6k and 8k, and scipy wins beyond (1.7x at
#: 16k, 3x at 150k). The products alone cross at ~4k, and SAGA forms
#: several per gather, hence the low side of the tie.
ARRAY_ROWS_MAX_NNZ = 4096


def issparse(x) -> bool:
    """``scipy.sparse.issparse``, never importing scipy: nothing can be a
    scipy matrix before ``scipy.sparse`` is loaded."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(x)


def scipy_sparse():
    """``scipy.sparse``, imported by the first sparse object built."""
    sp = sys.modules.get("scipy.sparse")
    if sp is None:
        from scipy import sparse as sp
    return sp


class CsrRows:
    """Rows gathered from a CSR matrix: ``data``/``indices``/``indptr``.

    What ``X[idx]`` is for a sparse block, without the scipy object: same
    values in the same within-row order, same index dtype (so
    ``sizeof_bytes`` prices it identically), plus ``row_of_nnz`` — the
    row each stored entry belongs to, which both products need. ``X @ w``
    and ``X.T @ r`` work on it as they do on the scipy matrix a larger
    subset comes back as, so kernels written against either keep working;
    :meth:`tocsr` gives the scipy matrix for anything else.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "row_of_nnz")
    format = "csr"  # scipy's spelling; what ``_sparse_rows`` checks

    def __init__(self, data, indices, indptr, shape, row_of_nnz) -> None:
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = shape
        self.row_of_nnz = row_of_nnz

    @property
    def nnz(self) -> int:
        return len(self.data)

    def tocsr(self) -> sparse.csr_matrix:
        return scipy_sparse().csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def __matmul__(self, w):
        if np.ndim(w) != 1:
            return self.tocsr() @ w
        return matvec(self, w)

    @property
    def T(self) -> "_CsrRowsT":
        return _CsrRowsT(self)


class _CsrRowsT:
    """``CsrRows.T``: only there to be multiplied."""

    __slots__ = ("rows",)

    def __init__(self, rows: CsrRows) -> None:
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape[::-1]

    def __matmul__(self, r):
        if np.ndim(r) != 1:
            return self.rows.tocsr().T @ r
        return rmatvec(self.rows, r)


def _sparse_rows(
    X: "sparse.spmatrix | CsrRows", idx: np.ndarray
) -> "CsrRows | sparse.csr_matrix":
    """Rows ``idx`` of sparse storage ``X``, in ``idx`` order.

    ``idx`` may be unsorted, repeated or empty. Row extents come from
    ``indptr`` (through two shifted views, so negative indices count from
    the end as they do for a dense block). A subset above
    :data:`ARRAY_ROWS_MAX_NNZ` is scipy's ``X[idx]``; a smaller one is
    gathered here in one pass over the raw arrays, the source position of
    every output entry being ``repeat(start - out_start, len) + arange``.
    """
    if X.format != "csr":
        X = X.tocsr()
    starts = X.indptr[:-1][idx]
    lens = X.indptr[1:][idx] - starts
    m = len(idx)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.accumulate(lens, out=indptr[1:])
    nnz = int(indptr[m])
    if nnz > ARRAY_ROWS_MAX_NNZ and type(X) is not CsrRows:
        return X[idx]
    row_of_nnz = np.arange(m).repeat(lens)
    pos = (starts - indptr[:m])[row_of_nnz]
    pos += np.arange(nnz)
    # scipy narrows a fancy-indexed result's indices to int32 whenever
    # the shape and nnz allow, whatever the source held.
    dim = X.shape[1]
    idx_dtype = np.int32 if max(m, dim, nnz) <= _INT32_MAX else np.int64
    return CsrRows(
        X.data[pos],
        X.indices[pos].astype(idx_dtype, copy=False),
        indptr.astype(idx_dtype, copy=False),
        (m, dim),
        row_of_nnz,
    )


def matvec(X: "Matrix", w: np.ndarray) -> np.ndarray:
    """``X @ w`` for any block payload.

    On :class:`CsrRows`: per-row sums in storage order, the loop order of
    scipy's ``csr_matvec``.
    """
    if type(X) is CsrRows:
        return np.bincount(
            X.row_of_nnz, weights=X.data * w[X.indices], minlength=X.shape[0]
        )
    return X @ w


def rmatvec(X: "Matrix", r: np.ndarray) -> np.ndarray:
    """``X.T @ r`` for any block payload, as a flat array.

    On :class:`CsrRows`: per-column sums in storage order, the loop order
    of scipy's ``csc_matvec`` on the transpose.
    """
    if type(X) is CsrRows:
        return np.bincount(
            X.indices, weights=X.data * r[X.row_of_nnz], minlength=X.shape[1]
        )
    if isinstance(X, np.ndarray):
        return X.T @ r
    return np.asarray(X.T @ r).ravel()


def grouped_products(
    X: "Matrix", y: np.ndarray, ws: "list[np.ndarray]", group: np.ndarray,
    link,
) -> np.ndarray:
    """``X_g.T @ link(X_g @ ws[g], y_g)`` for every group, as ``(len(ws), d)``.

    ``group[i]`` is row ``i``'s index into ``ws``; ``X_g``/``y_g`` are
    the rows of group ``g`` in row order and ``link`` is elementwise.
    Each output row is bit-equal to :func:`rmatvec` / :func:`matvec` on
    ``MatrixBlock.take_rows`` of group ``g``'s rows.

    Sparse payloads take one pass for all groups: the row products read
    each stored entry's own group's vector, and the column sums are one
    ``np.bincount`` keyed by ``(group, column)``, which adds every key's
    entries in storage order, as the per-group products do. A scipy
    matrix goes through its raw arrays (its rows' entries are
    ``repeat``-ed row ids). Dense payloads keep a gather and two BLAS
    calls per group: BLAS's bits depend on the matrix it is handed.
    """
    k, dim = len(ws), X.shape[1]
    if isinstance(X, np.ndarray):
        out = np.empty((k, dim))
        for g, w in enumerate(ws):
            rows = np.flatnonzero(group == g)
            Xg = X[rows]
            out[g] = Xg.T @ link(Xg @ w, y[rows])
        return out
    if type(X) is CsrRows:
        data, indices, row_of_nnz = X.data, X.indices, X.row_of_nnz
    else:
        X = X.tocsr()
        lo, hi = X.indptr[0], X.indptr[-1]
        data, indices = X.data[lo:hi], X.indices[lo:hi]
        row_of_nnz = np.arange(X.shape[0]).repeat(np.diff(X.indptr))
    key = group[row_of_nnz] * dim + indices
    W = np.concatenate(ws) if k else np.empty(0)
    m = np.bincount(row_of_nnz, weights=data * W[key], minlength=X.shape[0])
    r = link(m, y)
    return np.bincount(
        key, weights=data * r[row_of_nnz], minlength=k * dim
    ).reshape(k, dim)


Matrix = Union[np.ndarray, "sparse.csr_matrix", CsrRows]


@dataclass
class MatrixBlock:
    """A horizontal slice of the design matrix with its targets.

    Attributes
    ----------
    X: dense ``(rows, d)`` array, CSR matrix, or — for a small row
        subset of a CSR block — :class:`CsrRows`.
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
        X = self.X  # of the three payloads, only dense is an ndarray
        return type(X) is not np.ndarray and (
            type(X) is CsrRows or not isinstance(X, np.ndarray)
        )

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
        own_rows = self.rows
        rows = own_rows if n_rows is None else n_rows
        if own_rows == 0:
            return 0.0
        if self.is_sparse:
            avg_nnz = self.nnz / own_rows
            return rows * avg_nnz / max(self.dim, 1)
        return float(rows)

    def take_rows(self, idx: np.ndarray) -> "MatrixBlock":
        """Return a sub-block with the given local row indices.

        The sub-block remembers which rows of the *source* block it holds
        (``ids``), composing through repeated selection. Rows of a sparse
        block come back as :class:`CsrRows` up to
        :data:`ARRAY_ROWS_MAX_NNZ` gathered nonzeros and as a scipy CSR
        matrix above it.
        """
        idx = np.asarray(idx, dtype=np.intp)
        source_ids = idx if self.ids is None else self.ids[idx]
        X = self.X
        return MatrixBlock(
            X=X[idx] if isinstance(X, np.ndarray) else _sparse_rows(X, idx),
            y=self.y[idx], offset=self.offset,
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
        rows = self.rows
        if rows == 0:
            return np.empty(0, dtype=np.intp)
        size = max(1, int(round(fraction * rows)))
        if with_replacement:
            return rng.integers(0, rows, size=size, dtype=np.intp)
        return rng.choice(rows, size=min(size, rows), replace=False)

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
    X = scipy_sparse().csr_matrix(
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
    csr = type(X) is not np.ndarray and issparse(X)
    if csr and X.format != "csr":
        X = X.tocsr()
    bounds = np.linspace(0, n, num_blocks + 1).astype(np.intp)
    blocks = []
    for i in range(num_blocks):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if csr:
            indptr = X.indptr
            s, e = int(indptr[lo]), int(indptr[hi])
            Xb = scipy_sparse().csr_matrix(
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
