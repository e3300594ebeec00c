"""Matrix blocks: the partition payload for ML workloads.

Per the HPC-Python guides, partitions carry contiguous matrix blocks (dense
``ndarray`` or CSR) rather than per-row Python objects, so gradient kernels
are single vectorized BLAS/sparse calls. A block knows its global row
offset, which lets SAGA's per-sample version table address rows globally.

Sparse data has one form, :class:`Csr`: the ``data``/``indices``/
``indptr`` arrays of scipy's CSR layout, held by NumPy alone. Every
source builds it directly (the generators, the LIBSVM loader, shared
memory, :func:`split_matrix`, :func:`stack_blocks`), and
:func:`as_matrix` adopts a user's scipy CSR matrix by its triplet,
without a copy and without importing scipy. A row subset is gathered in
one vectorised pass over the raw arrays. Every product adds the stored
entries in storage order — the loop order of scipy's
``csr_matvec``/``csc_matvec``/``csr_matmat`` — so a product has scipy's
bits, whatever the matrix's size: ``np.bincount`` for the vector
products, ``np.add.at`` over bounded row chunks for :func:`gram`.
:func:`grouped_products` multiplies each row against its own group's
vector (SAGA's historical gradients, one group per stored model version)
in one such pass. :func:`selected_products` is the same product pair
over a row selection (a task's mini-batch, a :class:`Batch`), which a
dense block streams: it gathers :data:`STREAM_CHUNK_BYTES` of rows at a
time and runs both matrix-vector products on each chunk before
gathering the next, so no batch is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from repro.errors import DataError
from repro.utils.rng import batch_indices

__all__ = [
    "Batch",
    "Csr",
    "MatrixBlock",
    "as_matrix",
    "gram",
    "grouped_products",
    "index_dtype",
    "matvec",
    "rmatvec",
    "selected_products",
    "split_matrix",
    "stack_blocks",
]

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(*extents: int) -> type:
    """scipy's CSR index dtype: int32 when the shape and nnz fit in it."""
    return np.int32 if max(extents) <= _INT32_MAX else np.int64


class Csr:
    """A CSR matrix as NumPy arrays: ``data``/``indices``/``indptr``.

    scipy's layout (``indptr[0] == 0``) and its index dtype rule
    (:func:`index_dtype`, applied on construction), so ``sizeof_bytes``
    and digests see the bytes a scipy matrix would hold. ``row_of_nnz``,
    the row each stored entry belongs to, is what the products need: a
    gather passes it in, and any other matrix computes it on first use.
    ``X @ w`` and ``X.T @ r`` multiply vectors, so a kernel written
    against scipy blocks keeps working.
    """

    format = "csr"  # scipy's spelling, which :func:`as_matrix` reads

    def __init__(self, data, indices, indptr, shape, row_of_nnz=None) -> None:
        idx = index_dtype(shape[0], shape[1], len(data))
        self.data = data
        self.indices = indices.astype(idx, copy=False)
        self.indptr = indptr.astype(idx, copy=False)
        self.shape = shape
        if row_of_nnz is not None:
            self.row_of_nnz = row_of_nnz

    @cached_property
    def row_of_nnz(self) -> np.ndarray:
        return np.arange(self.shape[0]).repeat(np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, w):
        return matvec(self, _vector(w))

    @property
    def T(self) -> "_CsrT":
        return _CsrT(self)


class _CsrT:
    """``Csr.T``: only there to be multiplied."""

    def __init__(self, X: Csr) -> None:
        self.X = X
        self.shape = X.shape[::-1]

    def __matmul__(self, r):
        return rmatvec(self.X, _vector(r))


def _vector(v):
    if np.ndim(v) != 1:
        raise DataError("a Csr matrix multiplies vectors only")
    return v


def as_matrix(X) -> "Matrix":
    """``X`` as a block payload.

    An ndarray or :class:`Csr` is returned as is. Anything else with
    ``format == "csr"`` and the ``data``/``indices``/``indptr`` triplet
    (scipy's ``csr_matrix``/``csr_array``) is adopted as a :class:`Csr`
    over the same arrays; another sparse format is a :class:`DataError`.
    """
    if type(X) is np.ndarray or type(X) is Csr:
        return X
    fmt = getattr(X, "format", None)
    if fmt == "csr":
        return Csr(X.data, X.indices, X.indptr, X.shape)
    if fmt is not None:
        raise DataError(
            f"sparse format {fmt!r} is not supported: convert it with "
            ".tocsr() first"
        )
    return X


def _sparse_rows(X: Csr, idx: np.ndarray) -> Csr:
    """Rows ``idx`` of ``X``, in ``idx`` order: scipy's ``X[idx]``.

    ``idx`` may be unsorted, repeated or empty. Row extents come from
    ``indptr`` (through two shifted views, so negative indices count from
    the end as they do for a dense block); the rows are gathered in one
    pass over the raw arrays, the source position of every output entry
    being ``repeat(start - out_start, len) + arange``.
    """
    starts = X.indptr[:-1][idx]
    lens = X.indptr[1:][idx] - starts
    m = len(idx)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.accumulate(lens, out=indptr[1:])
    row_of_nnz = np.arange(m).repeat(lens)
    pos = (starts - indptr[:m])[row_of_nnz]
    pos += np.arange(int(indptr[m]))
    return Csr(
        X.data[pos], X.indices[pos], indptr, (m, X.shape[1]), row_of_nnz
    )


def matvec(X: "Matrix", w: np.ndarray) -> np.ndarray:
    """``X @ w`` for any block payload.

    On :class:`Csr`: per-row sums in storage order, the loop order of
    scipy's ``csr_matvec``.
    """
    if type(X) is Csr:
        return np.bincount(
            X.row_of_nnz, weights=X.data * w[X.indices], minlength=X.shape[0]
        )
    return X @ w


def rmatvec(X: "Matrix", r: np.ndarray) -> np.ndarray:
    """``X.T @ r`` for any block payload.

    On :class:`Csr`: per-column sums in storage order, the loop order of
    scipy's ``csc_matvec`` on the transpose.
    """
    if type(X) is Csr:
        return np.bincount(
            X.indices, weights=X.data * r[X.row_of_nnz], minlength=X.shape[1]
        )
    return X.T @ r


#: Entry pairs :func:`gram` forms at a time on a :class:`Csr`: its
#: transient is a few arrays of this length, whatever the matrix's size.
_GRAM_CHUNK_PAIRS = 1 << 14


def gram(X: "Matrix") -> np.ndarray:
    """``X.T @ X`` as a dense ``(d, d)`` array.

    On :class:`Csr`: every pair of entries that share a row adds its
    product to key ``(a, b)`` of one zeroed output, rows in ascending
    order. Each sum then adds its products row by row, as scipy's
    ``csr_matmat`` does for ``(X.T @ X).toarray()``. The pairs are
    formed a chunk of whole rows at a time (about
    ``_GRAM_CHUNK_PAIRS``, a longer row alone) and added with
    ``np.add.at``, which adds left to right: the chunks keep the storage
    order, so the bits do not depend on the chunking.
    """
    if type(X) is not Csr:
        return X.T @ X
    d = X.shape[1]
    indptr = X.indptr.astype(np.intp)
    lens = np.diff(indptr)
    ends = np.cumsum(lens * lens)  # pairs up to and including each row
    out = np.zeros(d * d)
    lo, done = 0, 0
    while lo < len(lens):
        hi = int(np.searchsorted(ends, done + _GRAM_CHUNK_PAIRS, "right"))
        hi = max(hi, lo + 1)
        span = lens[lo:hi]
        reps = span.repeat(span)  # entry e pairs with every entry of its row
        a = np.arange(indptr[lo], indptr[hi]).repeat(reps)
        # pair j of entry e's run of pairs is entry indptr[row] + j
        run_start = np.cumsum(reps) - reps
        b = np.arange(len(a)) - (
            run_start - indptr[lo:hi].repeat(span)
        ).repeat(reps)
        key = X.indices[a].astype(np.intp) * d + X.indices[b]
        np.add.at(out, key, X.data[a] * X.data[b])
        lo, done = hi, int(ends[hi - 1])
    return out.reshape(d, d)


def grouped_products(
    X: "Matrix", y: np.ndarray, ws: "list[np.ndarray]", group: np.ndarray,
    link,
) -> np.ndarray:
    """``X_g.T @ link(X_g @ ws[g], y_g)`` for every group, as ``(len(ws), d)``.

    ``group[i]`` is row ``i``'s index into ``ws``; ``X_g``/``y_g`` are
    the rows of group ``g`` in row order and ``link`` is elementwise.
    Each output row is bit-equal to :func:`rmatvec` / :func:`matvec` on
    ``MatrixBlock.take_rows`` of group ``g``'s rows.

    A :class:`Csr` takes one pass for all groups: the row products read
    each stored entry's own group's vector, and the column sums are one
    ``np.bincount`` keyed by ``(group, column)``, which adds every key's
    entries in storage order, as the per-group products do. Dense
    payloads keep a gather and two BLAS calls per group: BLAS's bits
    depend on the matrix it is handed.
    """
    k, dim = len(ws), X.shape[1]
    if type(X) is not Csr:
        out = np.empty((k, dim))
        for g, w in enumerate(ws):
            rows = np.flatnonzero(group == g)
            Xg = X[rows]
            out[g] = Xg.T @ link(Xg @ w, y[rows])
        return out
    data, indices, row_of_nnz = X.data, X.indices, X.row_of_nnz
    key = group[row_of_nnz] * dim + indices
    W = np.concatenate(ws) if k else np.empty(0)
    m = np.bincount(row_of_nnz, weights=data * W[key], minlength=X.shape[0])
    r = link(m, y)
    return np.bincount(
        key, weights=data * r[row_of_nnz], minlength=k * dim
    ).reshape(k, dim)


#: Bytes of rows :func:`selected_products` gathers at a time from a dense
#: block: 64 rows at d = 512, 341 at d = 96, a few L2-resident pages.
#: Part of the trajectory: a selection longer than one chunk adds its
#: chunk partials in row order, so changing this moves the bits of every
#: such run and needs a ``TRAJECTORY_EPOCH`` bump
#: (:mod:`repro.utils.rng`).
STREAM_CHUNK_BYTES = 256 << 10


def selected_products(
    X: "Matrix", y: np.ndarray, w: np.ndarray, idx: np.ndarray, link,
) -> np.ndarray:
    """``X[idx].T @ link(X[idx] @ w, y[idx])`` over the row selection ``idx``.

    ``idx`` indexes rows as ``X[idx]`` does (unsorted, repeated or
    negative; out of range raises) and ``link`` is elementwise.

    A dense ``X`` is streamed: rows are gathered one chunk of
    :data:`STREAM_CHUNK_BYTES` at a time, both matrix-vector products
    run on that chunk before the next is gathered, and the chunk
    partials are added in row order. The transient is one chunk, not
    the selection, and a selection that fits one chunk makes exactly
    the calls of gathering it and multiplying (same bits). A :class:`Csr`
    gathers the rows (:func:`_sparse_rows`) and multiplies them, the bits
    of :meth:`MatrixBlock.take_rows` and :func:`matvec`/:func:`rmatvec`.
    """
    if type(X) is Csr:
        rows = _sparse_rows(X, idx)
        return rmatvec(rows, link(matvec(rows, w), y[idx]))
    step = STREAM_CHUNK_BYTES // (X.shape[1] * X.itemsize or 1) or 1
    ys = y[idx]
    out = None
    # ``or 1``: an empty selection still takes one (empty) chunk, whose
    # product is zeros(d), as X[idx] gives.
    for lo in range(0, len(idx) or 1, step):
        rows = X[idx[lo:lo + step]]
        part = rows.T @ link(rows @ w, ys[lo:lo + step])
        del rows  # one chunk of rows alive at a time
        if out is None:
            out = part
        else:
            out += part
    return out


Matrix = Union[np.ndarray, Csr]


@dataclass
class MatrixBlock:
    """A horizontal slice of the design matrix with its targets.

    Attributes
    ----------
    X: dense ``(rows, d)`` array or :class:`Csr` (a scipy CSR matrix
        is adopted, :func:`as_matrix`).
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
        # Guarded inline: every task's take_rows builds a block.
        if type(self.X) is not np.ndarray and type(self.X) is not Csr:
            self.X = as_matrix(self.X)
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
        return type(self.X) is Csr

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
        block are a :class:`Csr` gathered from its raw arrays.
        """
        idx = np.asarray(idx, dtype=np.intp)
        source_ids = idx if self.ids is None else self.ids[idx]
        X = self.X
        return MatrixBlock(
            X=_sparse_rows(X, idx) if type(X) is Csr else X[idx],
            y=self.y[idx], offset=self.offset,
            block_id=self.block_id, ids=source_ids,
        )

    def sample_indices(
        self, fraction: float, seed: int, *key: object
    ) -> np.ndarray:
        """The sorted local row indices of the mini-batch ``(seed, *key)``.

        A fixed batch size ``max(1, round(fraction * rows))`` (the
        paper's "sampling rate b"), uniform without replacement, drawn by
        :func:`~repro.utils.rng.batch_indices`: the same ``(seed, key)``
        always selects the same rows, so a recomputed task redraws its
        lost attempt's batch.
        """
        if not 0.0 < fraction <= 1.0:
            raise DataError(f"fraction must be in (0, 1], got {fraction}")
        return batch_indices(self.rows, fraction, seed, *key)


class Batch:
    """Rows ``idx`` of ``block``, not gathered: one task's mini-batch.

    What :class:`~repro.core.ops.RoundPlan` hands a rule's kernel when
    its round samples. ``rows`` is the batch size. A kernel reads the
    rows through a selection, ``problem.grad_sum(block.X, block.y, w,
    idx)`` (:func:`selected_products`), which streams a dense block
    instead of copying the batch out of it.
    """

    __slots__ = ("block", "idx", "rows")

    def __init__(self, block: MatrixBlock, idx: np.ndarray) -> None:
        self.block = block
        self.idx = idx
        self.rows = len(idx)

    def cost_units(self) -> float:
        """``block.take_rows(idx).cost_units()``, without the gather:
        a sparse batch costs its own stored entries."""
        X, m = self.block.X, self.rows
        if type(X) is not Csr:
            return float(m)
        if m == 0:
            return 0.0
        idx = self.idx
        nnz = int((X.indptr[1:][idx] - X.indptr[:-1][idx]).sum())
        return m * (nnz / m) / max(X.shape[1], 1)


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
    X = Csr(data, indices, indptr, (int(bounds[-1]), blocks[0].dim))
    return X, y, bounds


def split_matrix(
    X: Matrix, y: np.ndarray, num_blocks: int
) -> list[MatrixBlock]:
    """Split ``(X, y)`` row-wise into ``num_blocks`` contiguous blocks.

    Blocks sizes differ by at most one row (numpy ``array_split``
    convention). A sparse ``X`` is a :class:`Csr` or adopted as one
    (:func:`as_matrix`).

    Blocks are *views* of the parent storage, never copies: dense slices
    alias ``X`` directly, and CSR blocks are built around slices of the
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
    X = as_matrix(X)
    csr = type(X) is Csr
    bounds = np.linspace(0, n, num_blocks + 1).astype(np.intp)
    blocks = []
    for i in range(num_blocks):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if csr:
            indptr = X.indptr
            s, e = int(indptr[lo]), int(indptr[hi])
            Xb = Csr(
                X.data[s:e], X.indices[s:e], indptr[lo : hi + 1] - indptr[lo],
                (hi - lo, X.shape[1]),
            )
        else:
            Xb = X[lo:hi]
        blocks.append(
            MatrixBlock(X=Xb, y=np.asarray(y[lo:hi]), offset=lo, block_id=i)
        )
    return blocks
