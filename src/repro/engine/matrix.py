"""Matrix-block RDDs: the ML-facing data representation.

A :class:`MatrixRDD` has exactly one :class:`~repro.data.blocks.MatrixBlock`
per partition, so ``map``/``map_blocks`` closures receive whole blocks and
run vectorized kernels. ``sample`` is overridden to subsample *rows inside
each block* (what ``points.sample(b)`` means in the paper's algorithms)
rather than sampling block objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.backend import WorkerEnv
from repro.data.blocks import MatrixBlock, split_matrix
from repro.engine.rdd import RDD
from repro.errors import EngineError
from repro.utils.rng import spawn_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = ["MatrixRDD", "SampledMatrixRDD"]


class MatrixRDD(RDD):
    """Root RDD over a row-partitioned matrix."""

    def __init__(self, ctx: "ClusterContext", blocks: list[MatrixBlock]):
        if not blocks:
            raise EngineError("MatrixRDD needs at least one block")
        super().__init__(ctx, num_partitions=len(blocks))
        dims = {b.dim for b in blocks}
        if len(dims) != 1:
            raise EngineError(f"inconsistent block dims: {sorted(dims)}")
        self._blocks = blocks
        self.is_matrix_like = True

    @classmethod
    def from_arrays(
        cls, ctx: "ClusterContext", X, y, num_partitions: int
    ) -> "MatrixRDD":
        return cls(ctx, split_matrix(X, y, num_partitions))

    # -- structure ------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return sum(b.rows for b in self._blocks)

    @property
    def dim(self) -> int:
        return self._blocks[0].dim

    def block(self, split: int) -> MatrixBlock:
        """Driver-side access to a source block (no task launched)."""
        return self._blocks[split]

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        return [self._blocks[split]]

    # -- ML verbs -------------------------------------------------------------
    def sample(
        self, fraction: float, seed: int = 0, with_replacement: bool = False
    ) -> "SampledMatrixRDD":
        """Row-subsample every block (the paper's mini-batch sampling)."""
        return SampledMatrixRDD(self, fraction, seed, with_replacement)

    def map_blocks(self, f: Callable[[MatrixBlock], Any]) -> RDD:
        """Apply a block-level kernel; alias of ``map`` for matrix RDDs."""
        return self.map(f)


class SampledMatrixRDD(RDD):
    """Row-level mini-batch of a matrix RDD.

    The sample is keyed by ``(seed, split)``: recomputation after a worker
    failure regenerates the identical batch (exactly-once update
    semantics), and equal seeds select equal batches. Optimizers pass a
    fresh seed per iteration.
    """

    def __init__(
        self,
        parent: RDD,
        fraction: float,
        seed: int,
        with_replacement: bool = False,
    ):
        if not 0.0 < fraction <= 1.0:
            raise EngineError(f"fraction must be in (0, 1], got {fraction}")
        super().__init__(parent.ctx, deps=[parent])
        self.fraction = fraction
        self.seed = seed
        self.with_replacement = with_replacement
        self.is_matrix_like = True

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        out = []
        for block in self.deps[0].iterator(split, env):
            if not isinstance(block, MatrixBlock):
                raise EngineError(
                    "SampledMatrixRDD requires MatrixBlock partitions, got "
                    f"{type(block).__name__}"
                )
            rng = spawn_generator(self.seed, "mbatch", split)
            idx = block.sample_indices(
                self.fraction, rng, self.with_replacement
            )
            idx = np.sort(idx)
            sub = block.take_rows(idx)
            # The mini-batch is the work the downstream gradient kernel
            # will do; advertise it to the cost model.
            if env is not None:
                env.record_cost(sub.cost_units())
            out.append(sub)
        return out

    def sample(
        self, fraction: float, seed: int = 0, with_replacement: bool = False
    ) -> "SampledMatrixRDD":
        return SampledMatrixRDD(self, fraction, seed, with_replacement)

    def map_blocks(self, f: Callable[[MatrixBlock], Any]) -> RDD:
        return self.map(f)
