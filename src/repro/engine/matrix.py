"""Matrix-block RDDs: the ML-facing data representation.

A :class:`MatrixRDD` has exactly one :class:`~repro.data.blocks.MatrixBlock`
per partition, so ``map``/``map_blocks`` closures receive whole blocks and
run vectorized kernels. ``sample`` on a matrix RDD subsamples *rows inside
each block* (what ``points.sample(b)`` means in the paper's algorithms)
rather than sampling block objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.backend import WorkerEnv
from repro.data.blocks import MatrixBlock, split_matrix
from repro.engine.rdd import RDD
from repro.errors import EngineError

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
    def map_blocks(self, f: Callable[[MatrixBlock], Any]) -> RDD:
        """Apply a block-level kernel; alias of ``map`` for matrix RDDs."""
        return self.map(f)


class SampledMatrixRDD(RDD):
    """Row-level mini-batch of a matrix RDD.

    Each partition's batch is ``MatrixBlock.sample_indices(fraction, seed,
    "mbatch", split)`` — sorted, uniform without replacement, a pure
    function of ``(seed, split)`` — so recomputation after a worker
    failure regenerates the identical batch (exactly-once update
    semantics), equal seeds select equal batches, and a ``RoundPlan``
    round draws exactly what this verb draws. Optimizers pass a fresh
    seed per iteration.
    """

    def __init__(self, parent: RDD, fraction: float, seed: int):
        if not 0.0 < fraction <= 1.0:
            raise EngineError(f"fraction must be in (0, 1], got {fraction}")
        super().__init__(parent.ctx, deps=[parent])
        self.fraction = fraction
        self.seed = seed
        self.is_matrix_like = True

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        out = []
        for block in self.deps[0].iterator(split, env):
            if not isinstance(block, MatrixBlock):
                raise EngineError(
                    "SampledMatrixRDD requires MatrixBlock partitions, got "
                    f"{type(block).__name__}"
                )
            sub = block.take_rows(
                block.sample_indices(self.fraction, self.seed, "mbatch", split)
            )
            # The mini-batch is the work the downstream gradient kernel
            # will do; advertise it to the cost model.
            if env is not None:
                env.record_cost(sub.cost_units())
            out.append(sub)
        return out
