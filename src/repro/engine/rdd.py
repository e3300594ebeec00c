"""Resilient Distributed Datasets: lazy, lineage-tracked collections.

The transformation/action split mirrors Spark: transformations build new
RDD nodes lazily; actions walk the lineage inside worker tasks via
:meth:`RDD.iterator`. Every transformation here is *narrow* (no shuffle):
partition ``i`` of a child depends only on partition ``i`` of its parent,
which is all the paper's workloads need and keeps recovery simple — a lost
partition is recomputed by re-running its lineage on another worker.

The surface is what the optimizers and the paper's Table 1 reach: ``map``
and ``sample`` (plus ``cache``) as transformations, the three ASYNC verbs,
and ``collect``/``count``/``sum``/``aggregate`` — the bulk-synchronous
actions through which lineage recompute is exercised.

Caching stores computed partitions in the owning worker's block store
(:class:`~repro.cluster.backend.WorkerEnv`); a cache miss after worker loss
transparently falls back to recomputation, which is the engine's fault
tolerance story (exercised in ``tests/test_faults.py``).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.backend import WorkerEnv
from repro.errors import EngineError
from repro.utils.rng import batch_indices

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ASYNCContext
    from repro.core.stat import StatTable
    from repro.engine.context import ClusterContext

__all__ = ["RDD", "ParallelCollectionRDD"]

_MISSING = object()


class RDD:
    """Base class: a lazy, partitioned collection with lineage."""

    def __init__(
        self,
        ctx: "ClusterContext",
        num_partitions: int | None = None,
        deps: Sequence["RDD"] = (),
    ) -> None:
        self.ctx = ctx
        self.rdd_id = ctx._next_rdd_id()
        self.deps = list(deps)
        if num_partitions is None:
            if not self.deps:
                raise EngineError("root RDD must declare num_partitions")
            num_partitions = self.deps[0].num_partitions
        self._num_partitions = int(num_partitions)
        self.cached = False
        #: True when partitions hold MatrixBlock payloads; controls whether
        #: ``sample`` means row-subsampling (matrix) or element sampling.
        #: Set by MatrixRDD and by pass-through nodes (barrier) that
        #: preserve the payload type.
        self.is_matrix_like = False
        ctx._register_rdd(self)

    # -- structure -------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        """Materialize partition ``split``. Subclasses implement this."""
        raise NotImplementedError

    def iterator(self, split: int, env: WorkerEnv | None) -> list:
        """Compute through the cache: the engine's read path."""
        if self.cached and env is not None:
            key = ("rdd", self.rdd_id, split)
            hit = env.get(key, _MISSING)
            if hit is not _MISSING:
                return hit
            data = self.compute(split, env)
            env.put(key, data)
            return data
        return self.compute(split, env)

    # -- persistence --------------------------------------------------------------
    def cache(self) -> "RDD":
        """Keep computed partitions in worker memory (Spark's ``persist``)."""
        self.cached = True
        return self

    # -- transformations ------------------------------------------------------------
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Element-wise transformation."""
        return MappedRDD(self, f)

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Fixed-size uniform sampling without replacement (the paper's
        "sampling rate b").

        On matrix-like RDDs this subsamples rows inside each block; on
        generic RDDs it samples elements per partition.
        """
        if self.is_matrix_like:
            from repro.engine.matrix import SampledMatrixRDD

            return SampledMatrixRDD(self, fraction, seed)
        return SampledRDD(self, fraction, seed)

    # -- actions ------------------------------------------------------------------
    def collect(self) -> list:
        """Materialize the whole dataset on the driver, in partition order."""
        parts = self.ctx.run_job(self, lambda split, data: list(data))
        out: list = []
        for p in parts:
            out.extend(p)
        return out

    def aggregate(
        self,
        zero: Any,
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
    ) -> Any:
        """Aggregate with distinct element/partial types, like Spark."""
        parts = self.ctx.run_job(
            self, lambda split, data: functools.reduce(seq_op, data, zero)
        )
        return functools.reduce(comb_op, parts, zero)

    def count(self) -> int:
        return sum(self.ctx.run_job(self, lambda split, data: len(data)))

    def sum(self) -> Any:
        parts = self.ctx.run_job(self, lambda split, data: sum(data))
        return sum(parts)

    # -- ASYNC verbs (Table 1 of the paper) ------------------------------------------
    def async_barrier(
        self, predicate: Callable[["StatTable"], bool], stat: "StatTable"
    ) -> "RDD":
        """Attach a barrier-control predicate; see
        :func:`repro.core.ops.async_barrier`."""
        from repro.core.ops import async_barrier

        return async_barrier(self, predicate, stat)

    def async_reduce(
        self,
        f: Callable[[Any, Any], Any],
        ac: "ASYNCContext",
        granularity: str = "worker",
    ) -> list[int]:
        """Asynchronously reduce; results land in ``ac``.

        ``granularity`` selects the schedulable unit: ``"worker"``
        (default) locally reduces each worker's partitions into one
        result; ``"partition"`` submits one task per partition, each
        result tagged with its partition id. Returns the workers that
        received tasks this round.
        """
        from repro.core.ops import async_reduce

        return async_reduce(self, f, ac, granularity)

    def async_aggregate(
        self,
        zero: Any,
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
        ac: "ASYNCContext",
        granularity: str = "worker",
    ) -> list[int]:
        from repro.core.ops import async_aggregate

        return async_aggregate(self, zero, seq_op, comb_op, ac, granularity)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(id={self.rdd_id}, "
            f"partitions={self._num_partitions})"
        )


class ParallelCollectionRDD(RDD):
    """Root RDD over a driver-side collection, split into slices."""

    def __init__(self, ctx: "ClusterContext", data: Sequence, num_partitions: int):
        if num_partitions <= 0:
            raise EngineError("num_partitions must be positive")
        super().__init__(ctx, num_partitions=num_partitions)
        data = list(data)
        n = len(data)
        self._slices: list[list] = []
        for i in range(num_partitions):
            lo = (i * n) // num_partitions
            hi = ((i + 1) * n) // num_partitions
            self._slices.append(data[lo:hi])

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        return list(self._slices[split])


class MappedRDD(RDD):
    def __init__(self, parent: RDD, f: Callable[[Any], Any]):
        super().__init__(parent.ctx, deps=[parent])
        self.f = f

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        return [self.f(x) for x in self.deps[0].iterator(split, env)]


class SampledRDD(RDD):
    """Per-partition uniform sampling with a deterministic stream.

    The draw is :func:`~repro.utils.rng.batch_indices` keyed by
    ``(seed, "sample", split)``: a sampled RDD is identical no matter which
    worker computes it or in what order (required for correct
    recomputation after worker loss), and two ``sample`` calls with the
    same seed select the same elements, kept in partition order.
    Iterative algorithms pass a fresh seed per iteration.
    """

    def __init__(self, parent: RDD, fraction: float, seed: int):
        if not 0.0 < fraction <= 1.0:
            raise EngineError(f"fraction must be in (0, 1], got {fraction}")
        super().__init__(parent.ctx, deps=[parent])
        self.fraction = fraction
        self.seed = seed

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        data = self.deps[0].iterator(split, env)
        idx = batch_indices(len(data), self.fraction, self.seed, "sample", split)
        return [data[i] for i in idx.tolist()]
