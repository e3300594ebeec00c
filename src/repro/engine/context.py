"""ClusterContext: the engine's driver entry point (Spark's ``sc``).

Wires the simulation backend to the dispatcher, runs
synchronous jobs through the engine's one partition job
(:func:`~repro.engine.scheduler.run_partitions`), hands out broadcast
variables and provides factory methods for RDDs. A context is also a
context manager::

    with ClusterContext(num_workers=8) as sc:
        rdd = sc.parallelize(range(100), 8)
        assert sum(rdd.map(lambda x: x * x).collect()) == 328350
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable, Sequence

from repro.cluster.backend import WorkerEnv
from repro.cluster.cost import AnalyticCostModel
from repro.cluster.network import NetworkModel
from repro.cluster.simbackend import SimBackend
from repro.cluster.stragglers import DelayModel
from repro.engine.broadcast import Broadcast
from repro.engine.dispatch import Continuation, Dispatcher
from repro.engine.matrix import MatrixRDD
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import run_partitions

__all__ = ["ClusterContext"]


class ClusterContext:
    """Driver-side handle to the cluster."""

    def __init__(
        self,
        num_workers: int = 4,
        *,
        backend: SimBackend | None = None,
        cost_model: AnalyticCostModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
        default_parallelism: int | None = None,
    ) -> None:
        if backend is None:
            backend = SimBackend(
                num_workers,
                cost_model=cost_model,
                network=network,
                delay_model=delay_model,
            )
        self.backend = backend
        self.dispatcher = Dispatcher(backend)
        self._broadcast_ids = itertools.count()
        #: The run's :class:`~repro.comm.manager.CommManager` ledger hook
        #: for plain broadcasts (installed by the server loop; ``None`` =
        #: no ledger).
        self.comm: Any = None
        self.default_parallelism = default_parallelism or backend.num_workers
        self.task_descriptor_bytes = 256
        self._rdd_ids = itertools.count()
        self._rdds: "weakref.WeakValueDictionary[int, RDD]" = (
            weakref.WeakValueDictionary()
        )

    # -- plumbing used by RDD -----------------------------------------------------
    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def _register_rdd(self, rdd: RDD) -> None:
        self._rdds[rdd.rdd_id] = rdd

    @property
    def num_workers(self) -> int:
        return self.backend.num_workers

    def now(self) -> float:
        """Current virtual cluster time in ms."""
        return self.backend.now()

    # -- RDD factories ---------------------------------------------------------------
    def parallelize(
        self, data: Sequence, num_partitions: int | None = None
    ) -> RDD:
        """Distribute a driver-side collection."""
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_partitions)

    def matrix(self, X, y, num_partitions: int | None = None) -> MatrixRDD:
        """Partition a labelled matrix row-wise into a MatrixRDD."""
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return MatrixRDD.from_arrays(self, X, y, num_partitions)

    # -- cluster services ---------------------------------------------------------------
    def broadcast(self, value: Any) -> Broadcast:
        """Register an immutable value for on-demand worker replication."""
        return Broadcast(self, next(self._broadcast_ids), value)

    def run_job(self, rdd: RDD, func: Callable[[int, list], Any]) -> list:
        """Synchronously run ``func(split, data)`` over every partition
        (BSP semantics); results in partition order."""
        dispatcher, in_bytes = self.dispatcher, self.task_descriptor_bytes

        def send(
            split: int, worker: int, job_id: int, on_complete: Continuation
        ) -> None:
            def fn(env: WorkerEnv) -> Any:
                return func(split, rdd.iterator(split, env))

            dispatcher.submit(
                fn, worker, on_complete=on_complete, job_id=job_id,
                in_bytes=in_bytes,
            )

        return run_partitions(self, rdd.num_partitions, send)

    def owner_of(self, split: int) -> int:
        """Locality rule: partition ``i`` prefers worker ``i mod P``."""
        return split % self.num_workers

    # -- lifecycle -------------------------------------------------------------------------
    def stop(self) -> None:
        """Spark's ``sc.stop()``: the simulated cluster holds no OS
        resources, so there is nothing to release."""

    def __enter__(self) -> "ClusterContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ClusterContext(workers={self.num_workers}, "
            f"backend={type(self.backend).__name__})"
        )
