"""A Spark-like dataflow engine built from scratch.

Provides lazy RDDs with lineage, one synchronous partition job with
retry, broadcast variables with per-worker caching, worker-local block
storage, and lineage-based recovery from worker loss. The ASYNC layer
(:mod:`repro.core`) extends this engine exactly the way the paper extends
Spark.
"""

from repro.engine.broadcast import Broadcast
from repro.engine.context import ClusterContext
from repro.engine.dispatch import Dispatcher
from repro.engine.matrix import MatrixRDD
from repro.engine.rdd import RDD

__all__ = [
    "ClusterContext",
    "RDD",
    "MatrixRDD",
    "Broadcast",
    "Dispatcher",
]
