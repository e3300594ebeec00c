"""ASYNC's RDD verbs (Table 1): barrier, reduce, aggregate.

``async_reduce``/``async_aggregate`` differ from Spark's actions in the
two ways Section 5.1 describes: the reduction runs *on the worker, over
its local partitions only* (one locally-combined result per worker — the
capability Glint lacks), and the call returns immediately; results are
consumed later through the ASYNCcontext.

:class:`RoundPlan` is what the optimizers submit: their one fixed chain
of these verbs, resolved once per run instead of rebuilt every round.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.backend import WorkerEnv
from repro.core.policies import SchedulingPolicy, as_policy
from repro.core.stat import StatTable
from repro.engine.rdd import RDD
from repro.engine.taskcontext import task_env
from repro.utils.rng import spawn_generator
from repro.utils.sizeof import sizeof_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ASYNCContext

__all__ = ["BarrierRDD", "RoundPlan", "async_barrier", "async_reduce",
           "async_aggregate", "find_barrier"]

_EMPTY = object()


class BarrierRDD(RDD):
    """Pass-through node that attaches a barrier-control policy.

    ``ASYNCbarrier`` is a transformation in the paper: it does not change
    the data, it changes *which workers are assigned tasks* when a
    downstream async action fires. We keep the same shape: identity
    compute, policy discovered by the scheduler via lineage.
    """

    def __init__(self, parent: RDD, policy: SchedulingPolicy, stat: StatTable):
        super().__init__(parent.ctx, deps=[parent])
        self.policy = policy
        self.stat = stat
        self.is_matrix_like = getattr(parent, "is_matrix_like", False)

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        return self.deps[0].iterator(split, env)


def async_barrier(
    rdd: RDD,
    policy: SchedulingPolicy | Callable[[StatTable], bool],
    stat: StatTable,
) -> BarrierRDD:
    """Attach a barrier policy (accepts a policy object or a predicate)."""
    return BarrierRDD(rdd, as_policy(policy), stat)


def find_barrier(rdd: RDD) -> SchedulingPolicy | None:
    """Nearest barrier annotation in the lineage, if any."""
    stack = [rdd]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        if isinstance(node, BarrierRDD):
            return node.policy
        stack.extend(node.deps)
    return None


def _worker_reduce_factory(
    rdd: RDD, f: Callable[[Any, Any], Any]
) -> Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]:
    def make_fn(worker_id: int, splits: list[int]):
        def fn(env: WorkerEnv) -> tuple[Any, int]:
            with task_env(env):
                acc: Any = _EMPTY
                count = 0
                for split in splits:
                    for elem in rdd.iterator(split, env):
                        count += 1
                        acc = elem if acc is _EMPTY else f(acc, elem)
                return (None if acc is _EMPTY else acc, count)

        return fn

    return make_fn


class RoundPlan:
    """One optimizer round — ``source.async_barrier(policy)
    .sample(fraction, seed).map(kernel).async_reduce(reduce)`` — resolved
    once per run instead of rebuilt as three RDD nodes every round.

    Everything but ``(handle, seed)`` is fixed for a run, so
    :meth:`submit` only rebinds those two and each task walks its
    partitions inline: cached source block, mini-batch draw, row gather,
    cost report, kernel, fold. The steps, their order and the callables
    they go through (``RDD.iterator`` for the source block, so a lost
    cached partition recomputes; ``spawn_generator``; ``MatrixBlock.
    sample_indices``/``take_rows``) are those of the verb chain above,
    which makes the two bit-identical — ``tests/test_round_plan.py``
    pins it. ``fraction=None`` skips sampling (the kernel samples for
    itself); ``kernel`` is called as ``kernel(block, handle, seed)``.

    ``submit(..., sync=True)`` runs them as a bulk-synchronous round
    (``AsyncScheduler.run_sync_round``), each priced on the wire by its
    kernel value alone — what ``run_job`` ships per partition.
    """

    def __init__(
        self,
        source: RDD,
        policy: SchedulingPolicy,
        fraction: float | None,
        kernel: Callable[[Any, Any, int], Any],
        reduce: Callable[[Any, Any], Any],
        ac: "ASYNCContext",
        granularity: str = "worker",
    ) -> None:
        self.source = source
        self.policy = policy
        self.fraction = fraction
        self.kernel = kernel
        self.reduce = reduce
        self.ac = ac
        self.granularity = granularity

    def submit(
        self, handle: Any, seed: int, sync: bool = False
    ) -> list[int] | None:
        """Submit one round; returns the workers that received tasks
        (nothing for a ``sync`` round, which returns once it is done)."""
        source, fraction = self.source, self.fraction
        kernel, reduce = self.kernel, self.reduce

        def make_fn(worker_id: int, splits: list[int]):
            def fn(env: WorkerEnv) -> tuple[Any, int]:
                with task_env(env):
                    acc: Any = _EMPTY
                    count = 0
                    for split in splits:
                        # Rebinding ``block`` (source block, then its
                        # mini-batch) frees the previous partition's
                        # gathered rows before the next gather allocates;
                        # holding both doubles wall time on wide blocks.
                        for block in source.iterator(split, env):
                            if fraction is not None:
                                rng = spawn_generator(seed, "mbatch", split)
                                idx = block.sample_indices(fraction, rng)
                                idx.sort()  # a fresh draw: sort in place
                                block = block.take_rows(idx)
                                env.record_cost(block.cost_units())
                            elem = kernel(block, handle, seed)
                            count += 1
                            acc = elem if acc is _EMPTY else reduce(acc, elem)
                    return (None if acc is _EMPTY else acc, count)

            return fn

        if sync:
            return self.ac.scheduler.run_sync_round(
                source.num_partitions, make_fn,
                lambda value: sizeof_bytes(value[0]),
            )
        return self.ac.scheduler.submit_round(
            source, make_fn, self.policy, self.granularity
        )


def _worker_aggregate_factory(
    rdd: RDD,
    zero: Any,
    seq_op: Callable[[Any, Any], Any],
    comb_op: Callable[[Any, Any], Any],
) -> Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]:
    def make_fn(worker_id: int, splits: list[int]):
        def fn(env: WorkerEnv) -> tuple[Any, int]:
            with task_env(env):
                # Deep-copy the zero per partition (Spark semantics): seq_op
                # may mutate its accumulator.
                acc: Any = _EMPTY
                count = 0
                for split in splits:
                    part = copy.deepcopy(zero)
                    elems = rdd.iterator(split, env)
                    for elem in elems:
                        count += 1
                        part = seq_op(part, elem)
                    acc = part if acc is _EMPTY else comb_op(acc, part)
                return (copy.deepcopy(zero) if acc is _EMPTY else acc, count)

        return fn

    return make_fn


def async_reduce(
    rdd: RDD,
    f: Callable[[Any, Any], Any],
    ac: "ASYNCContext",
    granularity: str = "worker",
) -> list[int]:
    """Worker-local reduction, submitted asynchronously.

    Returns immediately (after the barrier admits the round) with the list
    of workers that received tasks; results arrive via ``ac.collect()``.
    ``granularity="partition"`` makes each partition its own task: no
    worker-local combine, one result per partition, each tagged with its
    partition id — the stream partition-granular update rules (Hogwild,
    federated averaging) consume.
    """
    policy = find_barrier(rdd) or ac.default_policy
    return ac.scheduler.submit_round(
        rdd, _worker_reduce_factory(rdd, f), policy, granularity
    )


def async_aggregate(
    rdd: RDD,
    zero: Any,
    seq_op: Callable[[Any, Any], Any],
    comb_op: Callable[[Any, Any], Any],
    ac: "ASYNCContext",
    granularity: str = "worker",
) -> list[int]:
    """Worker-local aggregate with a neutral zero value (Table 1)."""
    policy = find_barrier(rdd) or ac.default_policy
    return ac.scheduler.submit_round(
        rdd, _worker_aggregate_factory(rdd, zero, seq_op, comb_op), policy,
        granularity,
    )
