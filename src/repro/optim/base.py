"""Shared optimizer scaffolding: configs, results, the host, construction.

Every distributed optimizer follows the same driver shape:

1. build/receive a :class:`~repro.engine.matrix.MatrixRDD` of the data,
2. loop rounds: broadcast the model, launch gradient tasks (every
   partition, then a barrier, for synchronous methods; a policy-gated
   round for asynchronous ones), apply update(s),
3. record snapshots into a :class:`~repro.optim.trace.ConvergenceTrace`,
4. stop on ``max_updates`` or ``max_time_ms``.

That driver is :class:`~repro.optim.loop.ServerLoop`, and an algorithm
is one registered :class:`~repro.optim.loop.UpdateRule` — a synchronous
one is its asynchronous rule with
:class:`~repro.optim.loop.BulkSynchronous` mixed in.
:class:`DistributedOptimizer` hosts the rule and :func:`build_optimizer`
turns a registered name into a host — mirroring the paper's claim that
sync -> async is "a few extra lines".
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.registry import OPTIMIZERS
from repro.core.policies import SchedulingPolicy
from repro.engine.context import ClusterContext
from repro.engine.matrix import MatrixRDD
from repro.engine.taskcontext import current_env
from repro.errors import ApiError, OptimError
from repro.optim.problems import Problem
from repro.optim.stepsize import StepSchedule
from repro.optim.trace import ConvergenceTrace
from repro.utils.rng import stable_hash_append

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.backend import TaskMetrics
    from repro.optim.loop import UpdateRule

__all__ = [
    "OptimizerConfig",
    "RunResult",
    "DistributedOptimizer",
    "bc_value",
    "build_optimizer",
]


def bc_value(bc: Any) -> Any:
    """Read a broadcast (plain or history) inside a task closure.

    Resolves the ambient worker environment via the task context so user
    code matches the paper's ``w_br.value`` spelling.
    """
    return bc.value(current_env())


@dataclass
class OptimizerConfig:
    """Run parameters shared by all optimizers.

    ``batch_fraction`` is the paper's sampling rate ``b``; ``max_updates``
    counts *model updates* (one per iteration for sync methods, one per
    collected result for async ones); ``max_time_ms`` bounds cluster time;
    ``eval_every`` controls snapshot density.
    """

    batch_fraction: float = 0.1
    max_updates: int = 100
    max_time_ms: float = float("inf")
    eval_every: int = 1
    seed: int = 0
    #: What the step schedule's ``t`` counts for *asynchronous* methods.
    #: "pass" (default): t = ceil(updates / P) — one tick per cluster-wide
    #: equivalent of a synchronous iteration, so the async decay cadence
    #: matches the sync variant's (the paper's tuning rule divides the
    #: initial step by P but keeps the same decay). "update": t advances
    #: on every applied result (P times faster decay on P workers).
    step_time: str = "pass"
    #: Maximum in-flight tasks per worker for asynchronous methods.
    #: 1 (the paper's model) = a worker is available iff idle; larger
    #: values pipeline submissions across the dispatch round-trip.
    pipeline_depth: int = 1
    #: Schedulable unit for asynchronous rounds: "worker" (the paper's
    #: model — one locally-reduced task per worker) or "partition" (one
    #: task per data partition, results tagged with partition identity).
    #: Rules that only make sense at one granularity (Hogwild, federated
    #: averaging) override this.
    granularity: str = "worker"
    #: Mid-run crash-recovery snapshots: every ``snapshot_every`` applied
    #: updates the server loop atomically replaces
    #: ``snapshot_path`` with its full run snapshot (model iterate,
    #: counters, policy/placement/HIST state). 0 disables; both fields
    #: must be set together.
    snapshot_every: int = 0
    snapshot_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.batch_fraction <= 1:
            raise OptimError("batch_fraction must be in (0, 1]")
        if self.max_updates <= 0:
            raise OptimError("max_updates must be positive")
        if self.eval_every <= 0:
            raise OptimError("eval_every must be positive")
        if self.step_time not in ("pass", "update"):
            raise OptimError("step_time must be 'pass' or 'update'")
        if self.pipeline_depth < 1:
            raise OptimError("pipeline_depth must be >= 1")
        if self.granularity not in ("worker", "partition"):
            raise OptimError("granularity must be 'worker' or 'partition'")
        if self.snapshot_every < 0:
            raise OptimError("snapshot_every must be >= 0")
        if (self.snapshot_every > 0) != (self.snapshot_path is not None):
            raise OptimError(
                "mid-run snapshots need both snapshot_every >= 1 "
                "and snapshot_path"
            )


@dataclass
class RunResult:
    """Everything a benchmark needs from one optimization run.

    ``extras`` carries per-algorithm diagnostics under a common schema.
    Every optimizer (the :class:`~repro.optim.loop.ServerLoop` guarantees
    this) reports at least:

    - ``lost_tasks`` — tasks dropped to worker failure,
    - ``collected`` — results the server consumed (>= ``updates``; late
      results past the budget are collected but not applied),
    - ``max_staleness_seen`` — worst model-version lag
      (``record.staleness``) among the results the server *applied*
      (since the resume, on a restored run); results dropped past the
      budget or rejected by the rule do not count. Partition-granular
      runs add ``max_partition_staleness_seen``, the same maximum over
      results that carried a partition identity.

    Algorithms append their own keys (``mode``, ``naive_broadcast_bytes``
    and ``avg_hist_norm`` for SAGA variants, ``epochs`` for SVRG, ``rho``
    for ADMM).
    """

    w: np.ndarray
    trace: ConvergenceTrace
    updates: int
    elapsed_ms: float
    rounds: int = 0
    algorithm: str = ""
    #: Slice of the dispatcher's metrics log covering this run.
    metrics: list["TaskMetrics"] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def final_error(self, problem: Problem) -> float:
        return problem.error(self.w)


class DistributedOptimizer:
    """The host: owns the context, data RDD, problem and schedule.

    :meth:`run` drives the ``rule`` through the shared
    :class:`~repro.optim.loop.ServerLoop`; ``name`` is the registered
    algorithm name, which salts every round's sampling seed and labels
    the result.
    """

    def __init__(
        self,
        ctx: ClusterContext,
        points: MatrixRDD,
        problem: Problem,
        step: StepSchedule,
        config: OptimizerConfig | None = None,
        policy: SchedulingPolicy | None = None,
        *,
        rule: "UpdateRule",
        name: str,
    ) -> None:
        if points.dim != problem.dim:
            raise OptimError(
                f"data dim {points.dim} != problem dim {problem.dim}"
            )
        self.ctx = ctx
        self.points = points
        self.problem = problem
        self.step = step
        self.config = config or OptimizerConfig()
        #: The run's scheduling policy; ``None`` means ASP (the server
        #: loop coerces it once, so every asynchronous method shares the
        #: default). Synchronous rounds dispatch without one.
        self.policy = policy
        #: The algorithm's rule, as constructed from its params; each
        #: :meth:`run` binds a fresh copy of it.
        self.rule = rule
        self.name = name
        self.n_total = points.n_rows
        #: A run snapshot (or bare server-state dict) to resume from;
        #: the spec layer sets it from ``restore_from`` and the server
        #: loop picks it up when constructed without an explicit one.
        self.restore_state: dict | None = None
        #: A resolved :class:`~repro.cluster.faultplan.FaultPlan` driven
        #: against the backend while the server loop runs.
        self.fault_plan: Any = None
        #: The run's :class:`~repro.comm.manager.CommManager` (collect
        #: compression, delta broadcasting, byte ledger); ``None`` keeps
        #: every pre-COMM byte path bit-exact.
        self.comm: Any = None

    # -- helpers the server loop and rules read ---------------------------------------
    def _round_seed(self, round_idx: int) -> int:
        """``stable_hash((config.seed, name, round_idx))``; the constant
        ``(seed, name)`` prefix is hashed once, not every round."""
        return stable_hash_append((self.config.seed, self.name), round_idx)

    def _step_index(self, updates: int) -> int:
        """Schedule index for async methods per ``config.step_time``."""
        if self.config.step_time == "update":
            return max(updates, 1)
        per_pass = max(self.ctx.num_workers, 1)
        return max(1, -(-updates // per_pass))  # ceil division

    def _should_stop(self, updates: int) -> bool:
        return (
            updates >= self.config.max_updates
            or self.ctx.now() >= self.config.max_time_ms
        )

    def run(self) -> RunResult:
        """Run the rule through the server loop.

        The rule is copied first, so rule state (counters, slots, values
        derived at bind) never leaks from one run into the next.
        """
        from repro.optim.loop import ServerLoop  # loop imports this module

        return ServerLoop(self, copy.deepcopy(self.rule)).run()


def build_optimizer(
    name: str,
    ctx: ClusterContext,
    points: MatrixRDD,
    problem: Problem,
    step: StepSchedule,
    config: OptimizerConfig | None = None,
    *,
    policy: SchedulingPolicy | None = None,
    **params: Any,
) -> DistributedOptimizer:
    """Construct the optimizer registered as ``name`` (sync or async).

    The registered :class:`~repro.optim.loop.UpdateRule` is built from
    ``params`` and hosted by a :class:`DistributedOptimizer` under its
    canonical name.
    """
    factory = OPTIMIZERS.get(name)
    try:
        rule = factory(**params)
    except TypeError as exc:
        raise ApiError(f"bad params for optimizer {name!r}: {exc}") from exc
    return DistributedOptimizer(
        ctx, points, problem, step, config, policy,
        rule=rule, name=OPTIMIZERS.canonical(name),
    )
