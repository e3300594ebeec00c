"""The composable server loop (the paper's Algorithm 2 shape).

Every optimizer in this library, synchronous or asynchronous, runs the
same driver:

1. publish the current model (broadcast),
2. submit one round through the rule's :class:`~repro.core.ops.RoundPlan`
   — the scheduling policy decides when and to which workers (its
   ``ready``/``eligible`` hooks),
3. collect at least one result (advancing cluster time), drain the rest,
4. apply one model update per collected result — budget-gated, with a
   staleness-aware step size — and snapshot the trace,
5. on exit, let straggling tasks land so the context ends clean.

:class:`ServerLoop` owns that skeleton once; an algorithm contributes only
an :class:`UpdateRule` — the mathematics that distinguishes it:

======================  ========================================================
hook                    role
======================  ========================================================
``bind(loop)``          once, before setup: resolve the round's ``plan``
``setup(w)``            once, before the metrics window opens (e.g. SAGA init)
``publish(w)``          ship the model; returns the handle tasks will read
``sample_fraction()``   mini-batch rate the round draws; ``None`` = kernel samples
``kernel(block, h, s)`` worker-side computation over a block (sampled: a Batch)
``reduce(a, b)``        combine two worker-local partials
``apply(w, rec, a)``    server-side update; ``None`` skips (e.g. empty batch)
``algorithm_label()``   name reported in RunResult / snapshots
``extras()``            algorithm-specific entries merged into RunResult.extras
======================  ========================================================

and one flag, ``seed_offset``. Anything else a round needs is the
rule's own: an epoch rule (SVRG) opens its epochs in ``publish``, and
``self.loop.ac.history`` is the run's HIST store of named server-side
history channels (Section 4.3's second pillar; SAGA's model versions,
SVRG's epoch anchors and async L-BFGS's curvature pairs all live
there).

The schedulable unit of a round is the config's ``granularity``: one
locally-reduced task per *worker* (the paper's model, the default) or
one task per *partition* — each result then carries its partition
identity (``record.partition``), which is how a synchronous round
reassembles its partitions in order.

This factoring is what makes "sync -> async in a few extra lines" literal:
a new asynchronous method is one UpdateRule registered with
``@register_optimizer`` (its constructor takes the spec's ``params``),
not a re-implementation of the driver. See
:class:`repro.optim.asgd.ASGDRule` for the canonical ~30-line example.
Its synchronous variant is the same rule with :class:`BulkSynchronous`
mixed in ahead of it — each round dispatches every partition and waits
for all of them, then applies one update — which is how ``sgd``,
``saga`` and ``svrg`` are defined.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.cluster.faultplan import FaultPlanDriver
from repro.core.context import ASYNCContext
from repro.core.ops import RoundPlan
from repro.core.policies import as_policy
from repro.core.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotWriter,
    check_snapshot,
    encode_value,
)
from repro.errors import ApiError, SnapshotError
from repro.optim.base import RunResult
from repro.optim.trace import ConvergenceTrace
from repro.utils.rng import TRAJECTORY_EPOCH

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import TaskResultRecord
    from repro.optim.base import DistributedOptimizer

__all__ = ["UpdateRule", "BulkSynchronous", "ServerLoop"]

#: Hooks an :class:`UpdateRule` once had, and where their work went. A
#: rule that still defines one is refused when its class is created.
_RETIRED_HOOKS = {
    "dispatch": "the loop submits each round through rule.plan, built at bind",
    "begin_epoch": "an epoch rule opens its epochs itself, in publish",
    "epoch_length": "an epoch rule counts its own rounds, in publish",
    "needs_alpha": "a sync plan's results come with no step (rule.plan.sync)",
    "granularity": "the run's config sets it; sync plans run per partition",
    "effective_granularity": "read rule.plan.granularity",
    "apply_round": "BulkSynchronous.apply steps the round's sum itself",
}


class UpdateRule:
    """Algorithm-specific hooks plugged into a :class:`ServerLoop`.

    A rule is bound to its host optimizer (for the problem, step schedule,
    config and engine handles) via :meth:`bind` before the loop starts.
    Registered with ``@register_optimizer``, a rule is an algorithm of
    its own: its constructor arguments are the spec's ``params``. It is
    the mathematics only: the loop owns the round (``publish`` ->
    ``plan.submit`` -> collect -> ``apply``).
    """

    #: Offset added to the round counter when deriving the per-round seed
    #: (historical per-algorithm conventions; changing it changes sampling).
    seed_offset = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in _RETIRED_HOOKS.keys() & vars(cls).keys():
            raise ApiError(
                f"{cls.__qualname__} defines {name!r}, which UpdateRule "
                f"no longer has: {_RETIRED_HOOKS[name]}"
            )

    def bind(self, loop: "ServerLoop") -> None:
        self.loop = loop
        self.opt = loop.opt
        #: What the loop submits each round: the rule's one fixed chain
        #: of RDD verbs, bulk-synchronous for a :class:`BulkSynchronous`.
        self.plan = RoundPlan(
            self.opt.points, loop.policy, self.sample_fraction(),
            self.kernel, self.reduce, loop.ac, self.opt.config.granularity,
            sync=isinstance(self, BulkSynchronous),
        )

    # -- once-per-run hooks ------------------------------------------------------------
    def setup(self, w) -> None:
        """Pre-loop work, excluded from the run's metrics window; ``w`` is
        the initial point, or on a restored run the snapshot's iterate
        (the loop's counters are already restored). A snapshot carries
        no server state, so a rule builds all of its state here or at
        its first epoch, restored or not."""

    # -- per-round hooks ---------------------------------------------------------------
    def publish(self, w) -> Any:
        """Broadcast the model; the return value is the kernel's handle.
        Called once per round, before the round is submitted."""
        raise NotImplementedError

    def sample_fraction(self) -> float | None:
        """RDD-level mini-batch fraction; ``None`` if the kernel samples."""
        return None

    def kernel(self, block, handle, seed: int):
        """Worker-side computation for one data block."""
        raise NotImplementedError

    def reduce(self, a, b):
        """Combine two worker-local partial results."""
        raise NotImplementedError

    # -- per-result hooks --------------------------------------------------------------
    def apply(self, w, record: "TaskResultRecord", alpha: float | None):
        """One server-side model update at step ``alpha``; return the
        new ``w``. A bulk-synchronous plan's results come with no step.

        Returning ``None`` rejects the result (empty batch); the loop then
        neither counts an update nor advances the model version.
        """
        raise NotImplementedError

    # -- reporting ---------------------------------------------------------------------
    def algorithm_label(self) -> str:
        return self.opt.name

    def extras(self) -> dict:
        """Algorithm-specific entries merged into ``RunResult.extras``."""
        return {}


class BulkSynchronous(UpdateRule):
    """A rule's synchronous variant: one bulk-synchronous round per update.

    Mixed in ahead of an asynchronous rule (``class SGDRule(
    BulkSynchronous, ASGDRule)``). Its plan (built at :meth:`bind`) sends
    every partition to its owner each round and blocks until all have
    delivered — the Spark/MLlib iteration, which costs the slowest
    worker's time. :meth:`apply` holds results until the round is
    complete (returning ``None``, so the loop counts one update per
    round), sums them in partition order and calls the asynchronous
    rule's ``apply`` on the sum at the undivided ``step.alpha(t)``; the
    loop evaluates no per-result step for it. An algorithm is
    synchronous exactly when its registered rule is a subclass.
    """

    def bind(self, loop: "ServerLoop") -> None:
        super().bind(loop)
        self.num_partitions = self.opt.points.num_partitions
        self.held: dict[int, "TaskResultRecord"] = {}

    def apply(self, w, record: "TaskResultRecord", alpha: float | None):
        held = self.held
        held[record.partition] = record
        if len(held) < self.num_partitions:
            return None
        records = [held.pop(p) for p in range(self.num_partitions)]
        record.value = _sum_in_order([r.value for r in records])
        record.batch_size = sum(r.batch_size for r in records)
        t = self.loop.updates + 1
        return super().apply(w, record, self.opt.step.alpha(t))

    def extras(self) -> dict:
        # No policy gates these rounds; say so instead of "ASP".
        return {**super().extras(), "policy": "bulk-synchronous"}


def _sum_in_order(values: list) -> Any:
    """``sum`` over each leaf of equally shaped tuples, in list order."""
    if isinstance(values[0], tuple):
        return tuple(_sum_in_order(list(leaf)) for leaf in zip(*values))
    return sum(values)


class ServerLoop:
    """Owns the driver, sync or async; delegates mathematics to the rule.

    Everything a run is configured by lives on the host optimizer:
    ``opt.config`` (budget, pipelining, mid-run snapshot cadence and
    path), ``opt.policy``, ``opt.fault_plan``, ``opt.comm`` and
    ``opt.restore_state``. With ``config.snapshot_every`` set, the loop
    durably writes a run snapshot to ``config.snapshot_path`` every N
    applied updates.

    ``opt.restore_state`` (set from the spec's ``restore_from``) is a
    loaded run snapshot (see :mod:`repro.core.snapshots`). The loop
    restores the model iterate and the update/round counters, then runs
    the rule's setup at the restored iterate, which rebuilds the rule's
    server state there (SAGA re-anchors; an epoch rule starts a fresh
    epoch). So a SIGKILLed run continues the algorithm from the update
    its latest snapshot captured. Anything else — a snapshot of another
    :data:`~repro.utils.rng.TRAJECTORY_EPOCH`, whose continuation this
    code would not compute, or one whose keys, run, counters or model do
    not fit this run — raises :class:`~repro.errors.SnapshotError`.

    :meth:`run` is ``_start`` -> ``_round`` until the budget is spent ->
    ``_finish``; every collected result goes through ``_apply``, the one
    place a model update happens.
    """

    def __init__(self, opt: "DistributedOptimizer", rule: UpdateRule) -> None:
        self.opt = opt
        self.rule = rule
        cfg = opt.config
        self.snapshots = (
            SnapshotWriter(cfg.snapshot_path, cfg.snapshot_every)
            if cfg.snapshot_every else None
        )
        #: The run's scheduling policy, normalized once for the run.
        self.policy = as_policy(opt.policy)
        self.ac = ASYNCContext(
            opt.ctx,
            policy=self.policy,
            pipeline_depth=cfg.pipeline_depth,
        )
        #: The run's COMM subsystem (a copy of ``opt.comm``, as configured
        #: by the spec's ``compressor``, so no mirror, residual or ledger
        #: row leaks between runs): installed on the scheduler path
        #: (collect-side codec), the history broadcaster (delta fetches)
        #: and the engine context's plain broadcasts (ledger), so every
        #: byte this run puts on the wire lands in one ledger.
        self.comm = None if opt.comm is None else copy.deepcopy(opt.comm)
        self.ac.comm = self.comm
        self.ac.broadcaster.comm = self.comm
        # Unconditional: a reused ClusterContext must not keep a previous
        # run's ledger attached to its plain broadcasts.
        opt.ctx.comm = self.comm

    def snapshot_state(self, w, updates: int, rounds: int) -> dict:
        """The full mid-run snapshot payload at applied update ``updates``.

        Deliberately excludes run *limits* (``max_updates``, wall
        timestamps): the snapshot a long run writes the instant update
        K applies must be byte-identical to the final snapshot of the
        same spec run with ``max_updates=K``.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "trajectory_epoch": TRAJECTORY_EPOCH,
            "run": {
                "algorithm": self.rule.algorithm_label(),
                "num_workers": self.opt.ctx.num_workers,
                "seed": self.opt.config.seed,
            },
            "updates": int(updates),
            "rounds": int(rounds),
            "w": encode_value(w),
        }

    def _check_snapshot(self, snap: dict):
        """Refuse a snapshot this run cannot continue, naming the field,
        before any of it is restored; return its decoded ``w``."""
        w = check_snapshot(snap, "restore state")
        run = snap["run"]
        if not isinstance(run, dict):
            raise SnapshotError(
                f"snapshot 'run' must be an object, got {type(run).__name__}"
            )
        checks = (
            ("algorithm", run.get("algorithm"), self.rule.algorithm_label()),
            ("num_workers", run.get("num_workers"), self.opt.ctx.num_workers),
            ("seed", run.get("seed"), self.opt.config.seed),
        )
        for field, snap_value, ours in checks:
            if snap_value is not None and snap_value != ours:
                raise SnapshotError(
                    f"snapshot {field} mismatch: snapshot has "
                    f"{snap_value!r}, this run has {ours!r} — resuming "
                    "would silently diverge from the original trajectory"
                )
        budget = self.opt.config.max_updates
        for field, bound in (("updates", budget), ("rounds", None)):
            value = snap[field]
            if value < 0 or (bound is not None and value > bound):
                limit = f"0..{bound}" if bound is not None else ">= 0"
                raise SnapshotError(
                    f"snapshot {field!r} is {value!r}; this run needs an "
                    f"integer in {limit}"
                )
        ours = self.w
        if w.shape != ours.shape or w.dtype != ours.dtype:
            raise SnapshotError(
                f"snapshot 'w' is {w.dtype} of shape {w.shape}; this run's "
                f"model is {ours.dtype} of shape {ours.shape}"
            )
        return w

    def run(self) -> RunResult:
        self._start()
        budget = self.opt.config.max_updates
        try:
            while self.updates < budget:
                self._round()
        finally:
            # The run is over: a fault scheduled past its end must not
            # fire in the straggler drain or in a later run on this
            # cluster.
            if self.faults is not None:
                self.faults.cancel()
        return self._finish()

    def _start(self) -> None:
        """Bind the rule, set up or restore, open the metrics window."""
        opt, rule = self.opt, self.rule
        rule.bind(self)
        self.w = opt.problem.initial_point()
        self.trace = ConvergenceTrace()
        self.updates = self.rounds = 0
        self.max_staleness = self.max_partition_stale = 0
        #: Applied updates per step-schedule tick: the worker count.
        self.per_pass = max(opt.ctx.num_workers, 1)

        #: The run snapshot this run resumes from, if any.
        self.resumed = full = opt.restore_state
        if full is None:
            self.trace.record(opt.ctx.now(), 0, self.w)
        else:
            # Crash-recovery resume: the model iterate and counters come
            # first, so the rule's setup runs at the restored iterate
            # (SAGA pins phi_j = w_K and A = grad F(w_K), an exact SAGA
            # state, for one full pass) and an epoch rule's first
            # publish opens a fresh epoch there.
            self.w = self._check_snapshot(full)
            self.updates = full["updates"]
            self.rounds = full["rounds"]
            # The model version is the applied-update count: ``_apply``
            # is the only caller of ``model_updated``.
            self.ac.stat.current_version = self.updates
        rule.setup(self.w)
        if full is not None:
            self.trace.record(opt.ctx.now(), self.updates, self.w)
        # The paper's wait-time metric is per *iteration*: the window opens
        # after any setup pass (e.g. SAGA's synchronous initialization).
        self.metrics_start = len(opt.ctx.dispatcher.metrics_log)

        self.faults = None
        if opt.fault_plan is not None and not opt.fault_plan.empty:
            # Every event goes on the cluster's event queue and fires at
            # its virtual time; STAT reads liveness from the backend, so
            # killed workers stop being candidates and revived ones
            # rejoin without being told.
            self.faults = FaultPlanDriver(opt.fault_plan, opt.ctx.backend)

    def _round(self) -> None:
        """Publish, submit one round, apply everything that arrived."""
        rule, ac = self.rule, self.ac
        seed = self.opt._round_seed(self.rounds + rule.seed_offset)
        rule.plan.submit(rule.publish(self.w), seed)
        self.rounds += 1

        # Apply at least one result (advancing cluster time), then
        # drain whatever else arrived (Algorithm 2 lines 5-8).
        record = ac.next_result(True)
        while record is not None:
            self._apply(record)
            record = ac.next_result(False)

    def _apply(self, record: "TaskResultRecord") -> None:
        """One collected result -> at most one model update."""
        opt, rule = self.opt, self.rule
        cfg = opt.config
        if self.updates >= cfg.max_updates:
            return  # budget exhausted; drop late results
        t = self.updates + 1
        # The async schedule index is ceil(t / P): one tick per
        # cluster-wide equivalent of a synchronous iteration, so the
        # async decay keeps the sync variant's cadence (the paper's
        # tuning rule divides the initial step by P but keeps the decay).
        # A sync plan's rule takes one undivided step per round itself.
        alpha = (
            None if rule.plan.sync
            else opt.step.alpha(-(-t // self.per_pass), record.staleness)
        )
        w = rule.apply(self.w, record, alpha)
        if w is None:
            return  # rejected (e.g. empty mini-batch)
        self.w = w
        self.updates = t
        self.ac.model_updated()
        stale = record.staleness
        if stale > self.max_staleness:
            self.max_staleness = stale
        if record.partition is not None and stale > self.max_partition_stale:
            self.max_partition_stale = stale
        if t % cfg.eval_every == 0:
            self.trace.record(opt.ctx.now(), t, w)
        if self.snapshots is not None and self.snapshots.due(t):
            # Written at the instant update N applies, before any
            # further collect mutates rule state — which is what
            # makes a mid-run snapshot byte-identical to the final
            # snapshot of a max_updates=N run of the same spec.
            self.snapshots.write(self.snapshot_state(w, t, self.rounds))

    def _finish(self) -> RunResult:
        """Close the trace, let stragglers land, assemble the result."""
        opt, rule, ac = self.opt, self.rule, self.ac
        end_ms = opt.ctx.now()
        if self.trace.updates[-1] != self.updates:
            self.trace.record(end_ms, self.updates, self.w)

        # Stragglers may still hold tasks; let them land (their updates
        # are not applied — the run is over) so the context ends clean.
        ac.wait_all()
        ac.drain()

        extras: dict[str, Any] = {
            "lost_tasks": ac.lost_tasks,
            "collected": ac.collected,
            "max_staleness_seen": self.max_staleness,
            "granularity": rule.plan.granularity,
            "partition_tasks": ac.scheduler.partition_tasks_submitted,
            "policy": self.policy.describe(),
        }
        if extras["granularity"] == "partition":
            # The partition-grain analog, for every rule that ran at
            # partition granularity (not just the partition-only ones).
            extras["max_partition_staleness_seen"] = self.max_partition_stale
        if len(ac.history):
            # Per-channel HIST byte accounting (Section 4.3's second
            # pillar): what server-side history this run kept, and what
            # it cost.
            extras["history"] = ac.history.accounting()
            extras["history_bytes"] = ac.history.total_stored_bytes
        if self.faults is not None:
            extras["fault_plan"] = opt.fault_plan.describe()
            extras["fault_events"] = self.faults.fired
            extras["fault_events_suppressed"] = self.faults.suppressed
            extras["faults"] = self.faults.log
        if self.snapshots is not None:
            extras["snapshots_written"] = self.snapshots.written
        if self.resumed is not None:
            extras["resumed_from_update"] = int(self.resumed["updates"])
        extras.update(rule.extras())
        if self.comm is not None:
            # The communication ledger: nested detail under "comm" plus
            # flat scalar mirrors (comm_raw_bytes, comm_ratio, ...) that
            # survive the summary layer's scalar filter.
            extras.update(self.comm.extras())

        disp = opt.ctx.dispatcher
        return RunResult(
            w=self.w,
            trace=self.trace,
            updates=self.updates,
            elapsed_ms=end_ms,
            rounds=self.rounds,
            algorithm=rule.algorithm_label(),
            metrics=disp.metrics_log[self.metrics_start:],
            extras=extras,
            total_task_bytes=disp.total_in_bytes + disp.total_out_bytes,
            total_fetch_bytes=disp.total_fetch_bytes,
        )
