"""The composable server loop (the paper's Algorithm 2 shape).

Every optimizer in this library, synchronous or asynchronous, runs the
same driver:

1. publish the current model (broadcast),
2. let the scheduling policy decide when and to which targets to
   dispatch (its ``ready``/``select``/``place`` hooks), submit one round,
3. collect at least one result (advancing cluster time), drain the rest,
4. apply one model update per collected result — budget-gated, with a
   staleness-aware step size scaled by the policy's ``weight`` hook
   (stamped on ``record.weight`` for rules that average instead of
   step) — and snapshot the trace,
5. on exit, let straggling tasks land so the context ends clean.

:class:`ServerLoop` owns that skeleton once; an algorithm contributes only
an :class:`UpdateRule` — the mathematics that distinguishes it:

======================  ========================================================
hook                    role
======================  ========================================================
``publish(w)``          ship the model; returns the handle tasks will read
``sample_fraction()``   mini-batch rate the round draws; ``None`` = kernel samples
``kernel(block, h, s)`` worker-side computation over one data block
``reduce(a, b)``        combine two worker-local partials
``apply(w, rec, a)``    server-side update; ``None`` skips (e.g. empty batch)
``setup(w)``            once, before the metrics window opens (e.g. SAGA init)
``begin_epoch(w)``      epoch boundary work for ``epoch_length`` rules (SVRG)
``dispatch(h, seed)``   override the whole submission round (ADMM)
``algorithm_label()``   name reported in RunResult / snapshots
``extras()``            algorithm-specific entries merged into RunResult.extras
======================  ========================================================

Rules also get ``self.history`` — the run's HIST store of named, bounded
server-side history channels (Section 4.3's second pillar; SAGA's
``averageHistory``, SVRG's epoch anchors and async L-BFGS's curvature
pairs all live there) — and may set ``weight_aware = True`` to consume
``record.weight`` inside their own mathematics instead of the loop's
generic alpha scaling.

The schedulable unit of a round is selectable: a rule (or the config's
``granularity``) can dispatch one locally-reduced task per *worker* (the
paper's model, the default) or one task per *partition* — each result
then carries its partition identity (``record.partition``), which is what
partition-granular rules (Hogwild-style immediate application, federated
local-update averaging) key their server state on.

This factoring is what makes "sync -> async in a few extra lines" literal:
a new asynchronous method is one UpdateRule registered with
``@register_optimizer`` (its constructor takes the spec's ``params``),
not a re-implementation of the driver. See
:class:`repro.optim.asgd.ASGDRule` for the canonical ~30-line example.
Its synchronous variant is the same rule with :class:`BulkSynchronous`
mixed in ahead of it — each round dispatches every partition and waits
for all of them, then applies one update — which is how ``sgd``,
``saga``, ``svrg`` and ``admm`` are defined.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.faultplan import FaultPlanDriver
from repro.core.context import ASYNCContext
from repro.core.ops import RoundPlan
from repro.core.policies import as_policy
from repro.core.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotWriter,
    decode_value,
    encode_value,
    is_run_snapshot,
)
from repro.errors import SnapshotError
from repro.optim.base import RunResult
from repro.optim.trace import ConvergenceTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import HistoryStore
    from repro.core.records import TaskResultRecord
    from repro.optim.base import DistributedOptimizer

__all__ = ["UpdateRule", "BulkSynchronous", "ServerLoop"]


class UpdateRule:
    """Algorithm-specific hooks plugged into a :class:`ServerLoop`.

    A rule is bound to its host optimizer (for the problem, step schedule,
    config and engine handles) via :meth:`bind` before the loop starts.
    Registered with ``@register_optimizer``, a rule is an algorithm of
    its own: its constructor arguments are the spec's ``params``.
    """

    #: Offset added to the round counter when deriving the per-round seed
    #: (historical per-algorithm conventions; changing it changes sampling).
    seed_offset = 0
    #: Rounds between epoch boundaries; ``None`` means no epoch structure.
    epoch_length: int | None = None
    #: Whether the loop should evaluate the step schedule per result.
    needs_alpha = True
    #: Submission granularity: "worker", "partition", or ``None`` to
    #: follow the run's ``OptimizerConfig.granularity``. Rules whose
    #: mathematics only exists at one granularity pin it here.
    granularity: str | None = None
    #: Whether the rule consumes ``record.weight`` itself (in its history
    #: update or averaging mathematics). When True, the loop does *not*
    #: apply the generic alpha-scaling fallback — a weight-aware rule
    #: decides where the discount belongs, and scaling alpha too would
    #: double-damp every discounted result.
    weight_aware = False

    def bind(self, loop: "ServerLoop") -> None:
        self.loop = loop
        self.opt = loop.opt
        #: What :meth:`dispatch` submits each round.
        self.plan = RoundPlan(
            self.opt.points, loop.policy, self.sample_fraction(),
            self.kernel, self.reduce, loop.ac, self.effective_granularity(),
        )

    @property
    def history(self) -> "HistoryStore":
        """The run's HIST store (``AC.HIST``) — server-side bounded
        history channels shared with the broadcaster and coordinator."""
        return self.loop.ac.history

    # -- once-per-run hooks ------------------------------------------------------------
    def setup(self, w) -> None:
        """Pre-loop work, excluded from the run's metrics window."""

    def begin_epoch(self, w) -> None:
        """Epoch-boundary work for rules with ``epoch_length`` set."""

    # -- per-round hooks ---------------------------------------------------------------
    def publish(self, w) -> Any:
        """Broadcast the model; the return value is the kernel's handle."""
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

    def effective_granularity(self) -> str:
        """The submission unit this run dispatches at."""
        return self.granularity or self.opt.config.granularity

    def dispatch(self, handle, seed: int) -> None:
        """Submit one asynchronous round (policy -> sample -> map -> reduce).

        The chain is the same every round, so it is resolved once per
        run into a :class:`~repro.core.ops.RoundPlan`; rules that need a
        different lineage override this and use the RDD verbs directly.
        """
        self.plan.submit(handle, seed)

    # -- per-result hooks --------------------------------------------------------------
    def apply(self, w, record: "TaskResultRecord", alpha: float | None):
        """One server-side model update; return the new ``w``.

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
    BulkSynchronous, ASGDRule)``). Each round sends every partition to
    its owner and blocks until all have delivered — the Spark/MLlib
    iteration, which costs the slowest worker's time. :meth:`apply`
    holds results until the round is complete (returning ``None``, so
    the loop counts one update per round), sums them in partition order
    and hands the sum to :meth:`apply_round`. An algorithm is
    synchronous exactly when its registered rule is a subclass.
    """

    granularity = "partition"
    needs_alpha = False  # apply_round takes the undivided schedule

    def bind(self, loop: "ServerLoop") -> None:
        super().bind(loop)
        self.num_partitions = self.opt.points.num_partitions
        self.held: dict[int, "TaskResultRecord"] = {}

    def dispatch(self, handle, seed: int) -> None:
        self.plan.submit(handle, seed, sync=True)

    def apply(self, w, record: "TaskResultRecord", alpha: float | None):
        held = self.held
        held[record.partition] = record
        if len(held) < self.num_partitions:
            return None
        records = [held.pop(p) for p in range(self.num_partitions)]
        record.value = _sum_in_order([r.value for r in records])
        record.batch_size = sum(r.batch_size for r in records)
        return self.apply_round(w, record)

    def apply_round(self, w, record: "TaskResultRecord"):
        """The update for one round's summed ``record``: by default the
        asynchronous rule's ``apply`` at the undivided ``step.alpha(t)``."""
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
    path), ``opt.policy``, ``opt.fault_plan`` and ``opt.comm``. With
    ``config.snapshot_every`` set, the loop atomically rewrites
    ``config.snapshot_path`` every N applied updates — the
    crash-recovery side of the ``restore_state`` contract.

    ``restore_state`` (default: ``opt.restore_state``, the spec layer's
    ``restore_from`` plumbing) accepts either a previous run's
    :meth:`state_dict` — reinstating the checkpointable server state
    (policy RNG/counters, placement overlay, bounded HIST channels)
    before the first dispatch — or a full mid-run snapshot (see
    :mod:`repro.core.snapshots`), which additionally restores the model
    iterate and the update/round counters so a SIGKILLed run continues
    from the exact update its latest snapshot captured.

    :meth:`run` is ``_start`` -> ``_round`` until the budget is spent ->
    ``_finish``; every collected result goes through ``_apply``, the one
    place a model update happens.
    """

    def __init__(
        self,
        opt: "DistributedOptimizer",
        rule: UpdateRule,
        restore_state: dict | None = None,
    ) -> None:
        self.opt = opt
        self.rule = rule
        self.restore_state = (
            opt.restore_state if restore_state is None else restore_state
        )
        cfg = opt.config
        self.snapshots = (
            SnapshotWriter(cfg.snapshot_path, cfg.snapshot_every)
            if cfg.snapshot_every else None
        )
        #: The run's scheduling policy, normalized once so the dispatch
        #: path and the per-result ``weight`` hook see one instance.
        self.policy = as_policy(opt.policy)
        self.ac = ASYNCContext(
            opt.ctx,
            policy=self.policy,
            pipeline_depth=cfg.pipeline_depth,
        )
        #: The run's COMM subsystem (``opt.comm``; spec ``compressor``):
        #: installed on the scheduler path (collect-side codec), the
        #: history broadcaster (delta fetches + watermark pruning) and
        #: the plain broadcast manager (ledger), so every byte this run
        #: puts on the wire lands in one ledger.
        self.comm = opt.comm
        self.ac.comm = self.comm
        self.ac.broadcaster.comm = self.comm
        # Unconditional: a reused ClusterContext must not keep a previous
        # run's ledger attached to its broadcast manager.
        opt.ctx.broadcast_manager.comm = self.comm

    def state_dict(self) -> dict:
        """JSON-safe checkpoint of the run's restartable server state."""
        return {
            "policy": self.policy.state_dict(),
            "coordinator": self.ac.coordinator.state_dict(),
            "history": self.ac.history.snapshot(bounded_only=True),
        }

    def _restore(self, state: dict) -> None:
        self.policy.load_state(state.get("policy", {}))
        self.ac.coordinator.load_state(state.get("coordinator", {}))
        self.ac.history.restore(state.get("history", {}))

    def snapshot_state(
        self, w, updates: int, rounds: int, epoch_rounds_left: int
    ) -> dict:
        """The full mid-run snapshot payload at applied update ``updates``.

        Deliberately excludes run *limits* (``max_updates``, wall
        timestamps): the snapshot a long run writes the instant update
        K applies must be byte-identical to the final snapshot of the
        same spec run with ``max_updates=K``.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "run": {
                "algorithm": self.rule.algorithm_label(),
                "num_workers": self.opt.ctx.num_workers,
                "seed": self.opt.config.seed,
            },
            "updates": int(updates),
            "rounds": int(rounds),
            "epoch_rounds_left": int(epoch_rounds_left),
            "version": int(self.ac.stat.current_version),
            "w": encode_value(w),
            "server": self.state_dict(),
        }

    def _check_snapshot(self, snap: dict) -> None:
        run = snap.get("run", {})
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

    def run(self) -> RunResult:
        self._start()
        while not self.opt._should_stop(self.updates):
            self._round()
        return self._finish()

    def _start(self) -> None:
        """Bind the rule, set up or restore, open the metrics window."""
        opt, rule = self.opt, self.rule
        rule.bind(self)
        self.w = opt.problem.initial_point()
        self.trace = ConvergenceTrace()
        self.updates = self.rounds = self.epoch_rounds_left = 0
        self.max_staleness = self.max_partition_stale = 0

        restore = self.restore_state
        #: The full run snapshot this run resumes from, if any.
        self.resumed = full = restore if is_run_snapshot(restore) else None
        if full is None:
            self.trace.record(opt.ctx.now(), 0, self.w)
        else:
            self._check_snapshot(full)
        rule.setup(self.w)
        if full is not None:
            # Crash-recovery resume: overwrite the setup defaults with
            # the snapshot's server state, model iterate and counters,
            # so the loop continues from the exact applied update the
            # snapshot captured.
            self._restore(full.get("server", {}))
            self.w = decode_value(full["w"])
            self.updates = int(full["updates"])
            self.rounds = int(full["rounds"])
            self.epoch_rounds_left = int(full["epoch_rounds_left"])
            self.ac.stat.current_version = int(
                full.get("version", self.updates)
            )
            self.trace.record(opt.ctx.now(), self.updates, self.w)
        elif restore is not None:
            # Restored state wins over setup defaults (and must land
            # before the first dispatch so the policy's decision
            # sequence continues rather than restarts).
            self._restore(restore)
        # The paper's wait-time metric is per *iteration*: the window opens
        # after any setup pass (e.g. SAGA's synchronous initialization).
        self.metrics_start = len(opt.ctx.dispatcher.metrics_log)

        self.faults = None
        if opt.fault_plan is not None and not opt.fault_plan.empty:
            self.faults = FaultPlanDriver(opt.fault_plan, opt.ctx)

    def _round(self) -> None:
        """Publish, dispatch one round, apply everything that arrived."""
        opt, rule, ac = self.opt, self.rule, self.ac
        if self.faults is not None and self.faults.poll() > 0:
            # Liveness changed under the scheduler: re-sync STAT so
            # killed workers stop being candidates and revived ones
            # are re-admitted.
            ac.refresh_workers()
        if rule.epoch_length is not None and self.epoch_rounds_left == 0:
            rule.begin_epoch(self.w)
            self.epoch_rounds_left = rule.epoch_length
        seed = opt._round_seed(self.rounds + rule.seed_offset)
        rule.dispatch(rule.publish(self.w), seed)
        self.rounds += 1
        self.epoch_rounds_left -= 1

        # Apply at least one result (advancing cluster time), then
        # drain whatever else arrived (Algorithm 2 lines 5-8).
        if ac.has_next(block=True):
            self._apply(ac.collect_all(block=True))
        while ac.has_next(block=False):
            self._apply(ac.collect_all(block=False))

    def _apply(self, record: "TaskResultRecord") -> None:
        """One collected result -> at most one model update."""
        opt, rule = self.opt, self.rule
        cfg = opt.config
        # The policy's contribution weight rides on the record: step
        # rules scale alpha by it, averaging rules blend slots by it.
        record.weight = float(self.policy.weight(record, self.ac.stat))
        if self.updates >= cfg.max_updates:
            return  # budget exhausted; drop late results
        t = self.updates + 1
        alpha = (
            opt.step.alpha(opt._step_index(t), record.staleness)
            if rule.needs_alpha else None
        )
        # Generic fallback for rules that don't interpret the weight
        # themselves: a discounted result takes a shorter step.
        if (
            alpha is not None
            and record.weight != 1.0
            and not rule.weight_aware
        ):
            alpha *= record.weight
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
            self.snapshots.write(
                self.snapshot_state(
                    w, t, self.rounds, self.epoch_rounds_left
                )
            )

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
            "granularity": rule.effective_granularity(),
            "partition_tasks": ac.scheduler.partition_tasks_submitted,
            "policy": self.policy.describe(),
            "migrations": ac.migrations,
        }
        if extras["granularity"] == "partition":
            # The partition-grain analogs, for every rule that ran at
            # partition granularity (not just the partition-only ones).
            extras["partitions_tracked"] = len(ac.stat.partitions)
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
        # Checkpointable server state (policy RNG/counters, placement
        # overlay, bounded HIST channels) — rides the sweep checkpoint
        # path so a resumed cell can continue deterministically. Omitted
        # entirely when there is nothing to restore (stateless policy,
        # no migrations, no bounded history), keeping e.g. plain-ASGD
        # checkpoint lines free of a no-op blob.
        state = self.state_dict()
        if any(state.values()):
            extras["run_state"] = state
        extras.update(rule.extras())
        if self.comm is not None:
            # The communication ledger: nested detail under "comm" plus
            # flat scalar mirrors (comm_raw_bytes, comm_ratio, ...) that
            # survive the summary layer's scalar filter.
            extras.update(self.comm.extras())

        return RunResult(
            w=self.w,
            trace=self.trace,
            updates=self.updates,
            elapsed_ms=end_ms,
            rounds=self.rounds,
            algorithm=rule.algorithm_label(),
            metrics=opt.ctx.dispatcher.metrics_log[self.metrics_start:],
            extras=extras,
        )
