"""The composable asynchronous server loop (the paper's Algorithm 2 shape).

Every asynchronous optimizer in this library runs the same driver:

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
``apply_batch(...)``    vectorized ``apply`` over a drain, gated by
                        ``batch_ready()`` (per run) / ``batch_accepts(rec)``
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
a new asynchronous method is one UpdateRule, not a re-implementation of
the driver. See :class:`repro.optim.asgd.ASGDRule` for the canonical
~30-line example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.context import ASYNCContext
from repro.core.ops import RoundPlan
from repro.core.policies import as_policy
from repro.optim.trace import ConvergenceTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.history import HistoryStore
    from repro.core.records import TaskResultRecord
    from repro.optim.base import DistributedOptimizer, RunResult

__all__ = ["UpdateRule", "ServerLoop"]


class UpdateRule:
    """Algorithm-specific hooks plugged into a :class:`ServerLoop`.

    A rule is bound to its host optimizer (for the problem, step schedule,
    config and engine handles) via :meth:`bind` before the loop starts.
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
    #: Whether :meth:`publish` is a pure function of the model version —
    #: no per-round side effects — so the loop may reuse the previous
    #: handle when a round republishes an unchanged version (the
    #: version-keyed broadcast payload cache). Rules whose publish does
    #: per-round work (history appends, channel pruning) keep this False.
    publish_cacheable = False

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

    # -- batched application (optional fast path) --------------------------------------
    def batch_ready(self) -> bool:
        """Whether batched application is *exact* for this bound run.

        Consulted once, after :meth:`bind`: a rule whose batched form is
        only bit-identical under some configurations (e.g. ASGD needs a
        zero ridge term so the regularizer gradient is exactly zero)
        rejects batching here and keeps the sequential path.
        """
        return True

    def batch_accepts(self, record: "TaskResultRecord") -> bool:
        """Whether ``record`` may join a deferred batch.

        Contract: ``True`` implies :meth:`apply` would return a non-None
        model for this record regardless of the current iterate — the
        loop counts the update (and advances the model version) before
        the numeric work happens at the next flush point. Records it
        declines (e.g. empty mini-batches) take the sequential path.
        """
        return False

    def apply_batch(self, w, records: list, alphas: list):
        """Apply several accepted records in one vectorized step.

        Must be bit-identical to folding :meth:`apply` over the records
        left to right (``alphas`` aligns with ``records``; entries are
        ``None`` when ``needs_alpha`` is False). The loop only calls this
        with records that passed :meth:`batch_accepts`, and only between
        observation points (trace snapshots, mid-run snapshots, round
        boundaries), so intermediate iterates are never observable.
        """
        raise NotImplementedError

    # -- reporting ---------------------------------------------------------------------
    def algorithm_label(self) -> str:
        return self.opt.name

    def extras(self) -> dict:
        """Algorithm-specific entries merged into ``RunResult.extras``."""
        return {}


class ServerLoop:
    """Owns the asynchronous driver; delegates mathematics to the rule.

    ``restore_state`` accepts either a previous run's
    :meth:`state_dict` — reinstating the checkpointable server state
    (policy RNG/counters, placement overlay, bounded HIST channels)
    before the first dispatch — or a full mid-run snapshot (see
    :mod:`repro.core.snapshots`), which additionally restores the model
    iterate and the update/round counters so a SIGKILLed run continues
    from the exact update its latest snapshot captured. When omitted it
    falls back to the host optimizer's ``restore_state`` attribute (the
    spec layer's ``restore_from`` plumbing).

    With ``snapshot_every``/``snapshot_path`` set (explicitly or via
    the config), the loop atomically rewrites the snapshot file every N
    applied updates — the crash-recovery side of the same contract.
    """

    def __init__(
        self,
        opt: "DistributedOptimizer",
        rule: UpdateRule,
        restore_state: dict | None = None,
        *,
        snapshot_every: int | None = None,
        snapshot_path: str | None = None,
        fault_plan: Any = None,
        batch_apply: bool | None = None,
    ) -> None:
        from repro.core.snapshots import SnapshotWriter
        from repro.errors import SnapshotError

        self.opt = opt
        self.rule = rule
        if restore_state is None:
            restore_state = getattr(opt, "restore_state", None)
        self.restore_state = restore_state
        cfg = opt.config
        every = (
            snapshot_every if snapshot_every is not None
            else getattr(cfg, "snapshot_every", 0)
        )
        path = (
            snapshot_path if snapshot_path is not None
            else getattr(cfg, "snapshot_path", None)
        )
        if bool(every) != (path is not None):
            raise SnapshotError(
                "mid-run snapshots need both snapshot_every >= 1 "
                "and snapshot_path"
            )
        self.snapshots = SnapshotWriter(path, every) if every else None
        if fault_plan is None:
            fault_plan = getattr(opt, "fault_plan", None)
        self.fault_plan = fault_plan
        self.batch_apply = (
            batch_apply if batch_apply is not None
            else getattr(cfg, "batch_apply", True)
        )
        #: The run's scheduling policy, normalized once so the dispatch
        #: path and the per-result ``weight`` hook see one instance.
        self.policy = as_policy(opt.policy)
        self.ac = ASYNCContext(
            opt.ctx,
            policy=self.policy,
            pipeline_depth=opt.config.pipeline_depth,
        )
        #: The run's COMM subsystem (``opt.comm``; spec ``compressor``):
        #: installed on the scheduler path (collect-side codec), the
        #: history broadcaster (delta fetches + watermark pruning) and
        #: the plain broadcast manager (ledger), so every byte this run
        #: puts on the wire lands in one ledger.
        self.comm = getattr(opt, "comm", None)
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
        from repro.core.snapshots import SNAPSHOT_FORMAT, encode_value

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
        from repro.errors import SnapshotError

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

    def run(self) -> "RunResult":
        from repro.core.snapshots import decode_value, is_run_snapshot
        from repro.optim.base import RunResult

        opt, rule, ac = self.opt, self.rule, self.ac
        cfg = opt.config
        rule.bind(self)

        restore = self.restore_state
        full = restore if is_run_snapshot(restore) else None

        w = opt.problem.initial_point()
        trace = ConvergenceTrace()
        updates = 0
        rounds = 0
        epoch_rounds_left = 0
        if full is None:
            trace.record(opt.ctx.now(), 0, w)
            rule.setup(w)
            if restore is not None:
                # Restored state wins over setup defaults (and must land
                # before the first dispatch so the policy's decision
                # sequence continues rather than restarts).
                self._restore(restore)
        else:
            # Crash-recovery resume: rebuild setup defaults, then
            # overwrite them with the snapshot's server state, model
            # iterate and counters, so the loop continues from the
            # exact applied update the snapshot captured.
            self._check_snapshot(full)
            rule.setup(w)
            self._restore(full.get("server", {}))
            w = decode_value(full["w"])
            updates = int(full["updates"])
            rounds = int(full["rounds"])
            epoch_rounds_left = int(full["epoch_rounds_left"])
            ac.stat.current_version = int(full.get("version", updates))
            trace.record(opt.ctx.now(), updates, w)
        # The paper's wait-time metric is per *iteration*: the window opens
        # after any setup pass (e.g. SAGA's synchronous initialization).
        metrics_start = len(opt.ctx.dispatcher.metrics_log)

        faults = None
        if self.fault_plan is not None and not self.fault_plan.empty:
            from repro.cluster.faultplan import FaultPlanDriver

            faults = FaultPlanDriver(self.fault_plan, opt.ctx)

        # Batched application: when the rule vouches that its vectorized
        # form is exact, accepted records are *deferred* — the loop still
        # counts the update and advances the model version immediately
        # (so staleness restamps, policy weights and step indices are
        # identical to the sequential path), but the numeric work happens
        # at the next observation point in one ``apply_batch`` call.
        batching = (
            self.batch_apply
            and type(rule).apply_batch is not UpdateRule.apply_batch
            and rule.batch_ready()
        )
        pending: list = []
        pending_alphas: list = []
        published: "tuple[int, Any] | None" = None

        def flush() -> None:
            nonlocal w
            if not pending:
                return
            if len(pending) == 1:
                w = rule.apply(w, pending[0], pending_alphas[0])
            else:
                w = rule.apply_batch(w, pending, pending_alphas)
            pending.clear()
            pending_alphas.clear()

        def apply_one(record) -> None:
            nonlocal w, updates
            # The policy's contribution weight rides on the record: step
            # rules scale alpha by it, averaging rules blend slots by it.
            record.weight = float(self.policy.weight(record, ac.stat))
            if updates >= cfg.max_updates:
                return  # budget exhausted; drop late results
            t = updates + 1
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
            if batching and rule.batch_accepts(record):
                pending.append(record)
                pending_alphas.append(alpha)
                updates = t
                ac.model_updated()
            else:
                flush()  # apply sees the up-to-date iterate
                w_new = rule.apply(w, record, alpha)
                if w_new is None:
                    return  # rejected (e.g. empty mini-batch)
                w = w_new
                updates = t
                ac.model_updated()
            if updates % cfg.eval_every == 0:
                flush()
                trace.record(opt.ctx.now(), updates, w)
            if self.snapshots is not None and self.snapshots.due(updates):
                # Written at the instant update N applies, before any
                # further collect mutates rule state — which is what
                # makes a mid-run snapshot byte-identical to the final
                # snapshot of a max_updates=N run of the same spec.
                flush()
                self.snapshots.write(
                    self.snapshot_state(
                        w, updates, rounds, epoch_rounds_left
                    )
                )

        while not opt._should_stop(updates):
            if faults is not None and faults.poll() > 0:
                # Liveness changed under the scheduler: re-sync STAT so
                # killed workers stop being candidates and revived ones
                # are re-admitted.
                ac.refresh_workers()
            if rule.epoch_length is not None and epoch_rounds_left == 0:
                rule.begin_epoch(w)
                epoch_rounds_left = rule.epoch_length
            seed = opt._round_seed(rounds + rule.seed_offset)
            # Version-keyed broadcast payload cache: a round that
            # republishes an unchanged model version reuses the previous
            # handle (no new broadcast registration, no worker re-fetch
            # of a value it already holds). Only for rules whose publish
            # is a pure function of the version.
            version = ac.stat.current_version
            if (
                rule.publish_cacheable
                and published is not None
                and published[0] == version
            ):
                handle = published[1]
            else:
                handle = rule.publish(w)
                published = (version, handle)
            rule.dispatch(handle, seed)
            rounds += 1
            epoch_rounds_left -= 1

            # Apply at least one result (advancing cluster time), then
            # drain whatever else arrived (Algorithm 2 lines 5-8).
            if ac.has_next(block=True):
                apply_one(ac.collect_all(block=True))
            while ac.has_next(block=False):
                apply_one(ac.collect_all(block=False))
            # The drain is over: materialize deferred updates before the
            # next round observes (publishes) the iterate.
            flush()

        flush()
        end_ms = opt.ctx.now()
        if trace.updates[-1] != updates:
            trace.record(end_ms, updates, w)

        # Stragglers may still hold tasks; let them land (their updates
        # are not applied — the run is over) so the context ends clean.
        ac.wait_all()
        ac.drain()

        extras: dict[str, Any] = {
            "lost_tasks": ac.lost_tasks,
            "collected": ac.collected,
            "max_staleness_seen": max(
                (ws.last_staleness for ws in ac.stat), default=0
            ),
            "granularity": rule.effective_granularity(),
            "partition_tasks": ac.scheduler.partition_tasks_submitted,
            "policy": self.policy.describe(),
            "migrations": ac.migrations,
        }
        if extras["granularity"] == "partition":
            # The partition-grain analogs, for every rule that ran at
            # partition granularity (not just the partition-only ones).
            extras["partitions_tracked"] = len(ac.stat.partitions)
            extras["max_partition_staleness_seen"] = max(
                (row.last_staleness for row in ac.stat.partitions.values()),
                default=0,
            )
        if len(ac.history):
            # Per-channel HIST byte accounting (Section 4.3's second
            # pillar): what server-side history this run kept, and what
            # it cost.
            extras["history"] = ac.history.accounting()
            extras["history_bytes"] = ac.history.total_stored_bytes
        if faults is not None:
            extras["fault_plan"] = self.fault_plan.describe()
            extras["fault_events"] = faults.fired
            extras["fault_events_suppressed"] = faults.suppressed
            extras["faults"] = faults.log
        if self.snapshots is not None:
            extras["snapshots_written"] = self.snapshots.written
        if full is not None:
            extras["resumed_from_update"] = int(full["updates"])
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
            w=w,
            trace=trace,
            updates=updates,
            elapsed_ms=end_ms,
            rounds=rounds,
            algorithm=rule.algorithm_label(),
            metrics=opt._metrics_window(metrics_start),
            extras=extras,
        )
