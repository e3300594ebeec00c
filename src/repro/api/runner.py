"""Execute :class:`ExperimentSpec`s: spec -> components -> RunResult.

``run_experiment(spec)`` is the one-call entry point: it materializes the
dataset, resolves every component through the registries, runs the
optimizer on a fresh simulated cluster, and returns the optimizer's
:class:`~repro.optim.base.RunResult` — identical, update for update, to
what the hand-wired object API produces for the same configuration.

``prepare_experiment`` exposes the intermediate
:class:`PreparedExperiment` for callers that need to own the cluster
context, and :func:`summarize` turns a run into its one cell record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.api.registry import OPTIMIZERS, PROBLEMS, STEPS
from repro.api.spec import ExperimentSpec, GridSpec
from repro.cluster.cost import AnalyticCostModel
from repro.cluster.faultplan import FaultPlan, resolve_fault_plan
from repro.cluster.network import NetworkModel
from repro.cluster.stragglers import DelayModel, resolve_delay_model
from repro.comm.manager import CommManager
from repro.core.policies import SchedulingPolicy, resolve_policy
from repro.data.blocks import Csr
from repro.data.registry import get_dataset
from repro.engine.context import ClusterContext
from repro.errors import ApiError
from repro.metrics.wait_time import average_wait_ms
from repro.optim.base import (
    DistributedOptimizer,
    OptimizerConfig,
    RunResult,
    build_optimizer,
)
from repro.optim.loop import BulkSynchronous
from repro.optim.problems import Problem
from repro.optim.stepsize import StepSchedule

__all__ = [
    "PreparedExperiment",
    "prepare_experiment",
    "run_experiment",
    "run_grid",
    "summarize",
    "is_record",
    "RECORD_FIELDS",
    "default_step",
    "component_key",
]

_SAGA_FAMILY = {"saga", "asaga"}
_CONSTANT_FAMILY = {
    "saga", "asaga", "svrg", "asvrg",
    # L-BFGS directions are gamma-scaled (the two-loop's H0), so the
    # schedule stays constant; decay would fight the metric.
    "async_lbfgs",
}


def default_step(
    algorithm: str,
    alpha0: float,
    num_workers: int,
    staleness_adaptive: bool = False,
) -> StepSchedule:
    """The paper's per-algorithm tuning (Section 6.1) as a factory.

    SGD variants decay by ``1/sqrt(t)``; variance-reduced methods (and
    async L-BFGS) use a constant step. A registered optimizer outside those
    families (a user extension) falls back to the ``1/sqrt(t)`` decay —
    pass an explicit ``step`` spec to override. Asynchronous methods
    either divide the synchronous step by the worker count (the paper's
    heuristic) or, with ``staleness_adaptive``, modulate by
    ``1/staleness`` (Listing 1 / Zhang et al. [72]) — the modulation
    *replaces* the 1/P division: in steady state a P-worker cluster
    delivers results with staleness ~P-1, so stacking both would
    double-damp every update.
    """
    from repro.optim.stepsize import ConstantStep, InvSqrtDecay, StalenessScaled

    # OPTIMIZERS.get raises ApiError for unknown names.
    synchronous = issubclass(OPTIMIZERS.get(algorithm), BulkSynchronous)
    algorithm = OPTIMIZERS.canonical(algorithm)  # family sets hold canon names
    if algorithm in _CONSTANT_FAMILY:
        step: StepSchedule = ConstantStep(alpha0)
    else:
        step = InvSqrtDecay(alpha0)
    if not synchronous:
        if staleness_adaptive:
            step = StalenessScaled(step)
        else:
            step = step.scaled_for_async(num_workers)
    return step


@dataclass
class PreparedExperiment:
    """Every component of a spec, resolved and ready to run."""

    spec: ExperimentSpec
    X: Any
    y: np.ndarray
    problem: Problem
    config: OptimizerConfig
    step: StepSchedule
    #: The resolved scheduling policy (``None`` -> optimizer default).
    policy: SchedulingPolicy | None
    delay_model: DelayModel
    cost_model: AnalyticCostModel | None
    network: NetworkModel | None
    num_partitions: int
    #: The resolved fault-injection plan (``None`` = no faults).
    fault_plan: FaultPlan | None = None
    #: A loaded run snapshot to resume from (spec ``restore_from``).
    restore_state: dict | None = None
    #: The run's COMM subsystem (spec ``compressor``; ``None`` = none).
    comm: CommManager | None = None

    def make_context(self) -> ClusterContext:
        """A fresh simulated cluster per the spec (use as context manager)."""
        return ClusterContext(
            self.spec.num_workers,
            cost_model=self.cost_model,
            network=self.network,
            delay_model=self.delay_model,
        )

    def make_optimizer(self, ctx: ClusterContext, points) -> DistributedOptimizer:
        """Instantiate the registered optimizer on an open context."""
        opt = build_optimizer(
            self.spec.algorithm, ctx, points, self.problem, self.step,
            self.config, policy=self.policy, **(self.spec.params or {}),
        )
        # The server loop picks these up from its host optimizer, so
        # crash recovery and fault injection ride any construction path.
        if self.fault_plan is not None:
            opt.fault_plan = self.fault_plan
        if self.restore_state is not None:
            opt.restore_state = self.restore_state
        if self.comm is not None:
            opt.comm = self.comm
        return opt

    def run_in(self, ctx: ClusterContext) -> RunResult:
        """Partition the data and run the optimizer on an open context."""
        points = ctx.matrix(self.X, self.y, self.num_partitions).cache()
        return self.make_optimizer(ctx, points).run()

    def execute(self) -> RunResult:
        """Run on a fresh cluster (context opened and closed internally)."""
        with self.make_context() as ctx:
            return self.run_in(ctx)


def prepare_experiment(
    spec: ExperimentSpec | Mapping[str, Any],
    *,
    _dataset: tuple | None = None,
    _problem: Problem | None = None,
) -> PreparedExperiment:
    """Resolve a spec's components without running anything.

    ``_dataset`` / ``_problem`` let ``run_grid`` pass pre-built shared
    components so sweep cells with the same (dataset, seed, problem)
    don't re-synthesize data or re-solve the reference optimum; problems
    and data are read-only during runs, so sharing is safe.
    """
    spec = ExperimentSpec.coerce(spec)
    X, y, dspec = _dataset or get_dataset(spec.dataset, seed=spec.seed)
    problem = _problem or PROBLEMS.create(
        spec.problem, defaults={"X": X, "y": y}, expect=Problem
    )
    algo = OPTIMIZERS.canonical(spec.algorithm)  # family sets hold canon names

    if spec.batch_fraction is not None:
        b = spec.batch_fraction
    elif algo in _SAGA_FAMILY:
        b = dspec.b_saga
    else:
        b = dspec.b_sgd

    if spec.step is not None:
        if spec.alpha0 is not None or spec.staleness_adaptive:
            raise ApiError(
                "'step' replaces the default schedule entirely; drop "
                "'alpha0'/'staleness_adaptive' (fold them into the step "
                "spec) or remove 'step'"
            )
        step = STEPS.create(
            spec.step,
            defaults={"num_workers": spec.num_workers},
            expect=StepSchedule,
        )
    else:
        alpha0 = spec.alpha0
        if alpha0 is None:
            alpha0 = (
                dspec.alpha_saga if algo in _SAGA_FAMILY else dspec.alpha_sgd
            )
        step = default_step(
            spec.algorithm, alpha0, spec.num_workers, spec.staleness_adaptive
        )

    async_only = [
        name for name, is_set in (
            ("policy", spec.policy is not None),
            ("granularity", spec.granularity != "worker"),
            ("compressor", spec.compressor is not None),
        ) if is_set
    ]
    if async_only and issubclass(
        OPTIMIZERS.get(spec.algorithm), BulkSynchronous
    ):
        raise ApiError(
            f"{' / '.join(async_only)} has no effect on the synchronous "
            f"optimizer {spec.algorithm!r} (each round dispatches every "
            "partition and waits for all of them); drop it or use an "
            "asynchronous variant"
        )
    policy = None if spec.policy is None else resolve_policy(spec.policy)
    fault_plan = resolve_fault_plan(
        spec.fault_plan, num_workers=spec.num_workers, seed=spec.seed
    )
    comm = CommManager.coerce(spec.compressor)
    num_partitions = spec.num_partitions or 2 * spec.num_workers
    restore_state = None
    if spec.restore_from is not None:
        from repro.core.snapshots import read_snapshot

        restore_state = read_snapshot(spec.restore_from)
    delay = resolve_delay_model(
        spec.delay, num_workers=spec.num_workers, seed=spec.seed
    )
    try:
        config = OptimizerConfig(
            batch_fraction=b,
            max_updates=spec.max_updates,
            eval_every=spec.eval_every,
            seed=spec.seed,
            pipeline_depth=spec.pipeline_depth,
            granularity=spec.granularity,
            snapshot_every=spec.snapshot_every,
            snapshot_path=spec.snapshot_path,
        )
    except (TypeError, ValueError) as exc:
        # OptimError (bad values) is already a ReproError; this catches
        # wrong-typed JSON like {"max_updates": "50"}.
        raise ApiError(f"bad run parameters: {exc}") from exc
    try:
        cost_model = (
            None if spec.cost is None else AnalyticCostModel(**spec.cost)
        )
        network = (
            None if spec.network is None else NetworkModel(**spec.network)
        )
    except (TypeError, ValueError) as exc:
        raise ApiError(f"bad cost/network parameters: {exc}") from exc
    return PreparedExperiment(
        spec=spec,
        X=X,
        y=y,
        problem=problem,
        config=config,
        step=step,
        policy=policy,
        delay_model=delay,
        cost_model=cost_model,
        network=network,
        num_partitions=num_partitions,
        fault_plan=fault_plan,
        restore_state=restore_state,
        comm=comm,
    )


def run_experiment(spec: ExperimentSpec | Mapping[str, Any]) -> RunResult:
    """Run one spec on a fresh simulated cluster; return its RunResult."""
    return prepare_experiment(spec).execute()


#: The fields of a cell record, in :func:`summarize`'s order.
RECORD_FIELDS = (
    "spec", "algorithm", "final_error", "initial_error", "updates",
    "rounds", "elapsed_ms", "avg_wait_ms", "error_series",
    "total_task_bytes", "total_fetch_bytes", "extras",
)


def summarize(prep: PreparedExperiment, result: RunResult) -> dict:
    """One run's cell record: JSON-safe, and what every consumer reads.

    The CLI prints and saves it, a sweep checkpoints it, and a claim
    reads it through :class:`~repro.bench.harness.ExperimentResult`:
    the spec, errors, counters, the ``(time_ms, error)`` series at
    ``eval_every``, the context's byte totals and the scalar
    ``extras``. Series points are lists, so a record equals its own
    JSON round trip (a fabric worker's or a restored line).
    """
    problem = prep.problem
    return {
        "spec": prep.spec.to_dict(),
        "algorithm": result.algorithm,
        "final_error": float(problem.error(result.w)),
        "initial_error": float(problem.initial_error()),
        "updates": result.updates,
        "rounds": result.rounds,
        "elapsed_ms": float(result.elapsed_ms),
        "avg_wait_ms": float(average_wait_ms(result.metrics)),
        "error_series": [
            [float(t), float(e)]
            for t, e in result.trace.error_series(problem)
        ],
        "total_task_bytes": int(result.total_task_bytes),
        "total_fetch_bytes": int(result.total_fetch_bytes),
        "extras": {
            k: v for k, v in result.extras.items()
            if isinstance(v, (bool, int, float, str))
        },
    }


def is_record(value: Any) -> bool:
    """Whether a recorded checkpoint line holds a whole cell record.

    Resume reuses only such lines; anything else (a torn or foreign
    value, a line an older version wrote without some field) re-runs
    its cell.
    """
    return isinstance(value, dict) and all(f in value for f in RECORD_FIELDS)


def _array_digest(value: Any) -> str:
    """Content fingerprint of an array/CSR matrix (shape alone would
    alias e.g. two same-sized problems with different labels)."""
    digest = hashlib.sha1()
    if hasattr(value, "tobytes"):
        parts = [value]
    elif hasattr(value, "indptr"):  # CSR: hash the raw triplet
        parts = [value.data, value.indices, value.indptr]
    else:
        return "?"
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()[:16]


def _stable_value(value: Any) -> Any:
    """A JSON-representable, process-independent stand-in for a value."""
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    shape = getattr(value, "shape", None)
    if shape is not None:
        # A Csr keys as the scipy matrix it replaced: keys stay resumable.
        name = "csr_matrix" if type(value) is Csr else type(value).__name__
        return f"<{name} shape={tuple(shape)} sha1={_array_digest(value)}>"
    if isinstance(value, (list, tuple)):
        return [_stable_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _stable_value(v) for k, v in value.items()}
    return f"<{type(value).__name__}>"


def component_key(spec: Any) -> str:
    """A stable cache key for a component spec (str, dict, or instance).

    Strings key as themselves and dicts as sorted JSON. An already-built
    instance keys as its class path plus its sorted public state —
    ``id()`` would be meaningless across processes and sessions, which is
    exactly where the sweep engine and checkpoint files need the key to
    hold. ``cached_property`` slots are excluded: they materialize lazily
    (``w_star``/``f_star`` appear mid-sweep) and would otherwise change
    an instance's identity after first use.
    """
    if isinstance(spec, str):
        return spec
    if isinstance(spec, Mapping):
        return json.dumps(spec, sort_keys=True, default=repr)
    cls = type(spec)
    cached = {
        name
        for klass in cls.__mro__
        for name, attr in vars(klass).items()
        if isinstance(attr, cached_property)
    }
    state = getattr(spec, "__dict__", None)
    if state is None:  # __slots__-only classes
        state = {
            name: getattr(spec, name)
            for klass in cls.__mro__
            for name in getattr(klass, "__slots__", ())
            if hasattr(spec, name)
        }
    public = {
        name: _stable_value(value)
        for name, value in state.items()
        if not name.startswith("_") and name not in cached
    }
    return (
        f"{cls.__module__}.{cls.__qualname__}"
        f"({json.dumps(public, sort_keys=True, default=repr)})"
    )


def run_grid(
    grid: GridSpec | ExperimentSpec | Mapping[str, Any],
    progress=None,
    *,
    jobs: int = 1,
    checkpoint: Any = None,
    resume: bool = False,
    fabric: Any = None,
) -> list[dict]:
    """Run every cell of a sweep; returns one summary dict per cell.

    Delegates to the sweep engine in :mod:`repro.api.parallel`:

    - ``jobs`` — worker processes (``1`` = in-process serial, ``<= 0`` =
      one per core): ``N`` workers of the sweep fabric
      (:mod:`repro.fabric`), forked from this process. Serial and
      parallel runs produce identical summary lists in grid-expansion
      order; a failing cell raises its own error in-process and a
      :class:`~repro.errors.FabricError` quoting it from workers.
    - ``checkpoint`` — JSONL path appended to as each cell finishes, so
      an interrupted sweep keeps its partial results.
    - ``resume`` — skip cells already recorded in the checkpoint.
    - ``fabric`` — the fabric's options spelled out, in place of
      ``jobs``: ``"local:4"``, a port or ``"host:port"`` to serve on so
      ``sweep-worker`` processes on other hosts can join, or an options
      dict (``local_workers``, ``lease_ttl``, ...).

    ``progress``, if given, is called as ``progress(k, total, summary)``
    as each cell completes (the CLI uses it to print one line per run).
    """
    from repro.api.parallel import run_sweep_cells

    return run_sweep_cells(
        GridSpec.coerce(grid).expand(), progress=progress, jobs=jobs,
        checkpoint=checkpoint, resume=resume, fabric=fabric,
    )
