"""One run -> :class:`ExperimentResult`, what the paper's claims read.

A cell is a plain :class:`repro.api.ExperimentSpec`; the result keeps its
error series, wait time and byte counters in a form that round-trips
through the sweep checkpoint (``runner="bench"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.spec import ExperimentSpec
from repro.errors import ReproError
from repro.metrics.wait_time import average_wait_ms

__all__ = ["ExperimentResult", "run_api_experiment"]


@dataclass
class ExperimentResult:
    """Summary of one run: what a claim's ``measure`` reads."""

    spec: ExperimentSpec
    final_error: float
    initial_error: float
    elapsed_ms: float
    updates: int
    rounds: int
    avg_wait_ms: float
    #: (time_ms, error) pairs — one plotted line.
    error_series: list[tuple[float, float]] = field(default_factory=list)
    total_task_bytes: int = 0
    total_fetch_bytes: int = 0
    extras: dict = field(default_factory=dict)

    def time_to_error(self, target: float) -> float:
        """First time (ms) the error series reaches ``target``."""
        for t, e in self.error_series:
            if e <= target:
                return t
        return math.inf

    def relative_target(self, rel: float) -> float:
        return self.initial_error * rel

    # -- checkpoint serialization ------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form for processes, hosts and the sweep checkpoint
        (non-scalar extras stay behind)."""
        return {
            "spec": self.spec.to_dict(),
            "final_error": float(self.final_error),
            "initial_error": float(self.initial_error),
            "elapsed_ms": float(self.elapsed_ms),
            "updates": int(self.updates),
            "rounds": int(self.rounds),
            "avg_wait_ms": float(self.avg_wait_ms),
            "error_series": [[float(t), float(e)] for t, e in self.error_series],
            "total_task_bytes": int(self.total_task_bytes),
            "total_fetch_bytes": int(self.total_fetch_bytes),
            "extras": {
                k: v for k, v in self.extras.items()
                if isinstance(v, (bool, int, float, str))
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from its wire / checkpoint form.

        ``error_series`` is required: a ``run_grid`` summary checkpoint
        has the same format and keys but no series, and restoring one
        must fail loudly, not yield empty convergence curves.
        """
        if "error_series" not in data:
            raise ReproError(
                "checkpoint row is not a bench ExperimentResult (no "
                "'error_series'); run_grid summary checkpoints are not "
                "interchangeable with bench checkpoints"
            )
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            final_error=data["final_error"],
            initial_error=data["initial_error"],
            elapsed_ms=data["elapsed_ms"],
            updates=data["updates"],
            rounds=data["rounds"],
            avg_wait_ms=data["avg_wait_ms"],
            error_series=[(t, e) for t, e in data["error_series"]],
            total_task_bytes=data.get("total_task_bytes", 0),
            total_fetch_bytes=data.get("total_fetch_bytes", 0),
            extras=dict(data.get("extras", {})),
        )


def run_api_experiment(spec) -> ExperimentResult:
    """Run one cell (a spec or its dict form) on a fresh simulated
    cluster, through the per-process cache of datasets and optima."""
    from repro.api.parallel import prepare_shared

    prep = prepare_shared(spec)
    problem = prep.problem
    with prep.make_context() as ctx:
        result = prep.run_in(ctx)

        errors = result.trace.errors(problem)
        series = list(zip(result.trace.times_ms, errors.tolist()))
        return ExperimentResult(
            spec=prep.spec,
            final_error=float(problem.error(result.w)),
            initial_error=float(problem.initial_error()),
            elapsed_ms=result.elapsed_ms,
            updates=result.updates,
            rounds=result.rounds,
            avg_wait_ms=average_wait_ms(result.metrics),
            error_series=series,
            total_task_bytes=(
                ctx.dispatcher.total_in_bytes + ctx.dispatcher.total_out_bytes
            ),
            total_fetch_bytes=ctx.dispatcher.total_fetch_bytes,
            extras=dict(result.extras),
        )
