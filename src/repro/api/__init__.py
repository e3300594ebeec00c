"""Declarative experiment API: registries, specs, and the spec runner.

Three layers turn experiments into data:

- **Registries** (:mod:`repro.api.registry`) — string-keyed factories for
  optimizers, problems, scheduling policies, step schedules and delay models,
  populated by ``@register_*`` decorators at class-definition sites.
- **Specs** (:mod:`repro.api.spec`) — :class:`ExperimentSpec` (one run,
  JSON round-trippable) and :class:`GridSpec` (a parameter sweep).
- **Runner** (:mod:`repro.api.runner`) — ``run_experiment(spec)``
  resolves a spec through the registries and executes it; ``run_grid``
  sweeps; both power the ``python -m repro`` CLI.
- **Sweep engine** (:mod:`repro.api.parallel`) — ``run_grid(jobs=N)``
  fans independent grid cells across ``N`` forked :mod:`repro.fabric`
  workers with bit-identical summaries, streaming each result to a JSONL
  checkpoint so interrupted sweeps resume where they stopped.

Quickstart::

    from repro.api import run_experiment

    result = run_experiment({
        "algorithm": "asgd",
        "dataset": "mnist8m_like",
        "num_workers": 8,
        "delay": "cds:1.0",
        "max_updates": 200,
    })
    print(result.updates, result.extras["max_staleness_seen"])

This module keeps its eager imports dependency-free (the registry is
imported by core modules during package initialization); the runner —
which pulls in the whole library — loads on first attribute access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.registry import (
    COMPRESSORS,
    DELAY_MODELS,
    OPTIMIZERS,
    POLICIES,
    PROBLEMS,
    STEPS,
    Registry,
    register_compressor,
    register_delay_model,
    register_optimizer,
    register_policy,
    register_problem,
    register_step,
)
from repro.api.spec import ExperimentSpec, GridSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.runner import (  # noqa: F401
        PreparedExperiment,
        default_step,
        prepare_experiment,
        run_experiment,
        run_grid,
        summarize,
    )

__all__ = [
    "Registry",
    "OPTIMIZERS",
    "PROBLEMS",
    "POLICIES",
    "STEPS",
    "DELAY_MODELS",
    "COMPRESSORS",
    "register_optimizer",
    "register_problem",
    "register_policy",
    "register_step",
    "register_delay_model",
    "register_compressor",
    "ExperimentSpec",
    "GridSpec",
    "PreparedExperiment",
    "prepare_experiment",
    "run_experiment",
    "run_grid",
    "summarize",
    "default_step",
    "run_cells",
    "run_key",
    "SweepCheckpoint",
]

_RUNNER_EXPORTS = {
    "PreparedExperiment",
    "prepare_experiment",
    "run_experiment",
    "run_grid",
    "summarize",
    "default_step",
}

_PARALLEL_EXPORTS = {"run_cells", "run_key", "SweepCheckpoint"}


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.api import runner

        return getattr(runner, name)
    if name in _PARALLEL_EXPORTS:
        from repro.api import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
