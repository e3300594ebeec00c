"""Benchmark harness: one driver per table/figure of the paper."""

from repro.bench.harness import ExperimentResult, run_api_experiment
from repro.bench import figures

__all__ = ["ExperimentResult", "run_api_experiment", "figures"]
