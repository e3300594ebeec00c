"""Benchmark layer: the paper's claims (:mod:`repro.bench.claims`, run by
``python -m repro figures``) over one-run summaries (:mod:`repro.bench.harness`)."""

from repro.bench.harness import ExperimentResult, run_api_experiment

__all__ = ["ExperimentResult", "run_api_experiment"]
