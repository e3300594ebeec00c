"""Benchmark layer: the paper's claims (:mod:`repro.bench.claims`, run by
``python -m repro figures``) over cell records (:mod:`repro.bench.harness`)."""

from repro.bench.harness import ExperimentResult

__all__ = ["ExperimentResult"]
