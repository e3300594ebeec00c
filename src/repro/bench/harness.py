"""A read-only view of one cell record: what the paper's claims read.

A cell is a plain :class:`repro.api.ExperimentSpec`, and its record is
the dict :func:`repro.api.parallel.run_cell` returns
(:func:`repro.api.runner.summarize`'s): the same record a grid sweep
checkpoints, so one checkpoint serves grids and claims alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.api.spec import ExperimentSpec

__all__ = ["ExperimentResult"]


@dataclass(frozen=True)
class ExperimentResult:
    """One cell record with its spec decoded: what a claim's ``measure``
    reads. Build it with :meth:`from_dict`."""

    spec: ExperimentSpec
    algorithm: str
    final_error: float
    initial_error: float
    updates: int
    rounds: int
    elapsed_ms: float
    avg_wait_ms: float
    #: ``[time_ms, error]`` pairs — one plotted line.
    error_series: list
    total_task_bytes: int
    total_fetch_bytes: int
    #: The run's scalar extras.
    extras: dict

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ExperimentResult":
        """The view of a record: fresh, from a fabric worker or restored."""
        return cls(**{
            **{f.name: record[f.name] for f in fields(cls)},
            "spec": ExperimentSpec.from_dict(record["spec"]),
        })

    def time_to_error(self, target: float) -> float:
        """First time (ms) the error series reaches ``target``."""
        for t, e in self.error_series:
            if e <= target:
                return t
        return math.inf

    def relative_target(self, rel: float) -> float:
        return self.initial_error * rel
