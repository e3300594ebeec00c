"""Task compute-time models for the simulation backend.

A task advertises its work volume in abstract ``cost_units`` (the engine
uses "rows touched" for dense blocks and "nnz touched" for sparse blocks).
The cost model converts units to milliseconds; the straggler delay model
then multiplies the result.

Two models are provided:

- :class:`AnalyticCostModel` — deterministic affine model with optional
  relative noise; the default for benchmarks because it makes experiments
  bit-reproducible and independent of host load.
- :class:`MeasuredCostModel` — charges the *actual* wall time the task's
  closure took to execute, scaled by a calibration factor. Useful to
  sanity-check that the analytic model's shape matches reality.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TaskCostModel", "AnalyticCostModel", "MeasuredCostModel",
    "CodecCostModel",
]


class TaskCostModel(ABC):
    """Maps a task's advertised work volume to compute milliseconds."""

    #: Whether :meth:`compute_ms` may draw from its ``rng``. A model that
    #: never draws is handed ``None`` and the backend seeds no stream.
    draws_rng = True

    @abstractmethod
    def compute_ms(
        self,
        cost_units: float,
        *,
        measured_ms: float,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Return compute duration in ms for a task.

        ``measured_ms`` is the real wall time the closure took; analytic
        models ignore it.
        """


@dataclass
class AnalyticCostModel(TaskCostModel):
    """``duration = overhead + units * ms_per_unit`` with relative noise.

    Defaults are calibrated so a mini-batch gradient over ~1e4 rows costs a
    few ms, giving virtual timelines in the same ballpark as the paper's
    millisecond-scale wait times.
    """

    overhead_ms: float = 1.0
    ms_per_unit: float = 1e-3
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.overhead_ms < 0 or self.ms_per_unit < 0:
            raise ValueError("cost parameters must be >= 0")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")

    @property
    def draws_rng(self) -> bool:
        return bool(self.noise)

    def compute_ms(
        self,
        cost_units: float,
        *,
        measured_ms: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> float:
        base = self.overhead_ms + cost_units * self.ms_per_unit
        if self.noise and rng is not None:
            factor = float(np.exp(rng.normal(0.0, self.noise)))
            factor = min(max(factor, 0.25), 4.0)
            return base * factor
        return base


@dataclass
class MeasuredCostModel(TaskCostModel):
    """Charge real execution time, scaled.

    ``scale`` > 1 stretches the virtual timeline so queueing effects remain
    visible even when the python closure is very fast.
    """

    scale: float = 1.0
    floor_ms: float = 0.05
    draws_rng = False

    def compute_ms(
        self,
        cost_units: float,
        *,
        measured_ms: float,
        rng: np.random.Generator | None = None,
    ) -> float:
        return max(measured_ms * self.scale, self.floor_ms)


@dataclass
class CodecCostModel:
    """Compute price of compressing/decompressing payload bytes.

    Compression is not free: the COMM codec reports
    ``units(bytes_processed)`` extra cost units via
    ``WorkerEnv.record_cost``, which the task cost model converts to
    milliseconds alongside the kernel's own work. The default models a
    ~1 GB/s single-core codec against the engine's default
    ``ms_per_unit`` (1e-3): one unit per ~1 KB processed. ``none``
    payloads are never wrapped, so they pay nothing.
    """

    units_per_byte: float = 1e-3 / 1024.0

    def __post_init__(self) -> None:
        if self.units_per_byte < 0:
            raise ValueError("units_per_byte must be >= 0")

    def units(self, nbytes: int) -> float:
        return float(nbytes) * self.units_per_byte
