"""Task compute-time models for the simulation backend.

A task advertises its work volume in abstract ``cost_units`` (the engine
uses "rows touched" for dense blocks and "nnz touched" for sparse blocks).
:class:`AnalyticCostModel` converts units to milliseconds; the straggler
delay model then multiplies the result. A task's duration is a function
of the task alone, so runs are bit-reproducible and independent of host
load. :class:`CodecCostModel` prices COMM's compression work in the same
units.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AnalyticCostModel", "CodecCostModel"]


@dataclass
class AnalyticCostModel:
    """``duration = overhead + units * ms_per_unit``.

    Defaults are calibrated so a mini-batch gradient over ~1e4 rows costs a
    few ms, giving virtual timelines in the same ballpark as the paper's
    millisecond-scale wait times.
    """

    overhead_ms: float = 1.0
    ms_per_unit: float = 1e-3

    def __post_init__(self) -> None:
        if self.overhead_ms < 0 or self.ms_per_unit < 0:
            raise ValueError("cost parameters must be >= 0")

    def compute_ms(self, units: float) -> float:
        """Compute duration in ms of a task that reported ``units``."""
        return self.overhead_ms + units * self.ms_per_unit


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
