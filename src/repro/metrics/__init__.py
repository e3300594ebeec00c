"""Measurement: wait times, convergence comparison, exports, summaries."""

from repro.metrics.convergence import speedup_at_target
from repro.metrics.report import (
    error_series_to_csv,
    figure_to_csv,
    metrics_to_csv,
    to_json,
)
from repro.metrics.wait_time import average_wait_ms, per_worker_waits

__all__ = [
    "per_worker_waits",
    "average_wait_ms",
    "speedup_at_target",
    "error_series_to_csv",
    "figure_to_csv",
    "metrics_to_csv",
    "to_json",
]
