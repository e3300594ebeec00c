"""Experiment result export: CSV / JSON for downstream plotting.

Claim tables (:mod:`repro.bench.claims`), error series and raw task
metrics serialize here, so users can regenerate the paper's plots with
their tool of choice. Pure stdlib — no pandas dependency.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import IO, Any, Iterable, Union

from repro.cluster.backend import TaskMetrics

__all__ = [
    "error_series_to_csv",
    "figure_to_csv",
    "metrics_to_csv",
    "to_json",
]

PathOrFile = Union[str, Path, IO[str]]


def _open_w(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", newline="", encoding="utf8"), True
    return target, False


def error_series_to_csv(
    series: dict[str, list[tuple[float, float]]], target: PathOrFile
) -> None:
    """Write labelled (time_ms, error) series as long-format CSV."""
    fh, close = _open_w(target)
    try:
        writer = csv.writer(fh)
        writer.writerow(["series", "time_ms", "error"])
        for label, pairs in series.items():
            for t, e in pairs:
                writer.writerow([label, f"{t:.6f}", f"{e:.10g}"])
    finally:
        if close:
            fh.close()


def figure_to_csv(figure: dict, target: PathOrFile) -> None:
    """Write a ``{"headers": [...], "rows": [[...], ...]}`` table as CSV."""
    if "headers" not in figure or "rows" not in figure:
        raise ValueError("figure dict needs 'headers' and 'rows'")
    fh, close = _open_w(target)
    try:
        writer = csv.writer(fh)
        writer.writerow(figure["headers"])
        for row in figure["rows"]:
            writer.writerow(row)
    finally:
        if close:
            fh.close()


_METRIC_FIELDS = [
    "task_id", "job_id", "worker_id", "submitted_ms", "started_ms",
    "finished_ms", "delivered_ms", "compute_ms", "measured_ms",
    "delay_factor", "in_bytes", "out_bytes", "fetch_bytes",
]


def metrics_to_csv(
    metrics: Iterable[TaskMetrics], target: PathOrFile
) -> None:
    """Dump the raw task trace (one row per task)."""
    fh, close = _open_w(target)
    try:
        writer = csv.writer(fh)
        writer.writerow(_METRIC_FIELDS)
        for m in metrics:
            writer.writerow([getattr(m, f) for f in _METRIC_FIELDS])
    finally:
        if close:
            fh.close()


def _jsonable(obj: Any) -> Any:
    import numpy as np

    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return repr(obj)


def to_json(obj: Any, target: PathOrFile | None = None, indent: int = 2) -> str:
    """Serialize results (dataclasses, numpy, nested dicts) to JSON.

    Returns the JSON text; writes it to ``target`` when given. Non-finite
    floats survive via Python's JSON extension (NaN/Infinity literals).
    """
    text = json.dumps(_jsonable(obj), indent=indent)
    if target is not None:
        fh, close = _open_w(target)
        try:
            fh.write(text)
        finally:
            if close:
                fh.close()
    return text
