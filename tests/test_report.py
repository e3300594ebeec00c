"""Result export: CSV and JSON serialization."""

import csv
import io
import json
import math

import numpy as np
import pytest

from repro.cluster.backend import TaskMetrics
from repro.metrics.report import (
    error_series_to_csv,
    figure_to_csv,
    metrics_to_csv,
    to_json,
)


def test_error_series_csv_roundtrip(tmp_path):
    series = {"sync": [(0.0, 1.0), (10.0, 0.5)], "async": [(0.0, 1.0)]}
    path = tmp_path / "series.csv"
    error_series_to_csv(series, path)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 3
    assert rows[0]["series"] == "sync"
    assert float(rows[1]["error"]) == 0.5


def test_figure_csv(tmp_path):
    fig = {"headers": ["a", "b"], "rows": [[1, 2], [3, 4]]}
    buf = io.StringIO()
    figure_to_csv(fig, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[2] == "3,4"


def test_figure_csv_validates():
    with pytest.raises(ValueError):
        figure_to_csv({"rows": []}, io.StringIO())


def test_metrics_csv(tmp_path):
    ms = [TaskMetrics(task_id=1, worker_id=2, job_id=3, compute_ms=4.5)]
    buf = io.StringIO()
    metrics_to_csv(ms, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert rows[0]["task_id"] == "1"
    assert rows[0]["worker_id"] == "2"
    assert float(rows[0]["compute_ms"]) == 4.5


def test_to_json_numpy_and_dataclasses(tmp_path):
    m = TaskMetrics(task_id=1, worker_id=0)
    payload = {
        "w": np.arange(3.0),
        "metrics": [m],
        "count": np.int64(7),
        "loss": np.float64(0.25),
        "nested": {"ok": True, "none": None},
    }
    text = to_json(payload)
    back = json.loads(text)
    assert back["w"] == [0.0, 1.0, 2.0]
    assert back["metrics"][0]["task_id"] == 1
    assert back["count"] == 7
    assert back["nested"]["none"] is None

    path = tmp_path / "out.json"
    to_json(payload, path)
    assert json.loads(path.read_text())["loss"] == 0.25


def test_to_json_handles_inf():
    text = to_json({"t": math.inf})
    assert "Infinity" in text


def test_to_json_fallback_repr():
    class Weird:
        def __repr__(self):
            return "<weird>"

    assert json.loads(to_json({"x": Weird()}))["x"] == "<weird>"


def test_export_real_experiment(tmp_path):
    """End-to-end: run a tiny cell and export everything."""
    from repro.bench.figures import PAPER_CELL
    from repro.bench.harness import run_api_experiment

    res = run_api_experiment(PAPER_CELL.with_overrides(
        dataset="tiny_dense", num_workers=2, num_partitions=4,
        max_updates=6,
    ))
    error_series_to_csv({"sgd": res.error_series}, tmp_path / "s.csv")
    to_json({"final_error": res.final_error, "spec": res.spec},
            tmp_path / "r.json")
    assert (tmp_path / "s.csv").exists()
    back = json.loads((tmp_path / "r.json").read_text())
    assert back["spec"]["algorithm"] == "sgd"
