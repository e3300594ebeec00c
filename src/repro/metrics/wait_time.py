"""Per-worker wait-time extraction (Figures 4 & 6, Table 3).

The paper defines wait time as "the time from when a worker submits its
task result to the server until it receives a new task". From the task
metrics log that is, per worker: the gap between a task's delivery and
the start of the worker's next task.

Synchronous jobs run several queued tasks per worker per iteration (one
per local partition); the intra-iteration gaps are scheduling noise, so
consecutive tasks belonging to the *same job* are merged and only
job-to-job gaps count — matching the paper's per-iteration accounting.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean
from typing import Iterable

from repro.cluster.backend import TaskMetrics

__all__ = ["per_worker_waits", "average_wait_ms"]


def _job_spans(
    records: list[TaskMetrics],
) -> list[tuple[float, float]]:
    """Collapse a worker's task records into per-job (start, delivered)."""
    spans: list[tuple[float, float]] = []
    current_job: int | None = None
    start = 0.0
    end = 0.0
    for m in sorted(records, key=lambda m: (m.started_ms, m.task_id)):
        if current_job is None or m.job_id != current_job:
            if current_job is not None:
                spans.append((start, end))
            current_job = m.job_id
            start = m.started_ms
            end = m.delivered_ms
        else:
            end = max(end, m.delivered_ms)
    if current_job is not None:
        spans.append((start, end))
    return spans


def per_worker_waits(
    metrics: Iterable[TaskMetrics],
) -> dict[int, list[float]]:
    """Wait events per worker: gap between a job's delivery and the next
    job's start on the same worker (clamped at zero)."""
    by_worker: dict[int, list[TaskMetrics]] = defaultdict(list)
    for m in metrics:
        if m.task_id < 0:  # synthetic worker-loss notifications
            continue
        by_worker[m.worker_id].append(m)
    waits: dict[int, list[float]] = {}
    for worker, records in by_worker.items():
        spans = _job_spans(records)
        gaps = [
            max(spans[i + 1][0] - spans[i][1], 0.0)
            for i in range(len(spans) - 1)
        ]
        waits[worker] = gaps
    return waits


def average_wait_ms(metrics: Iterable[TaskMetrics]) -> float:
    """Mean wait over all workers and iterations (a Table 3 cell)."""
    waits = per_worker_waits(metrics)
    all_gaps = [g for gaps in waits.values() for g in gaps]
    return fmean(all_gaps) if all_gaps else 0.0

