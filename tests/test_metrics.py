"""Metrics: wait times, speedups, trace summaries."""

import math

import numpy as np
import pytest

from repro.cluster.backend import TaskMetrics
from repro.metrics.convergence import common_target, speedup_at_target
from repro.metrics.wait_time import average_wait_ms, per_worker_waits
from repro.optim.trace import ConvergenceTrace


def tm(task_id, worker, job, started, delivered, compute=1.0,
       in_bytes=10, out_bytes=20, fetch=0):
    return TaskMetrics(
        task_id=task_id, worker_id=worker, job_id=job,
        submitted_ms=started - 0.5, started_ms=started,
        finished_ms=delivered - 0.25, delivered_ms=delivered,
        compute_ms=compute, in_bytes=in_bytes, out_bytes=out_bytes,
        fetch_bytes=fetch,
    )


def test_wait_is_gap_between_jobs():
    log = [
        tm(0, 0, job=0, started=0.0, delivered=5.0),
        tm(1, 0, job=1, started=9.0, delivered=14.0),
    ]
    waits = per_worker_waits(log)
    assert waits[0] == [4.0]
    assert average_wait_ms(log) == 4.0


def test_same_job_tasks_merged():
    """Queued tasks of one BSP job on a worker contribute no wait events."""
    log = [
        tm(0, 0, job=0, started=0.0, delivered=1.0),
        tm(1, 0, job=0, started=1.0, delivered=2.0),
        tm(2, 0, job=1, started=10.0, delivered=11.0),
    ]
    waits = per_worker_waits(log)
    assert waits[0] == [8.0]


def test_wait_clamped_at_zero():
    log = [
        tm(0, 0, job=0, started=0.0, delivered=5.0),
        tm(1, 0, job=1, started=4.0, delivered=9.0),  # overlap
    ]
    assert per_worker_waits(log)[0] == [0.0]


def test_waits_are_per_worker():
    log = [
        tm(0, 0, job=0, started=0.0, delivered=2.0),
        tm(1, 1, job=0, started=0.0, delivered=4.0),
        tm(2, 0, job=1, started=6.0, delivered=8.0),
        tm(3, 1, job=1, started=6.0, delivered=8.0),
    ]
    waits = per_worker_waits(log)
    assert waits[0] == [4.0]
    assert waits[1] == [2.0]
    assert average_wait_ms(log) == 3.0


def test_synthetic_loss_records_skipped():
    log = [tm(-1, 0, job=-1, started=0.0, delivered=1.0)]
    assert per_worker_waits(log) == {}
    assert average_wait_ms(log) == 0.0


# -- speedups ------------------------------------------------------------------

def test_waits_order_ties_by_task_id_and_keep_a_jobs_last_delivery():
    """Worked by hand. Worker 0's tasks in start order, ties by task id:
    job 0 is tasks 5, 3, 4, 6 (3 and 4 both start at 1.0), delivered
    out of order, so its span ends at its largest delivery, 7.5; tasks 7
    (job 2) and 8 (job 1) both start at 9.0, so job 2's span (9.0, 10.0)
    comes first and job 1's (9.0, 12.25) second; then job 3 at 13.0.
    Gaps: 9.0 - 7.5, 9.0 - 10.0 clamped, 13.0 - 12.25. The loss row
    (task -1) would open a fourth job-2 span at 9.5 if it counted."""
    log = [
        tm(8, 0, job=1, started=9.0, delivered=12.25),
        tm(6, 0, job=0, started=2.0, delivered=4.0),
        tm(11, 1, job=1, started=2.5, delivered=3.0),
        tm(4, 0, job=0, started=1.0, delivered=2.0),
        tm(-1, 0, job=2, started=9.5, delivered=9.5),
        tm(9, 0, job=3, started=13.0, delivered=14.0),
        tm(3, 0, job=0, started=1.0, delivered=7.5),
        tm(7, 0, job=2, started=9.0, delivered=10.0),
        tm(10, 1, job=0, started=0.0, delivered=1.0),
        tm(5, 0, job=0, started=0.0, delivered=3.0),
    ]
    assert per_worker_waits(log) == {0: [1.5, 0.0, 0.75], 1: [1.5]}
    assert average_wait_ms(log) == 0.9375


def make_trace(problem, times, points):
    tr = ConvergenceTrace()
    for t, w in zip(times, points):
        tr.record(t, int(t), w)
    return tr


def test_speedup_sync_slower(small_problem):
    w0 = small_problem.initial_point()
    w_star = small_problem.w_star
    sync = make_trace(small_problem, [0.0, 100.0], [w0, w_star])
    asyn = make_trace(small_problem, [0.0, 25.0], [w0, w_star])
    sp = speedup_at_target(sync, asyn, small_problem,
                           target=small_problem.error(w0) / 2)
    assert sp == pytest.approx(4.0)


def test_speedup_only_async_reaches():
    import numpy as np

    from repro.data.synthetic import make_dense_regression
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = make_dense_regression(64, 4, seed=0)
    p = LeastSquaresProblem(X, y)
    w0 = p.initial_point()
    sync = make_trace(p, [0.0], [w0])
    asyn = make_trace(p, [0.0, 10.0], [w0, p.w_star])
    assert speedup_at_target(sync, asyn, p, target=p.error(w0) / 10) == math.inf


def test_common_target_reachable_by_both(small_problem):
    w0 = small_problem.initial_point()
    half = 0.5 * (w0 + small_problem.w_star)
    a = make_trace(small_problem, [0.0, 10.0], [w0, half])
    b = make_trace(small_problem, [0.0, 10.0], [w0, small_problem.w_star])
    tgt = common_target(a, b, small_problem)
    assert a.time_to_error(small_problem, tgt) < math.inf
    assert b.time_to_error(small_problem, tgt) < math.inf
