"""Dispatcher routing, metrics retention and the task-local context channel."""

import numpy as np
import pytest

from repro.api.runner import run_experiment
from repro.cluster.backend import TaskMetrics
from repro.cluster.simbackend import SimBackend
from repro.engine.dispatch import Dispatcher, MetricsLog
from repro.engine.taskcontext import (
    current_env,
    record_cost,
    record_fetch,
    task_env,
)
from repro.errors import ReproError


@pytest.fixture
def setup():
    backend = SimBackend(2, seed=0)
    return backend, Dispatcher(backend)


def test_continuations_routed_per_task(setup):
    backend, disp = setup
    got = {}

    def make_cont(tag):
        def cont(task_id, worker_id, value, metrics, error):
            got[tag] = (value, error)
        return cont

    disp.submit(lambda env: "a", 0, on_complete=make_cont("A"))
    disp.submit(lambda env: "b", 1, on_complete=make_cont("B"))
    backend.drain()
    assert got == {"A": ("a", None), "B": ("b", None)}
    assert disp.outstanding() == 0


def test_job_ids_assigned_and_logged(setup):
    backend, disp = setup
    jid = disp.new_job_id()
    disp.submit(lambda env: 1, 0, on_complete=lambda *a: None, job_id=jid)
    disp.submit(lambda env: 2, 1, on_complete=lambda *a: None, job_id=jid)
    disp.submit(lambda env: 3, 0, on_complete=lambda *a: None)  # fresh job
    backend.drain()
    jobs = [m.job_id for m in disp.metrics_log]
    assert jobs.count(jid) == 2
    assert len(set(jobs)) == 2


def test_byte_totals_accumulate(setup):
    backend, disp = setup
    import numpy as np

    disp.submit(lambda env: np.zeros(100), 0,
                on_complete=lambda *a: None, in_bytes=512)
    backend.drain()
    assert disp.total_in_bytes >= 512
    assert disp.total_out_bytes >= 800


def test_errors_forwarded_to_continuation(setup):
    backend, disp = setup
    seen = []

    def boom(env):
        raise KeyError("nope")

    disp.submit(boom, 0, on_complete=lambda *a: seen.append(a[4]))
    backend.drain()
    assert isinstance(seen[0], KeyError)


# -- task context ---------------------------------------------------------------

def test_current_env_outside_task_is_none():
    assert current_env() is None
    record_cost(5.0)   # no-op, must not raise
    record_fetch(100)  # no-op, must not raise


def test_task_env_binds_and_restores(setup):
    backend, _ = setup
    env = backend.worker_env(0)
    with task_env(env):
        assert current_env() is env
        record_cost(3.0)
        record_fetch(64)
    assert current_env() is None
    assert env.consume_cost_units() == 3.0
    assert env.consume_fetch_bytes() == 64


def test_task_env_nesting(setup):
    backend, _ = setup
    e0, e1 = backend.worker_env(0), backend.worker_env(1)
    with task_env(e0):
        with task_env(e1):
            assert current_env() is e1
        assert current_env() is e0


def test_task_env_restored_on_exception(setup):
    backend, _ = setup
    env = backend.worker_env(0)
    with pytest.raises(RuntimeError):
        with task_env(env):
            raise RuntimeError("boom")
    assert current_env() is None


# -- metrics retention ---------------------------------------------------------

def test_metrics_log_window_keeps_global_indexing():
    log = MetricsLog("window:3")
    rows = [TaskMetrics(task_id=i, worker_id=0) for i in range(8)]
    for row in rows:
        log.append(row)
    assert len(log) == 8
    assert log.dropped == 5
    assert list(log) == rows[5:]
    # Global-index slices omit dropped rows; the tail window optimizers
    # take (metrics_log[start:]) stays correct.
    assert log[6:] == rows[6:]
    assert log[0:] == rows[5:]
    assert log[7].task_id == 7
    with pytest.raises(IndexError):
        log[2]


def test_metrics_log_aggregate_mode_keeps_totals_only():
    log = MetricsLog("aggregate")
    for i in range(5):
        m = TaskMetrics(task_id=i, worker_id=0)
        m.compute_ms = 2.0
        m.in_bytes = 10
        log.append(m)
    assert len(log) == 5
    assert list(log) == []
    assert log[0:] == []
    summary = log.summary()
    assert summary["count"] == 5
    assert summary["dropped"] == 5
    assert summary["total_compute_ms"] == 10.0
    assert summary["mean_in_bytes"] == 10.0


def test_metrics_log_rejects_bad_retention():
    with pytest.raises(ReproError):
        MetricsLog("window:0")
    with pytest.raises(ReproError):
        MetricsLog("bogus")


def test_metrics_retention_spec_plumbing():
    """A windowed run bounds the metrics footprint without disturbing
    the trajectory (metrics are observational)."""
    spec = {
        "algorithm": "asgd", "dataset": "synth_logistic",
        "problem": "logistic", "num_workers": 8, "num_partitions": 8,
        "max_updates": 120, "eval_every": 100, "seed": 0,
    }
    res_all = run_experiment(spec)
    res_win = run_experiment({**spec, "metrics_retention": "window:16"})
    assert np.array_equal(res_all.w, res_win.w)
    # measured_ms is wall-clock, so compare identity by task id.
    win_ids = [m.task_id for m in res_win.metrics]
    all_ids = [m.task_id for m in res_all.metrics]
    assert win_ids == all_ids[-len(win_ids):]
    assert 0 < len(list(res_win.metrics)) <= 16 < len(all_ids)
