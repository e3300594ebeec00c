"""Discrete-event simulation backend semantics."""

import pytest

from repro.cluster.backend import BackendTask
from repro.cluster.cost import AnalyticCostModel
from repro.cluster.network import NetworkModel
from repro.cluster.simbackend import SimBackend
from repro.cluster.stragglers import ControlledDelay
from repro.errors import WorkerLostError


def make_backend(workers=2, overhead=1.0, per_unit=0.0, delay=None,
                 latency=0.5, bandwidth=1e6):
    return SimBackend(
        workers,
        cost_model=AnalyticCostModel(overhead_ms=overhead,
                                     ms_per_unit=per_unit),
        network=NetworkModel(latency_ms=latency,
                             bandwidth_bytes_per_ms=bandwidth),
        delay_model=delay,
    )


def collect_results(backend):
    done = []
    backend.set_completion_callback(
        lambda task, w, v, m, e: done.append((task.task_id, w, v, m, e))
    )
    return done


def test_task_executes_and_delivers():
    b = make_backend()
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: 42), 0)
    b.drain()
    assert len(done) == 1
    tid, w, v, m, e = done[0]
    assert (tid, w, v, e) == (0, 0, 42, None)
    assert m.delivered_ms > 0


def test_virtual_time_advances_by_model():
    # latency 0.5 in + 1.0 compute + 0.5+eps out ≈ 2.0ms
    b = make_backend(overhead=1.0, latency=0.5)
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: None), 0)
    b.drain()
    m = done[0][3]
    assert m.started_ms == pytest.approx(0.5)
    assert m.finished_ms == pytest.approx(1.5)
    assert b.now() == pytest.approx(m.delivered_ms)


def test_fifo_queueing_per_worker():
    b = make_backend(workers=1, overhead=1.0)
    done = collect_results(b)
    for i in range(3):
        b.submit(BackendTask(task_id=i, fn=lambda env: None), 0)
    b.drain()
    starts = [m.started_ms for _, _, _, m, _ in done]
    assert starts == sorted(starts)
    # Serial execution: each starts when the previous finishes.
    assert starts[1] == pytest.approx(done[0][3].finished_ms)


def test_parallel_workers_overlap():
    b = make_backend(workers=2, overhead=10.0)
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: None), 0)
    b.submit(BackendTask(task_id=1, fn=lambda env: None), 1)
    b.drain()
    # Both finish ~at the same virtual time: true parallelism.
    f0, f1 = done[0][3].finished_ms, done[1][3].finished_ms
    assert f0 == pytest.approx(f1)


def test_delay_model_multiplies_compute():
    b = make_backend(workers=2, overhead=10.0,
                     delay=ControlledDelay(1.0, workers=(1,)))
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: None), 0)
    b.submit(BackendTask(task_id=1, fn=lambda env: None), 1)
    b.drain()
    by_worker = {w: m for _, w, _, m, _ in done}
    assert by_worker[1].compute_ms == pytest.approx(
        2 * by_worker[0].compute_ms
    )


def test_cost_units_reported_by_closure():
    b = make_backend(overhead=1.0, per_unit=1.0)
    done = collect_results(b)

    def fn(env):
        env.record_cost(5.0)
        return None

    b.submit(BackendTask(task_id=0, fn=fn, cost_units=1000.0), 0)
    b.drain()
    # Reported 5 units override the static 1000.
    assert done[0][3].compute_ms == pytest.approx(6.0)


def test_static_cost_units_used_when_not_reported():
    b = make_backend(overhead=1.0, per_unit=1.0)
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: None, cost_units=3.0), 0)
    b.drain()
    assert done[0][3].compute_ms == pytest.approx(4.0)


def test_fetch_bytes_add_transfer_time():
    b = make_backend(overhead=1.0, latency=0.5, bandwidth=1000.0)
    done = collect_results(b)

    def fn(env):
        env.record_fetch(1000)  # 0.5 + 1.0 transfer + 0.5 latency back
        return None

    b.submit(BackendTask(task_id=0, fn=fn), 0)
    b.drain()
    m = done[0][3]
    assert m.fetch_bytes == 1000
    assert m.compute_ms == pytest.approx(1.0 + 0.5 + 1.0 + 0.5)


def test_result_bytes_charged_on_return_path():
    b = make_backend(bandwidth=1000.0, latency=0.0)
    done = collect_results(b)
    import numpy as np

    b.submit(BackendTask(task_id=0, fn=lambda env: np.zeros(125)), 0)
    b.drain()
    m = done[0][3]
    assert m.out_bytes >= 1000
    assert m.delivered_ms - m.finished_ms >= 1.0


def test_exception_forwarded_not_raised():
    b = make_backend()
    done = collect_results(b)

    def boom(env):
        raise ValueError("bad closure")

    b.submit(BackendTask(task_id=0, fn=boom), 0)
    b.drain()
    assert isinstance(done[0][4], ValueError)


def test_run_until_stops_at_predicate():
    b = make_backend(workers=1, overhead=1.0)
    done = collect_results(b)
    for i in range(5):
        b.submit(BackendTask(task_id=i, fn=lambda env: None), 0)
    assert b.run_until(lambda: len(done) >= 2)
    assert len(done) == 2
    b.drain()
    assert len(done) == 5


def test_run_until_unreachable_returns_false():
    b = make_backend()
    collect_results(b)
    assert not b.run_until(lambda: False)


def test_kill_worker_errors_inflight_tasks():
    b = make_backend(workers=2, overhead=100.0)
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: 1), 0)
    b.submit(BackendTask(task_id=1, fn=lambda env: 1), 1)
    b.kill_worker(0)
    b.drain()
    by_tid = {tid: e for tid, _, _, _, e in done}
    assert isinstance(by_tid[0], WorkerLostError)
    assert by_tid[1] is None


def test_killed_worker_rejects_new_tasks_with_error():
    b = make_backend()
    done = collect_results(b)
    b.kill_worker(0)
    b.submit(BackendTask(task_id=0, fn=lambda env: 1), 0)
    b.drain()
    assert isinstance(done[0][4], WorkerLostError)


def test_kill_clears_worker_env():
    b = make_backend()
    collect_results(b)
    b.worker_env(0).put("k", 1)
    b.kill_worker(0)
    assert b.worker_env(0).get("k") is None


def test_revive_worker_accepts_tasks_again():
    b = make_backend()
    done = collect_results(b)
    b.kill_worker(0)
    b.revive_worker(0)
    b.submit(BackendTask(task_id=0, fn=lambda env: "ok"), 0)
    b.drain()
    assert done[-1][2] == "ok"
    assert done[-1][4] is None


def test_revive_of_a_live_worker_is_a_no_op():
    """Reviving a live worker used to reset its slot to "free now", so the
    next task overlapped the one still running there."""
    b = SimBackend(2)  # 0.25 ms latency, 1 ms + 1 us per unit
    done = collect_results(b)
    b.submit(BackendTask(task_id=0, fn=lambda env: None, cost_units=5000.0), 0)
    b.step()  # the task arrives at 0.25 ms and runs to 6.25 ms
    epoch = b.members_epoch
    b.revive_worker(0)
    assert b.members_epoch == epoch
    b.submit(BackendTask(task_id=1, fn=lambda env: None), 0)
    b.drain()
    first, second = (m for _, _, _, m, _ in sorted(done, key=lambda d: d[0]))
    assert (first.started_ms, first.finished_ms) == (0.25, 6.25)
    assert second.started_ms == first.finished_ms


def test_env_state_persists_across_tasks():
    b = make_backend()
    done = collect_results(b)

    def writer(env):
        env.put("x", 41)

    def reader(env):
        return env.get("x") + 1

    b.submit(BackendTask(task_id=0, fn=writer), 0)
    b.drain()
    b.submit(BackendTask(task_id=1, fn=reader), 0)
    b.drain()
    assert done[1][2] == 42


def test_submit_out_of_range_worker():
    b = make_backend(workers=2)
    with pytest.raises(ValueError):
        b.submit(BackendTask(task_id=0, fn=lambda env: None), 7)


def test_deterministic_timeline_under_seed():
    def timeline():
        b = make_backend(workers=3, overhead=2.0, per_unit=0.1)
        done = collect_results(b)
        for i in range(12):
            b.submit(
                BackendTask(task_id=i, fn=lambda env: None,
                            cost_units=float(i)),
                i % 3,
            )
        b.drain()
        return [(tid, m.delivered_ms) for tid, _, _, m, _ in done]

    assert timeline() == timeline()
