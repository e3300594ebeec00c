"""Real-thread backend: same contract as the simulation, wall-clock time."""

import sys
import threading
import time

import pytest

from repro.cluster.backend import BackendTask
from repro.cluster.stragglers import ControlledDelay
from repro.cluster.threadbackend import ThreadBackend
from repro.errors import BackendError, WorkerLostError


@pytest.fixture
def backend():
    b = ThreadBackend(num_workers=3)
    yield b
    b.shutdown()


def wire(b):
    done = []
    b.set_completion_callback(
        lambda task, w, v, m, e: done.append((task.task_id, w, v, m, e))
    )
    return done


def test_executes_and_delivers(backend):
    done = wire(backend)
    backend.submit(BackendTask(task_id=0, fn=lambda env: 7), 1)
    assert backend.run_until(lambda: len(done) == 1, host_timeout_s=5)
    assert done[0][2] == 7
    assert done[0][1] == 1


def test_many_tasks_all_workers(backend):
    done = wire(backend)
    for i in range(30):
        backend.submit(BackendTask(task_id=i, fn=lambda env: i), i % 3)
    assert backend.run_until(lambda: len(done) == 30, host_timeout_s=10)
    assert backend.pending_count() == 0


def test_tasks_actually_run_on_worker_threads(backend):
    done = wire(backend)
    names = []

    def fn(env):
        names.append(threading.current_thread().name)
        return None

    backend.submit(BackendTask(task_id=0, fn=fn), 2)
    backend.run_until(lambda: len(done) == 1, host_timeout_s=5)
    assert names and names[0].startswith("repro-worker-")


def test_straggler_sleeps():
    b = ThreadBackend(
        num_workers=2,
        delay_model=ControlledDelay(4.0, workers=(0,)),
        min_task_s=0.02,
    )
    try:
        done = wire(b)
        t0 = time.perf_counter()
        b.submit(BackendTask(task_id=0, fn=lambda env: None), 0)
        b.submit(BackendTask(task_id=1, fn=lambda env: None), 1)
        assert b.run_until(lambda: len(done) == 2, host_timeout_s=10)
        by_worker = {w: m for _, w, _, m, _ in done}
        # worker 0 stretched to >= 5x min_task_s, worker 1 ~min_task_s
        assert by_worker[0].compute_ms > by_worker[1].compute_ms * 2
    finally:
        b.shutdown()


def test_exception_forwarded(backend):
    done = wire(backend)

    def boom(env):
        raise RuntimeError("x")

    backend.submit(BackendTask(task_id=0, fn=boom), 0)
    backend.run_until(lambda: len(done) == 1, host_timeout_s=5)
    assert isinstance(done[0][4], RuntimeError)


def test_kill_worker_fails_new_tasks(backend):
    done = wire(backend)
    backend.kill_worker(1)
    backend.submit(BackendTask(task_id=0, fn=lambda env: 1), 1)
    backend.run_until(lambda: len(done) == 1, host_timeout_s=5)
    assert isinstance(done[0][4], WorkerLostError)
    backend.revive_worker(1)
    backend.submit(BackendTask(task_id=1, fn=lambda env: "ok"), 1)
    backend.run_until(lambda: len(done) == 2, host_timeout_s=5)
    assert done[1][2] == "ok"


def test_revive_of_a_live_worker_is_a_no_op(backend):
    epoch = backend.members_epoch
    backend.revive_worker(0)
    assert backend.members_epoch == epoch
    backend.kill_worker(0)
    backend.revive_worker(0)
    assert backend.members_epoch == epoch + 2
    assert backend.worker_env(0).alive


def test_env_counters_lose_no_update_across_threads(backend):
    """The counters' read-modify-write holds the env lock, an ``RLock``
    on this backend: eight threads (more than cores) with a tiny switch
    interval lose no increment."""
    env = backend.worker_env(0)

    def hammer():
        for _ in range(2000):
            env.record_cost(1.0)
            env.record_fetch(1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert env.consume_cost_units() == 16000.0
    assert env.consume_fetch_bytes() == 16000


def test_run_until_timeout_returns_predicate(backend):
    wire(backend)
    slow = BackendTask(task_id=0, fn=lambda env: time.sleep(0.5))
    backend.submit(slow, 0)
    assert not backend.run_until(lambda: False, host_timeout_s=0.05)


def test_submit_after_shutdown_raises():
    b = ThreadBackend(num_workers=1)
    b.shutdown()
    with pytest.raises(BackendError):
        b.submit(BackendTask(task_id=0, fn=lambda env: None), 0)


def test_env_state_persists_across_tasks(backend):
    done = wire(backend)

    def writer(env):
        env.put("x", 41)

    def reader(env):
        return env.get("x") + 1

    backend.submit(BackendTask(task_id=0, fn=writer), 0)
    backend.run_until(lambda: len(done) == 1, host_timeout_s=5)
    backend.submit(BackendTask(task_id=1, fn=reader), 0)
    backend.run_until(lambda: len(done) == 2, host_timeout_s=5)
    assert done[1][2] == 42
