"""Fabric service tests: live coordinator + workers, end to end.

The contract under test is the sweep fabric's headline guarantee:
however cells are executed — worker threads, worker subprocesses, a
worker killed mid-lease, a straggler double-reporting a stolen cell —
the checkpoint gains exactly one entry per cell and the summaries are
bit-identical to ``run_grid`` run serially on the same grid.
"""

import contextlib
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import run_experiment, run_grid
from repro.api.parallel import SweepCheckpoint, resolve_runner, run_key
from repro.api.spec import GridSpec
from repro.cluster.threadbackend import ThreadBackend
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.errors import FabricError
from repro.fabric import (
    SweepCoordinator,
    SweepWorker,
    parse_endpoint,
    read_status,
    recv_msg,
    send_msg,
    spawn_local_workers,
    status_path_for,
)
from repro.optim import (
    ConstantStep,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)

# One group (same dataset/seed/problem) so in-process worker *threads*
# share prepare_shared's one-slot cache without thrashing it; real
# deployments use one worker per process.
GRID = {
    "base": {
        "algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 30,
        "eval_every": 10, "seed": 0,
    },
    "grid": {"num_workers": [2, 4], "delay": ["cds:0.4", "cds:0.8"]},
}


def _grid_cells(grid):
    specs = GridSpec.coerce(grid).expand()
    return [(i, run_key(s), s.to_dict()) for i, s in enumerate(specs)]


def _checkpointing(ckpt):
    def on_result(index, key, summary):
        ckpt.append(index, key, summary)

    return on_result


class _FakeClock:
    """The coordinator's injected time source; tests advance it instead
    of sleeping past a lease TTL."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Thread workers: parity with the serial path
# ---------------------------------------------------------------------------

def test_thread_workers_match_serial_run_grid(tmp_path):
    serial = run_grid(GRID)
    ckpt = SweepCheckpoint(tmp_path / "sweep.jsonl")
    coordinator = SweepCoordinator(
        _grid_cells(GRID),
        lease_size=1,  # spread cells across both workers
        lease_ttl=20.0,
        on_result=_checkpointing(ckpt),
        status_path=status_path_for(ckpt.path),
    )
    with coordinator:
        workers = [
            SweepWorker(coordinator.endpoint, name=f"t{i}") for i in range(2)
        ]
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        results = coordinator.wait(timeout=60.0)
        for t in threads:
            t.join(timeout=10.0)

    fabric_list = [results[i] for i in range(len(serial))]
    assert json.dumps(fabric_list, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )
    # One checkpoint line per cell, and both workers actually worked.
    entries = ckpt.entries()
    assert sorted(index for index, _k, _s in entries) == list(
        range(len(serial))
    )
    assert sum(w.cells_done for w in workers) == len(serial)
    assert all(w.leases_taken >= 1 for w in workers)
    # The status sidecar outlived the run and reports completion.
    status = read_status(ckpt.path)
    assert status["source"] == "coordinator"
    assert status["finished"] and status["done"] == len(serial)


# ---------------------------------------------------------------------------
# At-most-once: a stolen cell's straggler duplicate changes nothing
# ---------------------------------------------------------------------------

class _RawWorker:
    """Hand-driven protocol client for duplicate/steal choreography."""

    def __init__(self, endpoint, name):
        host, port = endpoint.rsplit(":", 1)
        self.conn = socket.create_connection((host, int(port)), timeout=30.0)
        self.conn.settimeout(30.0)
        self.name = name
        send_msg(self.conn, {"type": "hello", "worker": name})
        assert recv_msg(self.conn)["type"] == "welcome"

    def request(self):
        send_msg(self.conn, {"type": "request", "worker": self.name})
        return recv_msg(self.conn)

    def send_result(self, cell, summary):
        send_msg(self.conn, {
            "type": "result", "worker": self.name,
            "index": cell["index"], "key": cell["key"], "summary": summary,
        })
        return recv_msg(self.conn)

    def close(self):
        self.conn.close()


def test_duplicate_results_yield_one_checkpoint_entry(tmp_path):
    serial = run_grid(GRID)
    summaries = {
        cell[0]: resolve_runner("summary")(cell[2])
        for cell in _grid_cells(GRID)
    }
    ckpt = SweepCheckpoint(tmp_path / "sweep.jsonl")
    clock = _FakeClock()
    coordinator = SweepCoordinator(
        _grid_cells(GRID),
        lease_ttl=30.0,
        lease_size=len(serial),
        on_result=_checkpointing(ckpt),
        clock=clock,
    )
    with coordinator:
        w1 = _RawWorker(coordinator.endpoint, "w1")
        lease = w1.request()
        assert lease["type"] == "lease"
        clock.now += 60.0  # past the TTL; no heartbeats from w1

        w2 = _RawWorker(coordinator.endpoint, "w2")
        stolen = w2.request()
        assert stolen["type"] == "lease"
        assert sorted(c["index"] for c in stolen["cells"]) == sorted(
            c["index"] for c in lease["cells"]
        )
        for cell in stolen["cells"]:
            ack = w2.send_result(cell, summaries[cell["index"]])
            assert ack["status"] == "recorded"
        # The straggler reports the same cells late: every one a no-op.
        for cell in lease["cells"]:
            ack = w1.send_result(cell, summaries[cell["index"]])
            assert ack["status"] == "duplicate"
        results = coordinator.wait(timeout=10.0)
        w1.close(), w2.close()

    assert coordinator.table.counters.reissued == len(serial)
    assert coordinator.table.counters.duplicates == len(serial)
    # Exactly one checkpoint entry per cell, every one credited to the
    # thief — and the summaries are bit-identical to the serial sweep.
    entries = ckpt.entries()
    assert sorted(index for index, _k, _s in entries) == list(
        range(len(serial))
    )
    assert all(
        coordinator.table.cells[i].worker == "w2" for i in range(len(serial))
    )
    fabric_list = [results[i] for i in range(len(serial))]
    assert json.dumps(fabric_list, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )


# ---------------------------------------------------------------------------
# Determinism across processes/instances (satellite: stable HIST channels)
# ---------------------------------------------------------------------------

def test_saga_channels_are_process_stable_sim():
    spec = {
        "algorithm": "saga", "dataset": "tiny_dense", "num_workers": 2,
        "num_partitions": 4, "max_updates": 8, "eval_every": 4, "seed": 1,
    }
    first = run_experiment(spec)
    second = run_experiment(spec)
    # Two independent runs (stand-ins for two fabric worker processes)
    # derive the same channel names — no per-process counters or id()s.
    assert sorted(first.extras["history"]) == ["saga", "saga/avg_hist"]
    assert sorted(second.extras["history"]) == ["saga", "saga/avg_hist"]
    assert np.array_equal(first.w, second.w)


def _thread_asaga():
    X, y, _ = make_dense_regression(128, 6, cond=4.0, seed=3)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(1, backend=ThreadBackend(num_workers=1), seed=0) as ctx:
        points = ctx.matrix(X, y, 2).cache()
        return build_optimizer(
            "asaga", ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0),
        ).run()


def test_duplicate_thread_backend_payloads_dedupe_bitwise(tmp_path):
    """Two ThreadBackend executions of the same cell are bit-identical,
    and the fabric keeps exactly one of them."""
    results = [_thread_asaga() for _ in range(2)]
    payloads = [
        {
            "w": np.asarray(res.w).tolist(),
            "digest": hashlib.sha256(
                np.ascontiguousarray(np.asarray(res.w)).tobytes()
            ).hexdigest(),
            "updates": res.updates,
            "channels": sorted(res.extras["history"]),
        }
        for res in results
    ]
    assert payloads[0] == payloads[1]  # stable channels => stable runs

    ckpt = SweepCheckpoint(tmp_path / "sweep.jsonl")
    cells = _grid_cells(GRID)[:1]
    clock = _FakeClock()
    coordinator = SweepCoordinator(
        cells, lease_ttl=30.0, lease_size=1,
        on_result=_checkpointing(ckpt), clock=clock,
    )
    with coordinator:
        w1 = _RawWorker(coordinator.endpoint, "w1")
        lease = w1.request()
        clock.now += 60.0  # w1's lease expires; w2 steals the cell
        w2 = _RawWorker(coordinator.endpoint, "w2")
        w2.request()
        assert w2.send_result(lease["cells"][0], payloads[1])["status"] \
            == "recorded"
        assert w1.send_result(lease["cells"][0], payloads[0])["status"] \
            == "duplicate"
        results = coordinator.wait(timeout=10.0)
        w1.close(), w2.close()
    assert len(ckpt.entries()) == 1
    assert results[0] == payloads[1]


# ---------------------------------------------------------------------------
# Subprocess workers: kill one mid-sweep, resume from a torn checkpoint
# ---------------------------------------------------------------------------

KILL_GRID = {
    "base": {
        "algorithm": "asgd", "dataset": "mnist8m_like", "num_workers": 8,
        "num_partitions": 32, "delay": "cds:0.6", "max_updates": 400,
        "eval_every": 50,
    },
    "grid": {"seed": [0, 1], "batch_fraction": [0.05, 0.1, 0.15, 0.2]},
}


_ENV = dict(
    os.environ,
    PYTHONPATH=str(__import__("pathlib").Path(__file__).resolve().parents[1]
                   / "src"),
)


def _spawn_worker(endpoint, *, name):
    """A real ``python -m repro sweep-worker`` process — the path remote
    workers take (local fabric workers are forked, not exec'd)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep-worker", endpoint,
         "--name", name],
        env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def test_kill_worker_mid_sweep_cells_are_stolen(tmp_path):
    serial = run_grid(KILL_GRID)
    ckpt = SweepCheckpoint(tmp_path / "sweep.jsonl")
    coordinator = SweepCoordinator(
        _grid_cells(KILL_GRID),
        lease_ttl=1.5,
        lease_size=4,
        on_result=_checkpointing(ckpt),
        status_path=status_path_for(ckpt.path),
    )
    procs = []
    with coordinator:
        procs = [_spawn_worker(coordinator.endpoint, name="victim")]
        try:
            deadline = time.monotonic() + 60.0
            while not ckpt.path.exists() or not ckpt.entries():
                assert time.monotonic() < deadline, "first cell never landed"
                time.sleep(0.02)
            # The victim holds a 4-cell lease with at most one cell done:
            # kill it and let replacements steal the rest on TTL expiry.
            procs[0].kill()
            procs[0].wait(timeout=10.0)
            procs += [
                _spawn_worker(coordinator.endpoint, name=f"thief{i}")
                for i in range(2)
            ]
            results = coordinator.wait(timeout=120.0)
        finally:
            _cleanup(procs)

    assert coordinator.table.counters.reissued >= 1
    entries = ckpt.entries()
    assert sorted(index for index, _k, _s in entries) == list(
        range(len(serial))
    )
    fabric_list = [results[i] for i in range(len(serial))]
    assert json.dumps(fabric_list, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )


def test_run_grid_fabric_resumes_partial_torn_checkpoint(tmp_path):
    serial = run_grid(GRID)
    specs = GridSpec.coerce(GRID).expand()
    path = tmp_path / "sweep.jsonl"
    ckpt = SweepCheckpoint(path)
    # Two cells already recorded by a previous (crashed) driver, plus
    # the torn tail its death left behind.
    ckpt.append(0, run_key(specs[0]), serial[0])
    ckpt.append(2, run_key(specs[2]), serial[2])
    with path.open("a") as fh:
        fh.write('{"index": 3, "key": "k3", "summ')

    seen = []
    resumed = run_grid(
        GRID,
        progress=lambda k, total, summary: seen.append(k),
        checkpoint=path,
        resume=True,
        fabric={"local_workers": 2, "lease_size": 1, "lease_ttl": 20.0},
    )
    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )
    assert seen == list(range(len(serial)))  # 2 resumed + 2 fresh
    loaded = ckpt.load()
    assert sorted(loaded) == list(range(len(serial)))
    assert loaded[1][1] == serial[1]
    # The sidecar rides next to the checkpoint for `repro sweep-status`.
    status = read_status(path)
    assert status["finished"] and status["done"] == 2  # this run's cells


# ---------------------------------------------------------------------------
# Forked local workers: what the child must not keep from the driver
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _forked_worker_mid_cell(tmp_path, monkeypatch):
    """One forked local worker, parked inside a cell body.

    The fork happens the way ``run_fabric_cells`` does it under
    ``graceful_sigterm``: socket bound, a Python SIGTERM handler
    installed, accept loop not yet started. Forked children inherit the
    patched ``resolve_runner`` along with the rest of the driver.
    """
    marker = tmp_path / "cell-started"

    def stuck_cell(spec_dict):
        marker.write_text("started")
        time.sleep(120.0)

    monkeypatch.setattr(
        "repro.api.parallel.resolve_runner", lambda name: stuck_cell
    )
    coordinator = SweepCoordinator(_grid_cells(GRID)[:1], lease_ttl=30.0)
    coordinator.bind()
    drained = []
    prev = signal.signal(
        signal.SIGTERM, lambda signum, frame: drained.append(signum)
    )
    procs = []
    try:
        procs = spawn_local_workers(
            coordinator.endpoint, 1, listener=coordinator._server
        )
        coordinator.start()
        deadline = time.monotonic() + 30.0
        while not marker.exists():
            assert time.monotonic() < deadline, "cell never started"
            assert procs[0].is_alive()
            time.sleep(0.01)
        yield coordinator, procs[0], drained
    finally:
        signal.signal(signal.SIGTERM, prev)
        coordinator.close()
        for proc in procs:
            proc.kill()
            proc.join(10.0)


def test_forked_worker_mid_cell_dies_on_terminate(tmp_path, monkeypatch):
    """The driver's drain handler must not survive into the child: there
    it would swallow SIGTERM and the cleanup's ``terminate()``."""
    with _forked_worker_mid_cell(tmp_path, monkeypatch) as (_c, proc, drained):
        proc.terminate()
        proc.join(5.0)
        assert not proc.is_alive()
        assert proc.exitcode == -signal.SIGTERM
        assert drained == []  # and the driver's own handler never ran


def test_forked_worker_keeps_no_listening_socket(tmp_path, monkeypatch):
    """Closing the coordinator frees the port even while a worker it
    forked is still alive."""
    with _forked_worker_mid_cell(tmp_path, monkeypatch) as (coord, proc, _d):
        host, port = parse_endpoint(coord.endpoint)
        coord.close()
        assert proc.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5.0)


def test_run_fabric_cells_forks_before_any_coordinator_thread(monkeypatch):
    """fork() in a threaded process can deadlock the child (and warns on
    3.12+): local workers start before the accept loop does."""
    import repro.fabric.worker as fabric_worker

    threads_at_fork = []
    real_spawn = fabric_worker.spawn_local_workers

    def spying_spawn(*args, **kwargs):
        threads_at_fork.append([t.name for t in threading.enumerate()])
        return real_spawn(*args, **kwargs)

    monkeypatch.setattr(fabric_worker, "spawn_local_workers", spying_spawn)
    summaries = run_grid(
        GRID, fabric={"local_workers": 2, "lease_size": 1, "lease_ttl": 20.0}
    )
    assert len(summaries) == 4
    assert len(threads_at_fork) == 1
    assert not [n for n in threads_at_fork[0] if n.startswith("fabric-")]


_NOISY_CELL_DRIVER = """\
import os, sys
import numpy as np
import repro.api.parallel as parallel
from repro.fabric import run_fabric_cells

def noisy_cell(spec_dict):
    print("cell on stdout")
    print("cell on stderr", file=sys.stderr)
    os.write(1, b"cell on fd 1\\n")
    os.write(2, b"cell on fd 2\\n")
    np.log(np.zeros(1))  # RuntimeWarning: divide by zero
    return {"ok": True}

parallel.resolve_runner = lambda name: noisy_cell
spec = {"algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 1}
out = run_fabric_cells([(0, "k", spec)], fabric={"local_workers": 1})
print("driver:", out)
"""


def test_quiet_forked_worker_writes_nothing_to_driver_streams():
    proc = subprocess.run(
        [sys.executable, "-c", _NOISY_CELL_DRIVER],
        env=_ENV, capture_output=True, text=True, timeout=120.0,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "driver: {0: {'ok': True}}\n"
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# Failure policy: a cell out of retry budget aborts the sweep
# ---------------------------------------------------------------------------

def test_fatal_cell_aborts_sweep_and_raises():
    bad = {
        # ADMM's closed-form solver rejects logistic problems when the
        # run starts — a deterministic cell failure on every attempt.
        "algorithm": "admm", "problem": "logistic", "dataset": "tiny_dense",
        "num_workers": 2, "num_partitions": 4, "max_updates": 4, "seed": 0,
    }
    coordinator = SweepCoordinator(
        _grid_cells(bad), lease_ttl=5.0, lease_size=1, max_attempts=2
    )
    with coordinator:
        worker = SweepWorker(coordinator.endpoint, name="w1")
        thread = threading.Thread(target=worker.run)
        thread.start()
        with pytest.raises(FabricError, match="failed 2 time"):
            coordinator.wait(timeout=30.0)
        thread.join(timeout=10.0)
    assert coordinator.table.counters.retried == 1
    assert coordinator.table.cells[0].status == "failed"


def test_failed_sweep_records_cells_in_flight_before_it_raises():
    """A cell out of retries stops the leasing, not the cells already
    executing: each reports once more (and is recorded) before its
    worker is told to abort, and the last one finishes the sweep."""
    recorded = []
    coordinator = SweepCoordinator(
        _grid_cells(GRID), lease_size=2, max_attempts=1,
        on_result=lambda index, key, summary: recorded.append(index),
    )
    with coordinator:
        w1 = _RawWorker(coordinator.endpoint, "w1")
        w2 = _RawWorker(coordinator.endpoint, "w2")
        good, bad = w1.request(), w2.request()
        assert [len(lease["cells"]) for lease in (good, bad)] == [2, 1]
        send_msg(w2.conn, {
            "type": "result", "worker": "w2",
            "index": bad["cells"][0]["index"], "error": "boom",
        })
        assert recv_msg(w2.conn)["type"] == "abort"
        assert w2.request()["type"] == "abort"
        assert not coordinator._finished.is_set()  # w1 is mid-lease
        ack = w1.send_result(good["cells"][0], {"ok": True})
        assert ack["type"] == "abort"  # recorded, and told to stop there
        with pytest.raises(FabricError, match="failed 1 time.*boom"):
            coordinator.wait(timeout=10.0)
        w1.close(), w2.close()
    assert recorded == [good["cells"][0]["index"]]
    assert coordinator.results == {recorded[0]: {"ok": True}}
    assert not coordinator.table.leases


def test_raising_on_result_fails_the_sweep_and_unrecords_the_cell():
    """The hook is where results are kept; one that raises used to kill
    the connection thread with the cell marked done and nothing set."""
    def on_result(index, key, summary):
        raise OSError(28, "No space left on device")

    coordinator = SweepCoordinator(_grid_cells(GRID), on_result=on_result)
    with coordinator:
        w1 = _RawWorker(coordinator.endpoint, "w1")
        cell = w1.request()["cells"][0]
        assert w1.send_result(cell, {"ok": True})["type"] == "abort"
        with pytest.raises(OSError, match="No space left"):
            coordinator.wait(timeout=10.0)
        assert w1.request()["type"] == "abort"
        w1.close()
    assert coordinator.results == {}
    failed = coordinator.table.cells[cell["index"]]
    assert failed.status == "failed" and "No space left" in failed.error


def test_hostile_result_frames_get_error_replies(monkeypatch):
    """A malformed result frame is a typed ``error`` reply on a live
    connection; it used to kill the connection thread with a bare
    TypeError/ValueError (and an uncapped inflate could take ~1000x its
    size in memory)."""
    from repro.comm.frames import encode_frame

    monkeypatch.setattr("repro.comm.frames.MAX_MESSAGE_BYTES", 1 << 16)
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    hostile = [
        {"__comm_frame__": "zjson", "data": 5},
        {**encode_frame({"ok": True}), "raw_bytes": "x"},
        {**encode_frame({"ok": True}), "data": "!!!not-base64!!!"},
        encode_frame({"pad": " " * (1 << 17)}),  # inflates past the cap
    ]
    coordinator = SweepCoordinator(_grid_cells(GRID), lease_size=1)
    with coordinator:
        w1 = _RawWorker(coordinator.endpoint, "w1")
        cell = w1.request()["cells"][0]
        for summary in hostile:
            reply = w1.send_result(cell, summary)
            assert reply["type"] == "error", reply
            assert "comm frame" in reply["message"]
        # The same connection still works, and the cell still records.
        ack = w1.send_result(cell, encode_frame({"ok": True}))
        assert ack["status"] == "recorded"
        w1.close()
    assert escaped == []
    assert coordinator.comm_stats["frames"] == 1
    assert coordinator.results == {cell["index"]: {"ok": True}}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_sweep_status_cli_renders_finished_run(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "sweep.jsonl"
    run_grid(
        GRID,
        checkpoint=path,
        fabric={"local_workers": 1, "lease_size": 2, "lease_ttl": 20.0},
    )
    assert main(["sweep-status", str(path)]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "4/4 done" in out
    assert main(["sweep-status", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["done"] == 4 and payload["source"] == "coordinator"


# ---------------------------------------------------------------------------
# Coordinator crash recovery: SIGKILL / SIGTERM the *service*, relaunch
# ---------------------------------------------------------------------------

RELAUNCH_GRID = {
    "base": {
        "algorithm": "asgd", "dataset": "mnist8m_like", "num_workers": 8,
        "num_partitions": 32, "delay": "cds:0.6", "max_updates": 300,
        "eval_every": 50,
    },
    "grid": {"seed": [0, 1], "batch_fraction": [0.05, 0.1, 0.15, 0.2]},
}


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _serve(spec_file, ckpt, port, *, resume=False):
    cmd = [sys.executable, "-m", "repro", "sweep", str(spec_file),
           "--serve", f"127.0.0.1:{port}", "--checkpoint", str(ckpt)]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd, env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_entries(ckpt, n, coordinator_proc, timeout=90.0):
    deadline = time.monotonic() + timeout
    while len(ckpt.entries()) < n:
        assert time.monotonic() < deadline, f"never reached {n} entries"
        assert coordinator_proc.poll() is None, (
            "coordinator exited early:\n" + coordinator_proc.stdout.read()
        )
        time.sleep(0.05)


def _cleanup(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        try:
            proc.wait(timeout=10.0)
        except Exception:
            pass


def test_sigkill_coordinator_relaunch_resume_completes_with_parity(tmp_path):
    """Kill the *coordinator* mid-sweep; the relaunched service rebuilds
    its lease table from the sealed checkpoint, the surviving worker
    reconnects with backoff, and the finished sweep is bit-identical to
    a serial run."""
    serial = run_grid(RELAUNCH_GRID)
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps(RELAUNCH_GRID))
    ckpt = SweepCheckpoint(tmp_path / "grid.ckpt.jsonl")
    port = _free_port()

    coord = _serve(spec_file, ckpt.path, port)
    worker = _spawn_worker(f"127.0.0.1:{port}", name="survivor")
    try:
        _wait_for_entries(ckpt, 2, coord)
        coord.send_signal(signal.SIGKILL)
        coord.wait(timeout=10.0)
        recorded_at_kill = len(ckpt.entries())

        coord2 = _serve(spec_file, ckpt.path, port, resume=True)
        out2, _ = coord2.communicate(timeout=180.0)
        assert coord2.returncode == 0, out2
        wout, _ = worker.communicate(timeout=60.0)
        assert worker.returncode == 0, wout
        # The worker lived through the outage: it reconnected rather
        # than restarted.
        assert "rejoined" in wout or "reconnecting" in wout
    finally:
        _cleanup([coord, worker])

    entries = ckpt.entries()
    assert sorted(i for i, _k, _s in entries) == list(range(len(serial)))
    assert len(entries) == len(serial)  # pre-kill cells were not re-run
    loaded = ckpt.load()
    fabric_list = [loaded[i][1] for i in range(len(serial))]
    assert json.dumps(fabric_list, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )
    assert recorded_at_kill >= 2  # the resume really had work to skip


def test_sigterm_drains_exits_143_and_resume_finishes(tmp_path):
    """SIGTERM on `sweep --serve` drains: stop leasing, flush in-flight
    results, write a final sidecar, exit 143; `--resume` finishes the
    remainder."""
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps(RELAUNCH_GRID))
    ckpt = SweepCheckpoint(tmp_path / "grid.ckpt.jsonl")
    total = len(GridSpec.coerce(RELAUNCH_GRID))
    port = _free_port()

    coord = _serve(spec_file, ckpt.path, port)
    worker = _spawn_worker(f"127.0.0.1:{port}", name="drained")
    try:
        _wait_for_entries(ckpt, 1, coord)
        coord.send_signal(signal.SIGTERM)
        out, _ = coord.communicate(timeout=120.0)
        assert coord.returncode == 143, out
        wout, _ = worker.communicate(timeout=60.0)
        assert worker.returncode == 0, wout
        assert "draining" in wout

        # The final sidecar records the drain, and the checkpoint kept
        # everything that was in flight when the signal landed.
        status = read_status(ckpt.path)
        assert status["draining"] is True and status["finished"] is True
        assert "drained" in (status["error"] or "")
        drained_count = len(ckpt.entries())
        assert 1 <= drained_count < total

        coord2 = _serve(spec_file, ckpt.path, port, resume=True)
        worker2 = _spawn_worker(f"127.0.0.1:{port}", name="finisher")
        out2, _ = coord2.communicate(timeout=180.0)
        assert coord2.returncode == 0, out2
        worker2.communicate(timeout=60.0)
    finally:
        _cleanup([coord, worker])
        try:
            _cleanup([coord2, worker2])
        except NameError:
            pass

    assert sorted(i for i, _k, _s in ckpt.entries()) == list(range(total))
    # The resumed coordinator's sidecar covers exactly the remainder:
    # the driver filtered already-recorded cells out before serving.
    status = read_status(ckpt.path)
    assert status["finished"] is True
    assert status["total"] == total - drained_count
    assert status["done"] == total - drained_count


# ---------------------------------------------------------------------------
# Chaos worker: perturbed wire traffic, unperturbed results
# ---------------------------------------------------------------------------

def test_chaos_worker_completes_sweep_with_parity(tmp_path):
    serial = run_grid(GRID)
    ckpt = SweepCheckpoint(tmp_path / "sweep.jsonl")
    coordinator = SweepCoordinator(
        _grid_cells(GRID),
        lease_size=1,
        lease_ttl=5.0,
        on_result=_checkpointing(ckpt),
    )
    with coordinator:
        worker = SweepWorker(
            coordinator.endpoint,
            name="chaotic",
            chaos="dup=0.3,sever=6,seed=1",
            connect_backoff_s=0.05,
            connect_backoff_cap_s=0.2,
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        results = coordinator.wait(timeout=120.0)
        thread.join(timeout=30.0)

    # The wire was genuinely hostile...
    assert worker.chaos is not None
    assert worker.chaos.severed >= 1
    assert worker.chaos.duplicated >= 1
    # ...but the sweep finished with exactly one entry per cell and
    # summaries bit-identical to the serial run.
    entries = ckpt.entries()
    assert sorted(i for i, _k, _s in entries) == list(range(len(serial)))
    fabric_list = [results[i] for i in range(len(serial))]
    assert json.dumps(fabric_list, sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )
