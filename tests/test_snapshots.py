"""Crash-safe runs: mid-run snapshots and verified SIGKILL recovery.

The contract under test: every ``snapshot_every`` applied updates the
server loop atomically rewrites ``snapshot_path`` with its full run
state, and a run restored from that file continues *bit-identically* to
the in-process restore path (``restore_state`` handed straight to the
optimizer). The snapshot is written at the instant update K applies and
excludes run limits, so the file a SIGKILLed run leaves behind is
byte-for-byte the file a ``max_updates=K`` run finishes with.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.parallel import run_key
from repro.api.runner import prepare_experiment
from repro.api.spec import ExperimentSpec
from repro.core.snapshots import (
    SNAPSHOT_FORMAT,
    SnapshotWriter,
    decode_value,
    encode_value,
    is_run_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.errors import OptimError, SnapshotError

SPEC = {
    "dataset": "tiny_dense", "algorithm": "asgd", "policy": "sample:0.75",
    "num_workers": 4, "max_updates": 60, "seed": 3, "delay": "cds:0.6",
}

#: A run whose snapshots carry a bounded HIST channel (SAGA's average).
ASAGA_SPEC = {
    "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "max_updates": 60,
    "eval_every": 20, "seed": 3, "params": {"mode": "history"},
}

ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
)


# ---------------------------------------------------------------------------
# Codec and file format units
# ---------------------------------------------------------------------------

def test_codec_roundtrips_ndarrays_bit_exact():
    w = np.array([1.0, -0.25, 1e-300, 3.141592653589793, np.pi * 1e17])
    state = {"w": w, "nested": {"deque": [w * 2, 7], "t": (1, 2)}}
    back = decode_value(encode_value(state))
    assert np.array_equal(back["w"], w)
    assert back["w"].dtype == w.dtype
    assert np.array_equal(back["nested"]["deque"][0], w * 2)
    # ...and survives an actual JSON round-trip, which is what the
    # snapshot file does.
    back2 = decode_value(json.loads(json.dumps(encode_value(state))))
    assert np.array_equal(back2["w"], w)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("value", [
    np.array([1.0, -0.0, np.inf, 5e-324, np.pi]),
    np.arange(6, dtype=np.float32).reshape(2, 3),
    np.array([-(2**62), 7], dtype=np.int64),
    np.array([0, 255], dtype=np.uint8),
    np.array([True, False, True]),
    np.array([1 + 2j, -0.0 - 1j], dtype=np.complex128),
    np.arange(5, dtype=">f8"),                    # big-endian input
    np.array(2.5),                                # 0-d
    np.zeros((0, 3)),                             # empty
    np.arange(24.0).reshape(4, 6)[::2, 1::2],     # non-contiguous
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
], ids=["f8", "f4", "i8", "u1", "bool", "c16", "f8-big-endian", "0-d",
        "empty", "strided", "fortran"])
def test_array_codec_roundtrips_bit_exact(value):
    record = json.loads(json.dumps(encode_value(value)))
    assert set(record) == {"__ndarray__", "dtype", "shape"}
    assert record["dtype"][0] in "<|"          # explicit little-endian
    back = decode_value(record)
    assert back.shape == value.shape
    assert back.dtype == value.dtype.newbyteorder("=")
    assert back.dtype.isnative and back.flags.writeable
    assert _bits(back) == _bits(value.astype(back.dtype))


def test_array_codec_keeps_nan_payloads_and_negative_zero():
    bits = np.array(
        [0x7FF8000000000123, 0xFFF80000DEADBEEF, 0x7FF0000000000001,
         0x8000000000000000], dtype=np.uint64,
    )
    back = decode_value(json.loads(json.dumps(encode_value(bits.view(np.float64)))))
    assert np.array_equal(back.view(np.uint64), bits)


def test_array_codec_refuses_arrays_it_cannot_carry():
    from repro.errors import HistoryError

    for value in (np.array(["a"]), np.array([object()]),
                  np.array(["2020-01-01"], dtype="datetime64[D]")):
        with pytest.raises(HistoryError, match="cannot checkpoint"):
            encode_value(value)


def _no_constants(name):
    raise AssertionError(f"snapshot JSON contains bare {name}")


def test_snapshot_file_is_strict_json(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**ASAGA_SPEC, "snapshot_every": 20,
                    "snapshot_path": str(snap_file)})
    state = json.loads(snap_file.read_text(), parse_constant=_no_constants)
    assert isinstance(state["w"]["__ndarray__"], str)
    # The bounded HIST channel travels in the same encoding.
    channels = state["server"]["history"]
    assert any(
        isinstance(value["__ndarray__"], str)
        for ch in channels.values() for value in ch.get("values", {}).values()
    )


def _to_list_form(node):
    """Rewrite every array record the way earlier versions wrote it:
    ``tolist()`` values and a numpy dtype name."""
    if isinstance(node, dict) and "__ndarray__" in node:
        arr = decode_value(node)
        return {"__ndarray__": arr.tolist(), "dtype": str(arr.dtype),
                "shape": list(arr.shape)}
    if isinstance(node, dict):
        return {k: _to_list_form(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_to_list_form(v) for v in node]
    return node


def test_list_form_snapshot_restores_like_the_new_form(tmp_path):
    """``_to_list_form`` of a snapshot is, byte for byte, the file the
    list-form writer produced for the same run; restoring it lands on
    the same ``w`` as restoring the new form."""
    snap_file = tmp_path / "snap.json"
    run_experiment({**ASAGA_SPEC, "max_updates": 40, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})
    legacy_file = tmp_path / "legacy.json"
    legacy = _to_list_form(json.loads(snap_file.read_text()))
    assert isinstance(legacy["w"]["__ndarray__"], list)
    legacy_file.write_text(
        json.dumps(legacy, sort_keys=True, separators=(",", ":")) + "\n"
    )

    from_new = run_experiment({**ASAGA_SPEC, "restore_from": str(snap_file)})
    from_legacy = run_experiment(
        {**ASAGA_SPEC, "restore_from": str(legacy_file)}
    )
    assert from_legacy.extras["resumed_from_update"] == 40
    assert from_legacy.updates == 60
    assert _bits(from_legacy.w) == _bits(from_new.w)


def test_sweep_checkpoint_with_list_form_run_state_resumes(
    tmp_path, monkeypatch
):
    from repro.api import parallel
    from repro.api.runner import run_grid

    grid = {"base": {**ASAGA_SPEC, "max_updates": 20},
            "grid": {"seed": [1, 2]}}
    ck = tmp_path / "sweep.ckpt.jsonl"
    first = run_grid(grid, checkpoint=str(ck))
    entries = [json.loads(line) for line in ck.read_text().splitlines()]
    for entry in entries:
        entry["summary"] = _to_list_form(entry["summary"])
    ck.write_text("".join(json.dumps(e) + "\n" for e in entries))

    monkeypatch.setattr(
        parallel, "_summary_cell",
        lambda spec: pytest.fail("a recorded cell was re-run"),
    )
    resumed = run_grid(grid, checkpoint=str(ck), resume=True)
    (avg,) = resumed[0]["run_state"]["history"]["saga/avg_hist"]["values"].values()
    assert isinstance(avg["__ndarray__"], list)
    # (via JSON: a fresh summary's HIST version keys are ints)
    assert resumed == json.loads(json.dumps(_to_list_form(first)))


def _write_state(path, state):
    path.write_text(json.dumps(state))
    return path


def _valid_state(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "max_updates": 20, "snapshot_every": 20,
                    "snapshot_path": str(snap_file)})
    return json.loads(snap_file.read_text())


@pytest.mark.parametrize("key", ["updates", "rounds", "w"])
def test_snapshot_missing_a_required_key_is_a_snapshot_error(tmp_path, key):
    state = _valid_state(tmp_path)
    del state[key]
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match=f"bad.json.*missing '{key}'"):
        read_snapshot(bad)
    with pytest.raises(SnapshotError, match=f"missing '{key}'"):
        run_experiment({**SPEC, "restore_from": str(bad)})


def test_snapshot_list_of_the_wrong_length_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"] = {"__ndarray__": [1.0, 2.0], "dtype": "float64", "shape": [3]}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*malformed array"):
        read_snapshot(bad)
    with pytest.raises(SnapshotError, match="malformed array"):
        run_experiment({**SPEC, "restore_from": str(bad)})


def test_snapshot_with_bad_base64_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"]["__ndarray__"] = "not*base64!"
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bad.json.*malformed array"):
        read_snapshot(bad)


def test_snapshot_with_a_wrong_byte_count_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["w"]["shape"] = [state["w"]["shape"][0] + 1]
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bytes for shape"):
        read_snapshot(bad)


def test_snapshot_with_an_unknown_dtype_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    for dtype in ("<q9", "|O", "<U4"):
        state["w"]["dtype"] = dtype
        bad = _write_state(tmp_path / "bad.json", state)
        with pytest.raises(SnapshotError, match="malformed array"):
            read_snapshot(bad)


def test_snapshot_with_a_malformed_hist_array_is_a_snapshot_error(tmp_path):
    state = _valid_state(tmp_path)
    state["server"]["history"] = {"x/avg": {
        "name": "x/avg", "keep": "last:1", "next_version": 1,
        "values": {"0": {"__ndarray__": "AAAA", "dtype": "<f8", "shape": [1]}},
    }}
    bad = _write_state(tmp_path / "bad.json", state)
    with pytest.raises(SnapshotError, match="bytes for shape"):
        read_snapshot(bad)


def test_write_snapshot_is_atomic_and_tagged(tmp_path):
    path = tmp_path / "snap.json"
    state = {"format": SNAPSHOT_FORMAT, "updates": 3, "rounds": 3,
             "epoch_rounds_left": 0, "w": encode_value(np.arange(4.0))}
    write_snapshot(path, state)
    assert read_snapshot(path)["updates"] == 3
    assert is_run_snapshot(read_snapshot(path))
    # No temp litter: the tmp file was renamed over the target.
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    # Overwrite is also atomic (same path, new contents).
    write_snapshot(path, {**state, "updates": 4})
    assert read_snapshot(path)["updates"] == 4


def test_read_snapshot_rejects_garbage(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    with pytest.raises(SnapshotError, match="not a valid snapshot"):
        read_snapshot(bad)
    untagged = tmp_path / "untagged.json"
    untagged.write_text('{"updates": 3}')
    with pytest.raises(SnapshotError, match="run-snapshot"):
        read_snapshot(untagged)
    assert not is_run_snapshot({"updates": 3})
    assert not is_run_snapshot(None)


def test_snapshot_writer_cadence(tmp_path):
    writer = SnapshotWriter(tmp_path / "s.json", every=3)
    assert [u for u in range(10) if writer.due(u)] == [3, 6, 9]
    writer.write({"format": SNAPSHOT_FORMAT, "k": 1})
    assert writer.written == 1


def test_config_validates_snapshot_fields(tmp_path):
    with pytest.raises(OptimError, match="snapshot_every"):
        run_experiment({**SPEC, "snapshot_every": -1,
                        "snapshot_path": str(tmp_path / "s.json")})
    with pytest.raises(OptimError, match="both"):
        run_experiment({**SPEC, "snapshot_every": 10})
    with pytest.raises(OptimError, match="both"):
        run_experiment({**SPEC, "snapshot_path": str(tmp_path / "s.json")})


def test_sync_saga_snapshot_is_prefix_invariant_and_restores(tmp_path):
    """Synchronous algorithms run in the same server loop: saga's file at
    update 20 of a budget-30 run is byte-identical to a budget-20 run's
    final file, and a restore from it finishes the budget."""
    spec = {**ASAGA_SPEC, "algorithm": "saga", "max_updates": 30}
    long_file = tmp_path / "long.json"
    short_file = tmp_path / "short.json"
    run_experiment({**spec, "snapshot_every": 20,
                    "snapshot_path": str(long_file)})
    run_experiment({**spec, "max_updates": 20, "snapshot_every": 20,
                    "snapshot_path": str(short_file)})
    assert long_file.read_bytes() == short_file.read_bytes()
    snap = read_snapshot(long_file)
    assert snap["updates"] == snap["rounds"] == 20
    assert snap["run"]["algorithm"] == "saga[history]"

    resumed = run_experiment({**spec, "restore_from": str(long_file)})
    again = run_experiment({**spec, "restore_from": str(long_file)})
    assert resumed.extras["resumed_from_update"] == 20
    assert resumed.updates == 30
    assert _bits(resumed.w) == _bits(again.w)


def test_unset_crash_fields_keep_spec_keys_stable():
    # The canonical run key of a spec that never heard of snapshots must
    # not change — every pre-existing checkpoint line depends on it.
    spec = ExperimentSpec.coerce(SPEC)
    data = spec.to_dict()
    for field_name in ("snapshot_every", "snapshot_path", "restore_from",
                       "fault_plan"):
        assert field_name not in data
    assert run_key(spec) == run_key(ExperimentSpec.coerce(dict(SPEC)))


# ---------------------------------------------------------------------------
# In-process resume parity
# ---------------------------------------------------------------------------

def test_midrun_snapshot_equals_shorter_runs_final_file(tmp_path):
    """Snapshots are prefix-invariant: the file a budget-60 run writes at
    update 40 is byte-identical to a budget-40 run's final file."""
    long_file = tmp_path / "long.json"
    short_file = tmp_path / "short.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(long_file)})
    run_experiment({**SPEC, "max_updates": 40, "snapshot_every": 40,
                    "snapshot_path": str(short_file)})
    assert long_file.read_bytes() == short_file.read_bytes()
    assert read_snapshot(long_file)["updates"] == 40


def test_disk_restore_matches_in_process_restore(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})

    from_disk = run_experiment({**SPEC, "restore_from": str(snap_file)})
    again = run_experiment({**SPEC, "restore_from": str(snap_file)})
    in_process = replace(
        prepare_experiment(SPEC), restore_state=read_snapshot(snap_file)
    ).execute()

    assert from_disk.extras["resumed_from_update"] == 40
    assert from_disk.updates == 60
    assert np.array_equal(from_disk.w, again.w)          # deterministic
    assert np.array_equal(from_disk.w, in_process.w)     # same path
    assert from_disk.updates == in_process.updates


def test_restore_rejects_mismatched_run(tmp_path):
    snap_file = tmp_path / "snap.json"
    run_experiment({**SPEC, "snapshot_every": 40,
                    "snapshot_path": str(snap_file)})
    for wrong in ({"num_workers": 2}, {"seed": 4}, {"algorithm": "asaga"}):
        with pytest.raises(SnapshotError, match="mismatch"):
            run_experiment({**SPEC, **wrong,
                            "restore_from": str(snap_file)})


def test_snapshots_written_extra_counts_files(tmp_path):
    snap_file = tmp_path / "snap.json"
    result = run_experiment({**SPEC, "snapshot_every": 20,
                             "snapshot_path": str(snap_file)})
    assert result.extras["snapshots_written"] == 3  # at 20, 40, 60
    assert read_snapshot(snap_file)["updates"] == 60


# ---------------------------------------------------------------------------
# SIGKILL at an arbitrary moment: the crash the feature exists for
# ---------------------------------------------------------------------------

def _kill_after_updates(cmd, snap_file, min_updates, cwd=None):
    """Run ``cmd``, SIGKILL it once the snapshot shows >= min_updates."""
    proc = subprocess.Popen(
        cmd, env=ENV, cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 90.0
    try:
        while True:
            assert time.monotonic() < deadline, "snapshot never advanced"
            assert proc.poll() is None, \
                "run finished before it could be killed; raise max_updates"
            try:
                if read_snapshot(snap_file)["updates"] >= min_updates:
                    break
            except SnapshotError:
                pass  # not written yet, or mid-poll; retry
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)


@pytest.mark.parametrize("min_updates", [30, 120])
def test_sigkill_sim_backend_resumes_bit_identically(tmp_path, min_updates):
    snap_file = tmp_path / "snap.json"
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({**SPEC, "max_updates": 2_000_000}))
    _kill_after_updates(
        [sys.executable, "-m", "repro", "run", str(spec_file),
         "--snapshot", str(snap_file), "--snapshot-every", "15"],
        snap_file, min_updates,
    )
    snap = read_snapshot(snap_file)  # atomic replace => never torn
    k = snap["updates"]
    assert k >= min_updates and k % 15 == 0

    # The killed run's file is byte-identical to a run budgeted to stop
    # exactly at K — the snapshot captured a real prefix of the run.
    ref_file = tmp_path / "ref.json"
    run_experiment({**SPEC, "max_updates": k, "snapshot_every": k,
                    "snapshot_path": str(ref_file)})
    assert snap_file.read_bytes() == ref_file.read_bytes()

    # Resuming the killed run continues exactly like the in-process
    # restore path continuing the reference run.
    resumed = run_experiment(
        {**SPEC, "max_updates": k + 45, "restore_from": str(snap_file)}
    )
    in_process = replace(
        prepare_experiment({**SPEC, "max_updates": k + 45}),
        restore_state=read_snapshot(ref_file),
    ).execute()
    assert resumed.extras["resumed_from_update"] == k
    assert resumed.updates == k + 45
    assert np.array_equal(resumed.w, in_process.w)


_THREAD_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro.cluster.threadbackend import ThreadBackend
    from repro.core.snapshots import read_snapshot
    from repro.data.synthetic import make_dense_regression
    from repro.engine.context import ClusterContext
    from repro.optim import (
        ConstantStep,
        LeastSquaresProblem,
        OptimizerConfig,
        build_optimizer,
    )

    def run(max_updates, snapshot_every, snapshot_path, restore=None):
        X, y, _ = make_dense_regression(64, 4, cond=4.0, seed=5)
        problem = LeastSquaresProblem(X, y)
        backend = ThreadBackend(num_workers=1)
        with ClusterContext(1, backend=backend, seed=0) as ctx:
            points = ctx.matrix(X, y, 2).cache()
            opt = build_optimizer(
                "asgd", ctx, points, problem, ConstantStep(0.02),
                OptimizerConfig(
                    batch_fraction=0.25, max_updates=max_updates, seed=0,
                    snapshot_every=snapshot_every,
                    snapshot_path=snapshot_path,
                ),
            )
            if restore is not None:
                opt.restore_state = read_snapshot(restore)
            return opt.run()

    if __name__ == "__main__":
        mode = sys.argv[1]
        path = sys.argv[2]
        if mode == "hang":       # killed from outside
            run(50_000_000, 10, path)
        elif mode == "ref":      # budget-K reference
            run(int(sys.argv[3]), int(sys.argv[3]), path)
        elif mode == "resume":   # continue from a snapshot, print w
            res = run(int(sys.argv[3]), 0, None, restore=path)
            print(json.dumps([res.updates, list(map(float, res.w))]))
""")


def test_sigkill_thread_backend_resumes_bit_identically(tmp_path):
    """Same SIGKILL contract on the real-thread backend (1 worker, the
    deterministic configuration)."""
    script = tmp_path / "thread_run.py"
    script.write_text(_THREAD_SCRIPT)
    snap_file = tmp_path / "snap.json"
    _kill_after_updates(
        [sys.executable, str(script), "hang", str(snap_file)],
        snap_file, min_updates=40,
    )
    k = read_snapshot(snap_file)["updates"]
    assert k >= 40 and k % 10 == 0

    ref_file = tmp_path / "ref.json"
    subprocess.run(
        [sys.executable, str(script), "ref", str(ref_file), str(k)],
        env=ENV, check=True, stdout=subprocess.DEVNULL,
    )
    assert snap_file.read_bytes() == ref_file.read_bytes()

    # Resume twice from the killed run's file: deterministic, and the
    # continuation really continued (K + 30 applied updates).
    outs = [
        subprocess.run(
            [sys.executable, str(script), "resume", str(snap_file),
             str(k + 30)],
            env=ENV, check=True, capture_output=True, text=True,
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    updates, w = json.loads(outs[0])
    assert updates == k + 30 and len(w) == 4
