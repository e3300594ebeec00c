"""The parallel sweep engine: parity, ordering, checkpoint/resume."""

import contextlib
import json
import os
import signal

import numpy as np
import pytest

from repro.api import run_grid
from repro.api.parallel import (
    SweepCheckpoint,
    group_key,
    run_key,
    run_sweep_cells,
    resolve_jobs,
)
from repro.api.runner import component_key
from repro.api.spec import ExperimentSpec, GridSpec
from repro.bench.harness import ExperimentResult
from repro.errors import ApiError, FabricError, ReproError

GRID = {
    "base": {
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 10, "eval_every": 5, "seed": 0,
    },
    "grid": {"barrier": ["asp", "ssp:2", "bsp"], "num_workers": [2, 4]},
}


# ---------------------------------------------------------------------------
# Parity and ordering
# ---------------------------------------------------------------------------

def test_parallel_summaries_identical_to_serial():
    """The acceptance criterion: same order, same values, bit for bit."""
    serial = run_grid(GRID)
    parallel = run_grid(GRID, jobs=2)
    assert serial == parallel
    assert len(serial) == 6
    # The record's series and byte totals cross the fabric bit for bit.
    def series_and_bytes(records):
        return [(r["error_series"], r["total_task_bytes"],
                 r["total_fetch_bytes"]) for r in records]

    assert series_and_bytes(parallel) == series_and_bytes(serial)
    assert all(len(r["error_series"]) == 3 and r["total_task_bytes"] > 0
               for r in serial)


def test_parallel_ordering_is_grid_expansion_order():
    """Results come back in expand() order however completion interleaves.

    Cells have deliberately unequal durations (max_updates axis) so a
    completion-ordered implementation would scramble them.
    """
    grid = {
        "base": dict(GRID["base"]),
        "grid": {"max_updates": [24, 4, 12, 8]},
    }
    summaries = run_grid(grid, jobs=2)
    assert [s["spec"]["max_updates"] for s in summaries] == [24, 4, 12, 8]
    assert [s["updates"] for s in summaries] == [24, 4, 12, 8]


def test_progress_fires_once_per_cell_with_jobs():
    calls = []
    run_grid(GRID, progress=lambda k, total, s: calls.append((k, total)),
             jobs=2)
    assert sorted(calls) == [(k, 6) for k in range(6)]


def test_jobs_zero_means_all_cores():
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(3) == 3
    # and the sweep accepts it end to end
    assert len(run_grid(GRID, jobs=0)) == 6


def test_worker_error_propagates():
    """A cell that fails on forked workers fails the sweep with the
    cell's own error text: a ``FabricError`` (the fabric retried it
    first) where in-process it is the ``ApiError`` itself — both
    ``ReproError``, which is what the CLI turns into exit code 2."""
    bad = {
        "base": dict(GRID["base"]),
        "grid": {"barrier": ["asp", "ssp:0"]},  # ssp:0 is invalid
    }
    message = "ApiError: bad parameters for policy 'ssp'"
    with pytest.raises(ReproError, match=message) as caught:
        run_grid(bad, jobs=2)
    assert isinstance(caught.value, FabricError)
    with pytest.raises(ApiError, match="bad parameters for policy 'ssp'"):
        run_grid(bad, jobs=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_sweep_keeps_completed_cells_in_checkpoint(tmp_path, jobs):
    """A failing cell must not discard finished work: completed cells are
    already in the checkpoint, so --resume pays only for the rest. (On
    two workers the bad cell is out of retries long before the good one
    finishes: the sweep waits for cells in flight before it raises.)"""
    bad = {
        "base": {**GRID["base"], "max_updates": 200},
        "grid": {"barrier": ["asp", "ssp:0"]},
    }
    ck = tmp_path / "sweep.ckpt.jsonl"
    with pytest.raises(
        ReproError, match="bad parameters for policy 'ssp'"
    ) as caught:
        run_grid(bad, jobs=jobs, checkpoint=ck)
    assert isinstance(caught.value, ApiError if jobs == 1 else FabricError)
    entries = [json.loads(line) for line in ck.read_text().splitlines()]
    assert [e["index"] for e in entries] == [0]  # the asp cell survived


# ---------------------------------------------------------------------------
# What the fabric does for ``jobs=N`` that the process pool used to
# ---------------------------------------------------------------------------

ONE_GROUP = {
    "base": {**GRID["base"], "max_updates": 150},
    "grid": {
        "barrier": ["asp", "ssp:2", "ssp:4", "bsp"], "num_workers": [2, 4],
    },
}


def test_one_group_sweep_is_shared_between_the_forked_workers(tmp_path):
    """Eight cells that share a dataset used to be leased whole to the
    first worker that asked (slower than serial on two cores)."""
    from repro.fabric import read_status

    ck = tmp_path / "sweep.ckpt.jsonl"
    assert run_grid(ONE_GROUP, jobs=2, checkpoint=ck) == run_grid(ONE_GROUP)
    status = read_status(ck)
    assert status["finished"] and status["done"] == 8
    done = [w["cells_done"] for w in status["workers"].values()]
    assert len(done) == 2 and min(done) >= 1 and sum(done) == 8


@contextlib.contextmanager
def _within(seconds):
    """Fail, rather than hang the suite, if the body is still running
    after ``seconds`` (an alarm, not a thread: the body forks)."""
    def on_alarm(signum, frame):
        raise AssertionError(f"still running after {seconds}s")

    prev = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, prev)


@pytest.mark.parametrize(
    "how", [{"jobs": 1}, {"jobs": 2}, {"fabric": "local:2"}], ids=str
)
def test_raising_progress_callback_fails_the_sweep(how):
    """On forked workers the callback runs on a coordinator thread; its
    exception used to kill that thread and leave ``run_grid`` waiting."""
    class Boom(Exception):
        pass

    def progress(k, total, summary):
        raise Boom(f"cell {k}")

    with _within(30), pytest.raises(Boom):
        run_grid(GRID, progress=progress, **how)


def test_sweep_whose_forked_workers_all_die_raises(tmp_path, monkeypatch):
    """SIGKILL both workers mid-cell: nobody is left to lease to and
    nobody else was told the endpoint, so the sweep fails (it used to
    wait for ever) naming what is unrecorded."""
    from repro.api import parallel

    def dying_cell(spec_dict):
        os.kill(os.getpid(), signal.SIGKILL)

    # Forked workers inherit the patch; the driver never runs a cell.
    monkeypatch.setattr(parallel, "run_cell", dying_cell)
    ck = tmp_path / "sweep.ckpt.jsonl"
    with _within(30), pytest.raises(
        FabricError, match=r"6 cell\(s\) unrecorded: \[0, 1, 2, 3, 4, 5\]"
    ):
        run_grid(GRID, jobs=2, checkpoint=ck)
    assert ck.read_text() == ""


def test_run_cells_bench_runner_returns_results_in_order():
    """Records from forked workers decode as claim results, in order."""
    specs = GridSpec.coerce(GRID).expand()[:2]
    from repro.bench.harness import ExperimentResult

    results = [
        ExperimentResult.from_dict(wire)
        for wire in run_sweep_cells(specs, jobs=2)
    ]
    assert [r.spec for r in results] == specs
    assert all(r.final_error < r.initial_error for r in results)


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

def test_checkpoint_streams_one_line_per_cell(tmp_path):
    ck = tmp_path / "sweep.ckpt.jsonl"
    full = run_grid(GRID, checkpoint=ck)
    lines = ck.read_text().splitlines()
    assert len(lines) == 6
    entries = [json.loads(line) for line in lines]
    assert sorted(e["index"] for e in entries) == list(range(6))
    specs = GridSpec.coerce(GRID).expand()
    for entry in entries:
        assert entry["key"] == run_key(specs[entry["index"]])
        assert entry["summary"] == full[entry["index"]]


def test_resume_runs_only_unfinished_cells(tmp_path, monkeypatch):
    from repro.api import parallel

    ck = tmp_path / "sweep.ckpt.jsonl"
    full = run_grid(GRID, checkpoint=ck)
    lines = ck.read_text().splitlines()
    # Simulate a sweep killed after 2 cells.
    ck.write_text("\n".join(lines[:2]) + "\n")

    executed = []
    orig = parallel.run_cell

    def counting_cell(spec_dict):
        executed.append(spec_dict["policy"])
        return orig(spec_dict)

    monkeypatch.setattr(parallel, "run_cell", counting_cell)
    resumed = run_grid(GRID, checkpoint=ck, resume=True)
    assert resumed == full
    assert len(executed) == 4  # the 4 cells the "interrupt" lost
    # the kept lines are untouched; only missing cells were appended
    new_lines = ck.read_text().splitlines()
    assert new_lines[:2] == lines[:2]
    assert len(new_lines) == 6


def test_resume_accepts_parent_written_fuse_tasks_lines(tmp_path, monkeypatch):
    """A checkpoint written while ``fuse_tasks`` was still a spec field
    carries it inside the run key (``false`` was non-default, so it was
    emitted). Such a key predates trajectory epoch 2, so its result is
    no trajectory this code computes: the file is read without error,
    every one of its cells re-runs, and the result equals a clean
    sweep's."""
    from repro.api import parallel

    ck = tmp_path / "sweep.ckpt.jsonl"
    full = run_grid(GRID, checkpoint=ck)
    lines = []
    for raw in ck.read_text().splitlines()[:3]:
        entry = json.loads(raw)
        key = {**json.loads(entry["key"]), "fuse_tasks": False}
        entry["key"] = json.dumps(key, sort_keys=True, separators=(",", ":"))
        entry["summary"]["spec"]["fuse_tasks"] = False
        lines.append(json.dumps(entry, separators=(",", ":")))
    ck.write_text("\n".join(lines) + "\n")

    executed = []
    orig = parallel.run_cell
    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    resumed = run_grid(GRID, checkpoint=ck, resume=True)
    assert len(executed) == len(full)  # the old lines match no cell
    assert resumed == full


def _spoil_line(ck, index, partial):
    """Rewrite line ``index`` of ``ck`` so its summary is no whole record:
    a string, or the recorded spec alone."""
    lines = ck.read_text().splitlines()
    entry = json.loads(lines[index])
    entry["summary"] = (
        "garbage" if partial == "garbage"
        else {"spec": entry["summary"]["spec"]}
    )
    lines[index] = json.dumps(entry, separators=(",", ":"))
    ck.write_text("\n".join(lines) + "\n")
    return entry["index"]


@pytest.mark.parametrize("partial", ["garbage", "spec_only"])
def test_resume_reruns_only_the_cell_with_a_partial_line(
    tmp_path, monkeypatch, partial
):
    """A matching line is reused only when it holds every record field;
    one that does not (it used to come back as the cell's result) re-runs
    its cell, and only that one."""
    from repro.api import parallel

    specs = GridSpec.coerce(GRID).expand()[:3]
    ck = tmp_path / "sweep.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    spoiled = _spoil_line(ck, 1, partial)
    executed = []
    orig = parallel.run_cell
    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    resumed = parallel.run_sweep_cells(specs, checkpoint=ck, resume=True)
    assert executed == [specs[spoiled].to_dict()]
    assert resumed == fresh


@pytest.mark.parametrize("partial", ["garbage", "spec_only"])
def test_fabric_resume_reruns_the_cell_with_a_partial_line(
    tmp_path, partial
):
    """The driver and a relaunched coordinator's recovery apply the same
    test: the spoiled cell is leased, re-run and recorded (not marked
    done from its line and then missing)."""
    from repro.api import parallel
    from repro.fabric import read_status

    specs = GridSpec.coerce(GRID).expand()[:3]
    ck = tmp_path / "sweep.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    spoiled = _spoil_line(ck, 1, partial)
    resumed = parallel.run_sweep_cells(
        specs, checkpoint=ck, resume=True, fabric="local:1"
    )
    assert resumed == fresh
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    assert [e["index"] for e in lines[len(specs):]] == [spoiled]
    assert lines[-1]["summary"] == fresh[spoiled]
    status = read_status(ck)
    assert (status["recovered"], status["done"]) == (0, 1)


def test_resume_reruns_cells_recorded_under_another_trajectory_epoch(
    tmp_path, monkeypatch
):
    """``run_key`` carries ``TRAJECTORY_EPOCH``: a line keyed by the spec
    alone (what epoch 1 wrote) or by another epoch matches no cell, so
    resume re-runs its cell instead of reusing a stale trajectory — also
    when the key spells a retired field (no key is normalised on
    read)."""
    from repro.api import parallel
    from repro.utils.rng import TRAJECTORY_EPOCH

    specs = GridSpec.coerce(GRID).expand()[:3]
    ck = tmp_path / "old.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    assert all(f'"trajectory_epoch":{TRAJECTORY_EPOCH}' in key
               for _i, key, _w in SweepCheckpoint(ck).entries())
    lines = []
    for raw in ck.read_text().splitlines():
        entry = json.loads(raw)
        spec = specs[entry["index"]].to_dict()
        if entry["index"] == 2:
            spec.update(trajectory_epoch=TRAJECTORY_EPOCH + 1,
                        step_time="pass")
        entry["key"] = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        lines.append(json.dumps(entry, separators=(",", ":")))
    ck.write_text("\n".join(lines) + "\n")

    executed = []
    orig = parallel.run_cell
    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    resumed = parallel.run_sweep_cells(specs, checkpoint=ck, resume=True)
    assert len(executed) == len(specs)
    assert resumed == fresh


def _rekeyed_checkpoint(ck, **retired):
    """Rewrite every line of ``ck`` as if its spec carried ``retired``
    keys, in the run key and in the recorded summary's ``spec``."""
    lines = []
    for raw in ck.read_text().splitlines():
        entry = json.loads(raw)
        old = {**entry["summary"]["spec"], **retired}
        entry["key"] = json.dumps(old, sort_keys=True, separators=(",", ":"))
        entry["summary"]["spec"] = old
        lines.append(json.dumps(entry, separators=(",", ":")))
    ck.write_text("\n".join(lines) + "\n")
    return lines


@pytest.mark.parametrize("fabric", [None, "local:1"])
def test_resume_accepts_parent_written_retired_key_lines(
    tmp_path, monkeypatch, fabric
):
    """The commit that retired them wrote ``"max_time_ms": null`` and
    ``"step_time": "pass"`` into every spec, so every key it minted
    carries both, and no trajectory epoch: those results predate epoch
    2. Such a checkpoint is read without error, in process and on the
    fabric, and every cell re-runs (a relaunched coordinator's recovery
    counts no line as done); the records equal a clean sweep's."""
    from repro.api import parallel
    from repro.fabric import SweepCoordinator

    specs = GridSpec.coerce(GRID).expand()[:4]
    ck = tmp_path / "parent.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    lines = _rekeyed_checkpoint(ck, max_time_ms=None, step_time="pass")
    cells = [(i, run_key(s), s.to_dict()) for i, s in enumerate(specs)]
    coordinator = SweepCoordinator(cells, resume_from=ck)
    assert coordinator.recovered == 0 and coordinator.results == {}
    resumed = parallel.run_sweep_cells(
        specs, checkpoint=ck, resume=True, fabric=fabric
    )
    assert resumed == fresh
    appended = ck.read_text().splitlines()
    assert appended[:len(lines)] == lines  # old lines kept, not matched
    assert len(appended) == 2 * len(specs)  # every cell recorded again


def test_resume_reruns_cells_recorded_with_a_retired_non_default(tmp_path):
    """A line recording ``"step_time": "update"`` described another run:
    it matches no cell, so its cell re-runs — quietly, with no
    traceback from the checkpoint reader."""
    from repro.api import parallel

    specs = GridSpec.coerce(GRID).expand()[:2]
    ck = tmp_path / "parent.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    _rekeyed_checkpoint(ck, step_time="update")
    assert all(key != run_key(s) for (_i, key, _w), s in
               zip(SweepCheckpoint(ck).entries(), specs))
    resumed = parallel.run_sweep_cells(specs, checkpoint=ck, resume=True)
    assert resumed == fresh
    assert len(ck.read_text().splitlines()) == 2 * len(specs)


def _parent_spec_dict(spec, spelled):
    """``spec.to_dict()`` as the commit before ``barrier`` was folded
    into ``policy`` wrote it: ``barrier`` always present — carrying the
    value when the user spelled it that way, null next to ``policy``
    otherwise. (Checked byte for byte against that commit's ``run_key``
    when this test was written.)"""
    data = spec.to_dict()
    data["barrier"] = data.pop("policy", None) if spelled == "barrier" else None
    return data


#: How each front door of the sweep driver reads its records: ``run_grid``
#: returns the summaries as they are, ``run_claims`` decodes each one.
READERS = {
    "summary": lambda record: record,
    "bench": ExperimentResult.from_dict,
}


@pytest.mark.parametrize("spelled", ["barrier", "policy"])
@pytest.mark.parametrize("runner", ["summary", "bench"])
def test_resume_accepts_checkpoints_keyed_with_barrier(
    tmp_path, monkeypatch, runner, spelled
):
    """Every key minted by the commit before ``barrier`` was folded into
    ``policy`` contains ``"barrier":`` and no trajectory epoch: those
    results predate epoch 2. Such a stream is read without error, every
    one of its cells re-runs, for both front doors, and the records
    equal a clean sweep's."""
    from repro.api import parallel
    from repro.fabric import read_status

    specs = GridSpec.coerce(GRID).expand()[:4]
    ck = tmp_path / "parent.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck)
    lines = []
    for raw in ck.read_text().splitlines():
        entry = json.loads(raw)
        old = _parent_spec_dict(specs[entry["index"]], spelled)
        entry["key"] = json.dumps(old, sort_keys=True, separators=(",", ":"))
        assert '"barrier":' in entry["key"] and entry["key"] != run_key(old)
        entry["summary"]["spec"] = old
        lines.append(json.dumps(entry, separators=(",", ":")))
    ck.write_text("\n".join(lines) + "\n")

    executed = []
    orig = parallel.run_cell
    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    resumed = parallel.run_sweep_cells(specs, checkpoint=ck, resume=True)
    assert executed == [s.to_dict() for s in specs]  # every cell re-ran
    assert resumed == fresh  # recorded specs included: no ``barrier``
    read = READERS[runner]
    assert list(map(read, resumed)) == list(map(read, fresh))
    assert [ExperimentSpec.from_dict(r["spec"]) for r in resumed] == specs
    appended = ck.read_text().splitlines()
    assert appended[:len(lines)] == lines  # old lines kept, not matched
    new_keys = [key for _i, key, _s in SweepCheckpoint(ck).entries()][4:]
    assert new_keys == list(map(run_key, specs))
    assert read_status(ck)["recorded"] == 2 * len(specs)


@pytest.mark.parametrize("runner", ["summary", "bench"])
def test_relaunched_fabric_sweep_hands_the_checkpoint_to_the_coordinator(
    tmp_path, monkeypatch, runner
):
    """The fabric branch passes ``resume_from`` whichever front door
    drives it: a relaunched coordinator must seal and re-read the stream
    its killed predecessor (and that predecessor's workers) wrote."""
    import repro.fabric as fabric
    from repro.api import parallel

    specs = GridSpec.coerce(GRID).expand()[:2]
    ck = tmp_path / "sweep.ckpt.jsonl"
    parallel.run_sweep_cells(specs[:1], checkpoint=ck)
    seen = []

    def fake_fabric(cells, *, on_result, **kwargs):
        seen.append({**kwargs, "indices": [index for index, _k, _s in cells]})
        for index, key, spec_dict in cells:
            on_result(index, key, parallel.run_cell(spec_dict))

    monkeypatch.setattr(fabric, "run_fabric_cells", fake_fabric)
    resumed = parallel.run_sweep_cells(
        specs, checkpoint=ck, resume=True, fabric="local:1"
    )
    assert [(call["resume_from"], call["indices"])
            for call in seen] == [(ck, [1])]
    fresh = parallel.run_sweep_cells(specs, checkpoint=ck, fabric="local:1")
    assert seen[-1]["resume_from"] is None  # a fresh sweep has no past
    assert seen[-1]["indices"] == [0, 1]
    read = READERS[runner]
    assert list(map(read, resumed)) == list(map(read, fresh))


def test_resume_with_pool_appends_only_missing_cells(tmp_path):
    ck = tmp_path / "sweep.ckpt.jsonl"
    full = run_grid(GRID, checkpoint=ck, jobs=2)
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:3]) + "\n")
    resumed = run_grid(GRID, checkpoint=ck, resume=True, jobs=2)
    assert resumed == full
    assert len(ck.read_text().splitlines()) == 6


def test_resume_ignores_stale_entries_from_an_edited_grid(tmp_path):
    ck = tmp_path / "sweep.ckpt.jsonl"
    run_grid(GRID, checkpoint=ck)
    edited = {
        "base": {**GRID["base"], "max_updates": 8},  # every cell changes
        "grid": GRID["grid"],
    }
    resumed = run_grid(edited, checkpoint=ck, resume=True)
    assert all(s["updates"] == 8 for s in resumed)


def test_fresh_sweep_resets_stale_checkpoint(tmp_path):
    """A non-resume sweep starts a fresh record: repeating it must not
    accumulate duplicate lines (the CLI checkpoints every sweep)."""
    ck = tmp_path / "sweep.ckpt.jsonl"
    run_grid(GRID, checkpoint=ck)
    run_grid(GRID, checkpoint=ck)
    assert len(ck.read_text().splitlines()) == 6


def test_unwritable_checkpoint_fails_before_any_cell(tmp_path, monkeypatch):
    from pathlib import Path

    from repro.api import parallel

    executed = []
    monkeypatch.setattr(
        parallel, "run_cell",
        lambda spec: executed.append(spec) or {},
    )

    def denied(self, *args, **kwargs):  # an -EACCES mount, as root sees it
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", denied)
    with pytest.raises(ApiError, match="cannot write checkpoint"):
        run_grid(GRID, checkpoint=tmp_path / "ro" / "sweep.ckpt.jsonl")
    assert executed == []  # fail fast, not after cell one


def test_serial_sweep_groups_cells_like_the_pool(monkeypatch):
    """jobs=1 shares datasets per group even when the grid's fastest axis
    is the seed — the serial loop runs in group order, so the speedup
    benchmark's serial baseline measures cores, not cell ordering."""
    from unittest import mock

    from repro.api.parallel import clear_shared_cache
    from repro.data import registry as data_registry

    gen_calls = []
    orig_generate = data_registry.DatasetSpec.generate

    def counting_generate(self, seed=0):
        gen_calls.append(seed)
        return orig_generate(self, seed)

    clear_shared_cache()
    grid = {
        "base": dict(GRID["base"]),
        "grid": {"barrier": ["asp", "bsp"], "seed": [0, 1]},  # seed fastest
    }
    with mock.patch.object(data_registry.DatasetSpec, "generate",
                           counting_generate):
        summaries = run_grid(grid)
    assert sorted(gen_calls) == [0, 1]  # one build per group, not per cell
    assert [s["spec"]["seed"] for s in summaries] == [0, 1, 0, 1]


def test_serial_sweep_releases_shared_slot_on_return():
    """The main process must not pin the last dataset/problem after a
    sweep returns (a notebook would hold megabytes forever)."""
    from repro.api.parallel import _SHARED

    run_grid(GRID)
    assert _SHARED["dataset"] is None
    assert _SHARED["problem"] is None


def test_resume_without_checkpoint_rejected():
    with pytest.raises(ApiError, match="resume requires a checkpoint"):
        run_grid(GRID, resume=True)


def test_checkpoint_tolerates_truncated_final_line(tmp_path):
    ck = tmp_path / "sweep.ckpt.jsonl"
    full = run_grid(GRID, checkpoint=ck)
    with ck.open("a") as fh:
        fh.write('{"index": 99, "key": "half-writ')  # kill mid-write
    resumed = run_grid(GRID, checkpoint=ck, resume=True)
    assert resumed == full


def test_checkpoint_load_roundtrip(tmp_path):
    ck = SweepCheckpoint(tmp_path / "x.jsonl")
    assert ck.load() == {}
    ck.append(1, "k1", {"a": 1})
    ck.append(0, "k0", {"b": 2.5})
    ck.append(1, "k1b", {"a": 9})  # later line wins
    assert ck.load() == {0: ("k0", {"b": 2.5}), 1: ("k1b", {"a": 9})}


# ---------------------------------------------------------------------------
# Cache keys survive processes and sessions
# ---------------------------------------------------------------------------

def test_run_key_is_canonical_and_order_insensitive():
    a = run_key({"algorithm": "asgd", "dataset": "tiny_dense", "seed": 1})
    b = run_key({"seed": 1, "dataset": "tiny_dense", "algorithm": "asgd"})
    assert a == b
    assert run_key({"algorithm": "asgd", "dataset": "tiny_dense"}) != a
    assert json.loads(a)["seed"] == 1  # plain JSON, not repr soup


def test_numpy_integers_in_a_grid_run_like_ints():
    """A grid axis of NumPy integers (``list(np.arange(2))``) keys and
    runs exactly like one of ints, and so does a NumPy-int base field."""
    ints = {"base": {"max_updates": 5}, "grid": {"seed": [0, 1]}}
    numpy = {"base": {"max_updates": 5}, "grid": {"seed": list(np.arange(2))}}
    assert run_grid(numpy) == run_grid(ints)
    assert ([run_key(s) for s in GridSpec.coerce(numpy).expand()]
            == [run_key(s) for s in GridSpec.coerce(ints).expand()])
    base = ExperimentSpec(seed=np.int64(3), max_updates=5)
    assert type(base.seed) is int
    assert run_key(base) == run_key(ExperimentSpec(seed=3, max_updates=5))
    assert run_grid({"base": base, "grid": {}}) == run_grid(
        {"base": {"seed": 3, "max_updates": 5}, "grid": {}}
    )


def test_component_key_keys_names_and_dicts_and_refuses_instances():
    from repro.core.policies import SSP

    assert component_key("ssp:4") == "ssp:4"
    assert (component_key({"name": "ssp", "threshold": 4})
            == component_key({"threshold": 4, "name": "ssp"}))
    # Grids and run_key refuse specs that hold built objects, so no
    # cache ever needs a key for one.
    with pytest.raises(ApiError, match="cannot key a built SSP"):
        component_key(SSP(4))


def test_group_key_groups_shared_components():
    specs = GridSpec.coerce(GRID).expand()
    assert len({group_key(s) for s in specs}) == 1
    seeded = GridSpec.coerce({
        "base": GRID["base"], "grid": {"seed": [0, 1]},
    }).expand()
    assert len({group_key(s) for s in seeded}) == 2


def test_initial_objective_cached_on_problem():
    """summarize reads f(w0) from the problem cache — one full-dataset
    pass per shared problem, not one per cell."""
    from unittest import mock

    from repro.data.registry import get_dataset
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = get_dataset("tiny_dense", seed=0)
    problem = LeastSquaresProblem(X, y)
    w0 = problem.initial_point()
    with mock.patch.object(
        LeastSquaresProblem, "objective",
        side_effect=problem.objective, autospec=False,
    ) as counted:
        first = problem.f_initial
        again = problem.f_initial
    assert first == again
    assert counted.call_count == 1
    assert problem.initial_error() == problem.error(w0)
