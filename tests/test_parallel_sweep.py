"""The parallel sweep engine: parity, ordering, checkpoint/resume."""

import contextlib
import json
import os
import signal

import pytest

from repro.api import run_grid
from repro.api.parallel import (
    SweepCheckpoint,
    group_key,
    run_cells,
    run_key,
    resolve_jobs,
)
from repro.api.runner import component_key
from repro.api.spec import ExperimentSpec, GridSpec
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
    monkeypatch.setattr(parallel, "_summary_cell", dying_cell)
    ck = tmp_path / "sweep.ckpt.jsonl"
    with _within(30), pytest.raises(
        FabricError, match=r"6 cell\(s\) unrecorded: \[0, 1, 2, 3, 4, 5\]"
    ):
        run_grid(GRID, jobs=2, checkpoint=ck)
    assert ck.read_text() == ""


def test_run_cells_bench_runner_returns_results_in_order():
    specs = GridSpec.coerce(GRID).expand()[:2]
    from repro.bench.harness import ExperimentResult

    results = [
        ExperimentResult.from_dict(wire)
        for wire in run_cells(specs, runner="bench", jobs=2)
    ]
    assert [r.spec.policy for r in results] == ["asp", "asp"]
    assert all(r.final_error < r.initial_error for r in results)


def test_unknown_runner_rejected():
    with pytest.raises(ApiError, match="unknown cell runner"):
        run_cells([ExperimentSpec()], runner="bogus")


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
    orig = parallel._summary_cell

    def counting_cell(spec_dict):
        executed.append(spec_dict["policy"])
        return orig(spec_dict)

    monkeypatch.setattr(parallel, "_summary_cell", counting_cell)
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
    emitted). Those cells must still count as done on resume."""
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
    orig = parallel._summary_cell
    monkeypatch.setattr(
        parallel, "_summary_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    resumed = run_grid(GRID, checkpoint=ck, resume=True)
    assert len(executed) == 3  # only the cells the old file lacked
    # Restored summaries have the shape of fresh ones: the retired key is
    # normalised out of the recorded spec as it is out of the run key.
    assert resumed == full


def _parent_spec_dict(spec, spelled):
    """``spec.to_dict()`` as the commit before ``barrier`` was folded
    into ``policy`` wrote it: ``barrier`` always present — carrying the
    value when the user spelled it that way, null next to ``policy``
    otherwise. (Checked byte for byte against that commit's ``run_key``
    when this test was written.)"""
    data = spec.to_dict()
    data["barrier"] = data.pop("policy", None) if spelled == "barrier" else None
    return data


@pytest.mark.parametrize("spelled", ["barrier", "policy"])
@pytest.mark.parametrize("runner", ["summary", "bench"])
def test_resume_accepts_checkpoints_keyed_with_barrier(
    tmp_path, monkeypatch, runner, spelled
):
    """Every key minted at the parent commit contains ``"barrier":``;
    such a stream resumes with zero cells re-run, for both runners, and
    every reader of its keys sees today's canonical form."""
    from repro.api import parallel
    from repro.fabric import read_status

    specs = GridSpec.coerce(GRID).expand()[:4]
    ck = tmp_path / "parent.ckpt.jsonl"
    fresh = parallel.run_sweep_cells(specs, runner=runner, checkpoint=ck)
    lines = []
    for raw in ck.read_text().splitlines():
        entry = json.loads(raw)
        old = _parent_spec_dict(specs[entry["index"]], spelled)
        entry["key"] = json.dumps(old, sort_keys=True, separators=(",", ":"))
        assert '"barrier":' in entry["key"] and entry["key"] != run_key(old)
        entry["summary"]["spec"] = old
        lines.append(json.dumps(entry, separators=(",", ":")))
    ck.write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(
        parallel, "resolve_runner",
        lambda name: pytest.fail("a recorded cell was re-run"),
    )
    resumed = parallel.run_sweep_cells(
        specs, runner=runner, checkpoint=ck, resume=True
    )
    assert resumed == fresh  # recorded specs included: no ``barrier`` comes back
    assert ck.read_text().splitlines() == lines  # nothing re-appended
    entries = SweepCheckpoint(ck).entries()
    assert sorted(key for _i, key, _s in entries) == sorted(map(run_key, specs))
    assert not any("barrier" in wire["spec"] for _i, _key, wire in entries)
    assert read_status(ck)["recorded"] == len(specs)


@pytest.mark.parametrize("runner", ["summary", "bench"])
def test_relaunched_fabric_sweep_hands_the_checkpoint_to_the_coordinator(
    tmp_path, monkeypatch, runner
):
    """The fabric branch passes ``resume_from`` whichever runner drives
    it: a relaunched coordinator must seal and re-read the stream its
    killed predecessor (and that predecessor's workers) wrote."""
    import repro.fabric as fabric
    from repro.api import parallel

    specs = GridSpec.coerce(GRID).expand()[:2]
    ck = tmp_path / "sweep.ckpt.jsonl"
    parallel.run_sweep_cells(specs[:1], runner=runner, checkpoint=ck)
    seen = []

    def fake_fabric(cells, *, on_result, **kwargs):
        seen.append({**kwargs, "indices": [index for index, _k, _s in cells]})
        for index, key, spec_dict in cells:
            on_result(index, key, parallel.resolve_runner(runner)(spec_dict))

    monkeypatch.setattr(fabric, "run_fabric_cells", fake_fabric)
    parallel.run_sweep_cells(
        specs, runner=runner, checkpoint=ck, resume=True, fabric="local:1"
    )
    assert [(call["runner"], call["resume_from"], call["indices"])
            for call in seen] == [(runner, ck, [1])]
    parallel.run_sweep_cells(specs, runner=runner, checkpoint=ck,
                             fabric="local:1")
    assert seen[-1]["resume_from"] is None  # a fresh sweep has no past
    assert seen[-1]["indices"] == [0, 1]


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
        parallel, "_summary_cell",
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


def test_component_key_stable_across_instances():
    from repro.core.policies import SSP

    assert component_key("ssp:4") == "ssp:4"
    assert (component_key({"name": "ssp", "threshold": 4})
            == component_key({"threshold": 4, "name": "ssp"}))
    assert component_key(SSP(4)) == component_key(SSP(4))
    assert component_key(SSP(4)) != component_key(SSP(5))
    assert "SSP" in component_key(SSP(4))


def test_component_key_unchanged_by_lazy_caches():
    """cached_property materialization must not shift a problem's identity
    mid-sweep (w_star/f_star appear on first use)."""
    from repro.data.registry import get_dataset
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = get_dataset("tiny_dense", seed=0)
    problem = LeastSquaresProblem(X, y)
    before = component_key(problem)
    problem.f_star  # materializes w_star + f_star
    problem.f_initial
    assert component_key(problem) == before
    assert component_key(problem) == component_key(LeastSquaresProblem(X, y))


def test_component_key_fingerprints_array_content():
    """Same-shape, different-data problems must not collide — an alias
    here hands one cell the other's solved optimum."""
    from repro.data.registry import get_dataset
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = get_dataset("tiny_dense", seed=0)
    a = LeastSquaresProblem(X, y)
    b = LeastSquaresProblem(X, y * 5.0)
    assert component_key(a) != component_key(b)
    assert component_key(a) == component_key(LeastSquaresProblem(X, y))
    # sparse data fingerprints too
    Xs, ys, _ = get_dataset("tiny_sparse", seed=0)
    sa = LeastSquaresProblem(Xs, ys)
    sb = LeastSquaresProblem(Xs, ys * 5.0)
    assert component_key(sa) != component_key(sb)
    assert component_key(sa) == component_key(LeastSquaresProblem(Xs, ys))


def test_prepare_shared_distinguishes_same_shape_problems():
    from repro.api.parallel import clear_shared_cache, prepare_shared
    from repro.data.registry import get_dataset
    from repro.optim.problems import LeastSquaresProblem

    X, y, _ = get_dataset("tiny_dense", seed=0)
    prob_a = LeastSquaresProblem(X, y)
    prob_b = LeastSquaresProblem(X, y * 5.0)
    clear_shared_cache()
    base = dict(dataset="tiny_dense", num_workers=4, num_partitions=8,
                max_updates=4, seed=0)
    prep_a = prepare_shared(ExperimentSpec(problem=prob_a, **base))
    prep_b = prepare_shared(ExperimentSpec(problem=prob_b, **base))
    assert prep_a.problem is prob_a
    assert prep_b.problem is prob_b  # not prob_a's solve, reused wrongly
    clear_shared_cache()


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
