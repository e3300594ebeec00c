"""Bench-runner checkpoint/resume: ExperimentResult rows as JSONL."""

import json

import pytest

from repro.api.parallel import run_key, run_sweep_cells
from repro.api.spec import ExperimentSpec
from repro.bench.figures import PAPER_CELL
from repro.bench.harness import ExperimentResult, run_api_experiment
from repro.errors import ReproError

CELL = PAPER_CELL.with_overrides(
    dataset="tiny_dense", algorithm="asgd", policy="asp", num_workers=2,
    num_partitions=4, max_updates=6,
)


def _specs(n=2):
    return [CELL.with_overrides(seed=seed) for seed in range(n)]


@pytest.fixture
def executed(monkeypatch):
    """Spec of every cell body that actually runs (in-process sweeps)."""
    from repro.api import parallel

    seen = []
    real_cell = parallel._bench_cell

    def counting(spec_dict):
        seen.append(ExperimentSpec.coerce(spec_dict))
        return real_cell(spec_dict)

    monkeypatch.setattr(parallel, "_bench_cell", counting)
    return seen


def run_bench_cells(specs, **kwargs):
    """The figure drivers' call into the one checkpointed sweep driver."""
    return run_sweep_cells(
        specs, runner="bench", decode=ExperimentResult.from_dict, **kwargs
    )


# -- serialization round trip --------------------------------------------------------
def test_experiment_result_round_trips_through_json():
    result = run_api_experiment(CELL)
    wire = json.loads(json.dumps(result.to_dict()))  # full JSON round trip
    back = ExperimentResult.from_dict(wire)
    assert isinstance(back.spec, ExperimentSpec)
    assert back.spec == CELL
    assert back.final_error == result.final_error
    assert back.initial_error == result.initial_error
    assert back.elapsed_ms == result.elapsed_ms
    assert back.updates == result.updates
    assert back.rounds == result.rounds
    assert back.error_series == result.error_series
    assert back.total_task_bytes == result.total_task_bytes
    assert back.time_to_error(back.relative_target(0.9)) == pytest.approx(
        result.time_to_error(result.relative_target(0.9))
    )


def test_to_dict_keeps_only_scalar_extras():
    result = run_api_experiment(CELL)
    result.extras["unpicklable"] = object()
    wire = result.to_dict()
    assert "unpicklable" not in wire["extras"]
    assert wire["extras"]["collected"] == result.extras["collected"]


def test_from_dict_rejects_run_grid_summary_rows():
    """A run_grid summary shares the file format and keys but has no
    error series — restoring one as a bench result must fail loudly."""
    from repro.api.runner import prepare_experiment, summarize

    prep = prepare_experiment(_specs(1)[0])
    summary = summarize(prep, prep.execute())
    with pytest.raises(ReproError, match="not a bench ExperimentResult"):
        ExperimentResult.from_dict(summary)


# -- checkpoint stream ---------------------------------------------------------------
def test_bench_checkpoint_writes_one_line_per_cell(tmp_path):
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(2)
    results = run_bench_cells(specs, checkpoint=ckpt)
    lines = [json.loads(x) for x in ckpt.read_text().splitlines()]
    assert len(lines) == 2
    assert {entry["key"] for entry in lines} == {run_key(s) for s in specs}
    by_key = {entry["key"]: entry["summary"] for entry in lines}
    for spec, result in zip(specs, results):
        assert by_key[run_key(spec)] == result.to_dict()


def test_bench_resume_restores_without_rerunning(tmp_path, executed):
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(2)
    first = run_bench_cells(specs, checkpoint=ckpt)
    assert executed == specs

    executed.clear()
    second = run_bench_cells(specs, checkpoint=ckpt, resume=True)
    assert executed == []  # everything restored from the stream
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


def test_bench_resume_matches_by_key_across_batch_shapes(tmp_path, executed):
    """A row restores any requested cell with the same canonical spec,
    even when the new batch slices/orders the cells differently."""
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(3)
    run_bench_cells(specs[:2], checkpoint=ckpt)

    executed.clear()
    # reversed order + one unseen cell: only the unseen cell runs.
    out = run_bench_cells(list(reversed(specs)), checkpoint=ckpt, resume=True)
    assert executed == [specs[2]]
    assert [r.spec for r in out] == list(reversed(specs))
    # and the fresh cell was appended, so a further resume runs nothing.
    executed.clear()
    run_bench_cells(specs, checkpoint=ckpt, resume=True)
    assert executed == []


def test_bench_resume_decodes_rows_recorded_with_barrier_key(tmp_path, monkeypatch):
    """Figure checkpoints written while async cells carried
    ``barrier="asp"`` restore as today's specs, with nothing re-run."""
    def recorded_with_barrier(spec_dict):
        old = dict(spec_dict)
        old["barrier"] = old.pop("policy")
        return old

    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(2)
    first = run_bench_cells(specs, checkpoint=ckpt)
    lines = []
    for raw in ckpt.read_text().splitlines():
        entry = json.loads(raw)
        entry["key"] = json.dumps(
            recorded_with_barrier(json.loads(entry["key"])),
            sort_keys=True, separators=(",", ":"),
        )
        assert '"barrier":"asp"' in entry["key"]
        assert '"policy"' not in entry["key"]
        entry["summary"]["spec"] = recorded_with_barrier(entry["summary"]["spec"])
        lines.append(json.dumps(entry, separators=(",", ":")))
    ckpt.write_text("\n".join(lines) + "\n")

    from repro.api import parallel as parallel_mod

    monkeypatch.setattr(
        parallel_mod, "resolve_runner",
        lambda name: pytest.fail("a recorded cell was re-run"),
    )
    second = run_bench_cells(specs, checkpoint=ckpt, resume=True)
    assert [r.spec for r in second] == specs
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]


def test_bench_resume_requires_checkpoint_path():
    with pytest.raises(ReproError, match="resume requires"):
        run_bench_cells(_specs(1), resume=True)


def test_bench_checkpoint_without_resume_resets(tmp_path):
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(1)
    run_bench_cells(specs, checkpoint=ckpt)
    run_bench_cells(specs, checkpoint=ckpt)  # fresh run: truncate first
    lines = [x for x in ckpt.read_text().splitlines() if x.strip()]
    assert len(lines) == 1


def test_bench_progress_hook_counts_restored_cells(tmp_path):
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(2)
    run_bench_cells(specs[:1], checkpoint=ckpt)
    seen = []
    run_bench_cells(
        specs, checkpoint=ckpt, resume=True,
        progress=lambda k, total, res: seen.append((k, total)),
    )
    assert seen == [(0, 2), (1, 2)]


# -- figure-driver wiring ------------------------------------------------------------
def test_figures_checkpoint_survives_cache_clear(tmp_path, executed):
    from repro.bench import figures

    ckpt = tmp_path / "figures.ckpt.jsonl"
    figures.clear_cache()
    figures.set_checkpoint(str(ckpt))
    try:
        kwargs = dict(
            dataset="tiny_dense", barriers=("asp", "bsp"), updates=8,
            delay="cds:1.0", verbose=False,
        )
        figures.ablation_barriers(**kwargs)
        ran = len(executed)
        assert ran == 2
        # a fresh process (simulated: drop the in-memory cache) replays
        # the cells from the checkpoint stream instead of re-running.
        figures.clear_cache()
        out = figures.ablation_barriers(**kwargs)
        assert len(executed) == ran
        assert set(out["cells"]) == {"asp", "bsp"}
    finally:
        figures.set_checkpoint(None)
        figures.clear_cache()
