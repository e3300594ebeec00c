"""Claims checkpoint/resume: cell records as JSONL, read as ExperimentResults."""

import json

import pytest

from repro.api.parallel import run_cell, run_key, run_sweep_cells
from repro.api.spec import ExperimentSpec
from repro.bench.claims import PAPER_CELL
from repro.bench.harness import ExperimentResult
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
    real_cell = parallel.run_cell

    def counting(spec_dict):
        seen.append(ExperimentSpec.coerce(spec_dict))
        return real_cell(spec_dict)

    monkeypatch.setattr(parallel, "run_cell", counting)
    return seen


def run_bench_cells(specs, **kwargs):
    """The claims registry's call into the one checkpointed sweep driver."""
    return [
        ExperimentResult.from_dict(record)
        for record in run_sweep_cells(specs, **kwargs)
    ]


# -- serialization round trip --------------------------------------------------------
def test_experiment_result_round_trips_through_json():
    from dataclasses import fields

    from repro.api.runner import RECORD_FIELDS, is_record

    record = run_cell(CELL)
    assert list(record) == list(RECORD_FIELDS) and is_record(record)
    # The view reads every record field, and nothing else.
    assert [f.name for f in fields(ExperimentResult)] == list(RECORD_FIELDS)
    wire = json.loads(json.dumps(record))  # full JSON round trip
    assert wire == record
    back = ExperimentResult.from_dict(wire)
    assert isinstance(back.spec, ExperimentSpec)
    assert back.spec == CELL
    assert back == ExperimentResult.from_dict(record)  # every field
    assert 0 < back.time_to_error(back.relative_target(0.9)) <= back.elapsed_ms


def test_to_dict_keeps_only_scalar_extras():
    from repro.api.runner import prepare_experiment, summarize

    prep = prepare_experiment(CELL)
    result = prep.execute()
    result.extras["unpicklable"] = object()
    wire = summarize(prep, result)
    assert "unpicklable" not in wire["extras"]
    assert wire["extras"]["collected"] == result.extras["collected"]


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
        assert ExperimentResult.from_dict(by_key[run_key(spec)]) == result


def test_bench_resume_restores_without_rerunning(tmp_path, executed):
    ckpt = tmp_path / "bench.ckpt.jsonl"
    specs = _specs(2)
    first = run_bench_cells(specs, checkpoint=ckpt)
    assert executed == specs

    executed.clear()
    second = run_bench_cells(specs, checkpoint=ckpt, resume=True)
    assert executed == []  # everything restored from the stream
    assert second == first


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
    """A figure checkpoint whose keys spell ``barrier="asp"`` (a field
    retired before trajectory epoch 2) is read without error; its lines
    match no cell, so every cell re-runs and the rows equal a clean
    run's, with today's specs."""
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

    executed = []
    orig = parallel_mod.run_cell
    monkeypatch.setattr(
        parallel_mod, "run_cell",
        lambda spec_dict: executed.append(spec_dict) or orig(spec_dict),
    )
    second = run_bench_cells(specs, checkpoint=ckpt, resume=True)
    assert len(executed) == len(specs)  # every cell re-ran
    assert [r.spec for r in second] == specs
    assert second == first


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


# -- claims-registry wiring ----------------------------------------------------------
def test_figures_checkpoint_survives_cache_clear(
    tmp_path, executed, monkeypatch
):
    """``python -m repro figures --checkpoint`` keeps no in-memory cache:
    a second run (a fresh process) replays every cell from the stream."""
    from dataclasses import replace

    from repro.bench import claims

    row = claims.CLAIMS["barriers"]
    monkeypatch.setitem(claims.CLAIMS, row.name, replace(row, cells={
        policy: CELL.with_overrides(policy=policy, delay="cds:1.0")
        for policy in ("asp", "bsp")
    }))
    ckpt = tmp_path / "figures.ckpt.jsonl"
    first = claims.run_claims([row.name], checkpoint=ckpt)
    assert len(executed) == 2
    (second,) = claims.run_claims([row.name], checkpoint=ckpt)
    assert len(executed) == 2
    assert set(second.results) == {"asp", "bsp"}
    assert second.table == first[0].table


# -- one record: grid and figures checkpoints resume each other ---------------------
@pytest.fixture
def shared_cells(monkeypatch):
    """A two-cell ``barriers`` row and the grid that expands to its cells."""
    from dataclasses import replace

    from repro.bench import claims

    row = claims.CLAIMS["barriers"]
    base = CELL.with_overrides(delay="cds:1.0")
    monkeypatch.setitem(claims.CLAIMS, row.name, replace(row, cells={
        policy: base.with_overrides(policy=policy) for policy in ("asp", "bsp")
    }))
    grid = {"base": base.to_dict(), "grid": {"policy": ["asp", "bsp"]}}
    return claims, row.name, grid


def test_grid_checkpoint_resumes_claims_with_no_cell_run(
    tmp_path, executed, shared_cells
):
    from repro.api import run_grid

    claims, name, grid = shared_cells
    ckpt = tmp_path / "sweep.ckpt.jsonl"
    records = run_grid(grid, checkpoint=ckpt)
    assert len(executed) == 2

    executed.clear()
    (verdict,) = claims.run_claims([name], checkpoint=ckpt)
    assert executed == []
    assert verdict.results == {
        "asp": ExperimentResult.from_dict(records[0]),
        "bsp": ExperimentResult.from_dict(records[1]),
    }


def test_claims_checkpoint_resumes_a_grid_with_no_cell_run(
    tmp_path, executed, shared_cells
):
    from repro.api import run_grid

    claims, name, grid = shared_cells
    ckpt = tmp_path / "figures.ckpt.jsonl"
    (verdict,) = claims.run_claims([name], checkpoint=ckpt)
    assert len(executed) == 2

    executed.clear()
    records = run_grid(grid, checkpoint=ckpt, resume=True)
    assert executed == []
    assert [ExperimentResult.from_dict(r) for r in records] == [
        verdict.results["asp"], verdict.results["bsp"],
    ]
    assert records == run_grid(grid)  # what a fresh grid returns
