"""The ``python -m repro`` CLI: run, sweep, list."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "examples" / "specs"


def test_run_example_spec_end_to_end(tmp_path, capsys):
    out = tmp_path / "summary.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 12, "eval_every": 4, "seed": 0,
    }))
    assert main(["run", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "running asgd on tiny_dense" in printed
    summary = json.loads(out.read_text())
    assert summary["updates"] == 12
    assert summary["final_error"] < summary["initial_error"]


def test_shipped_example_specs_are_valid():
    from repro.api.spec import ExperimentSpec, GridSpec

    for path in sorted(SPECS.glob("*.json")):
        data = json.loads(path.read_text())
        grid = GridSpec.coerce(data)
        for spec in grid.expand():
            assert isinstance(spec, ExperimentSpec)
            assert spec.max_updates > 0


def test_sweep_writes_one_summary_per_cell(tmp_path, capsys):
    out = tmp_path / "results.json"
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps({
        "base": {
            "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
            "num_partitions": 8, "max_updates": 10, "eval_every": 5,
            "seed": 0,
        },
        "grid": {"barrier": ["asp", "ssp:2"]},
    }))
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "2 cell(s)" in printed
    results = json.loads(out.read_text())
    assert [r["spec"]["policy"] for r in results] == ["asp", "ssp:2"]


def _write_grid(path, max_updates=10):
    path.write_text(json.dumps({
        "base": {
            "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
            "num_partitions": 8, "max_updates": max_updates, "eval_every": 5,
            "seed": 0,
        },
        "grid": {"barrier": ["asp", "ssp:2", "bsp"]},
    }))


def test_sweep_jobs_matches_serial(tmp_path):
    spec = tmp_path / "grid.json"
    _write_grid(spec)
    serial_out = tmp_path / "serial.json"
    parallel_out = tmp_path / "parallel.json"
    assert main(["sweep", str(spec), "--out", str(serial_out)]) == 0
    assert main(["sweep", str(spec), "--jobs", "2",
                 "--out", str(parallel_out)]) == 0
    assert (json.loads(serial_out.read_text())
            == json.loads(parallel_out.read_text()))


def test_sweep_jobs_leaves_a_status_sidecar(tmp_path, capsys):
    """``--jobs N`` is a fabric sweep, so ``sweep-status`` reads it."""
    spec = tmp_path / "grid.json"
    _write_grid(spec)
    assert main(["sweep", str(spec), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert main(["sweep-status", str(tmp_path / "grid.ckpt.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "3/3 done" in out


def test_sweep_flags_name_one_worker_count(tmp_path, monkeypatch):
    """``--jobs N`` is the forked-worker count with or without
    ``--serve``; the ``--local-workers`` twin is gone."""
    spec = tmp_path / "grid.json"
    _write_grid(spec)
    calls = []
    monkeypatch.setattr(
        "repro.api.runner.run_grid",
        lambda grid, **kw: calls.append((kw["jobs"], kw["fabric"])) or [],
    )
    served = {"graceful_sigterm": True}
    for flags, expected in [
        ([], (1, None)),
        (["--jobs", "3"], (3, None)),
        (["--jobs", "1", "--lease-ttl", "5"], (1, None)),
        (["--jobs", "3", "--lease-ttl", "5"],
         (3, {"local_workers": 3, "lease_ttl": 5.0})),
        (["--serve", "127.0.0.1:2859"],
         (1, {"local_workers": 0, "serve": "127.0.0.1:2859", **served})),
        (["--serve", "2859", "--jobs", "2"],
         (2, {"local_workers": 2, "serve": "0.0.0.0:2859", **served})),
    ]:
        assert main(["sweep", str(spec), "--no-checkpoint", *flags]) == 0
        assert calls.pop() == expected, flags
    with pytest.raises(SystemExit):
        main(["sweep", str(spec), "--local-workers", "2"])


def test_sweep_streams_default_checkpoint_and_resumes(tmp_path, capsys):
    spec = tmp_path / "grid.json"
    _write_grid(spec)
    out = tmp_path / "results.json"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    ckpt = tmp_path / "grid.ckpt.jsonl"  # default: next to the spec
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 3
    full = json.loads(out.read_text())

    # Simulate an interrupt: keep one completed cell, drop --out.
    ckpt.write_text(lines[0] + "\n")
    out.unlink()
    capsys.readouterr()
    assert main(["sweep", str(spec), "--jobs", "2", "--resume",
                 "--out", str(out)]) == 0
    assert "resume" in capsys.readouterr().out
    assert json.loads(out.read_text()) == full
    assert len(ckpt.read_text().splitlines()) == 3


def test_sweep_resumes_checkpoint_recorded_with_barrier_key(tmp_path, capsys):
    """The compatibility fixture's checkpoint as the version before
    ``policy`` wrote it — ``barrier`` in every key and recorded spec, no
    trajectory epoch — resumes through the CLI without error: its
    results predate epoch 2, so every cell re-runs, and the progress
    lines and ``--out`` have today's shape and values."""
    spec = tmp_path / "grid.json"
    spec.write_text((SPECS / "asgd_barrier_sweep.json").read_text())
    out = tmp_path / "results.json"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    full = json.loads(out.read_text())
    ckpt = tmp_path / "grid.ckpt.jsonl"
    lines = []
    for raw in ckpt.read_text().splitlines():
        entry = json.loads(raw)
        old = entry["summary"]["spec"]
        old["barrier"] = old.pop("policy")
        entry["key"] = json.dumps(old, sort_keys=True, separators=(",", ":"))
        lines.append(json.dumps(entry, separators=(",", ":")))
    ckpt.write_text("\n".join(lines) + "\n")
    out.unlink()
    capsys.readouterr()
    assert main(["sweep", str(spec), "--resume", "--out", str(out)]) == 0
    assert "policy=frac:0.5" in capsys.readouterr().out
    assert json.loads(out.read_text()) == full
    appended = ckpt.read_text().splitlines()
    assert appended[:len(lines)] == lines  # old lines kept, not matched
    assert len(appended) == 2 * len(lines)  # every cell re-ran


def test_sweep_no_checkpoint_conflicts_are_clean_errors(tmp_path, capsys):
    spec = tmp_path / "grid.json"
    _write_grid(spec)
    assert main(["sweep", str(spec), "--resume", "--no-checkpoint"]) == 2
    assert "--resume and --no-checkpoint" in capsys.readouterr().err
    assert main(["sweep", str(spec), "--checkpoint", str(tmp_path / "c.jsonl"),
                 "--no-checkpoint"]) == 2
    assert "--checkpoint and --no-checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "grid.ckpt.jsonl").exists()


def test_sweep_resume_from_stdin_needs_explicit_checkpoint(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    assert main(["sweep", "-", "--resume"]) == 2
    assert "--resume needs a checkpoint" in capsys.readouterr().err


def test_list_prints_registries(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out
    assert "optimizers:" in printed and "asgd" in printed
    assert "datasets:" in printed and "tiny_dense" in printed


def test_list_enumerates_policies_with_hook_signatures(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out
    assert "scheduling policies" in printed
    for line in ("asp: ready", "bsp: ready", "ssp: ready", "frac: ready",
                 "ct: ready, eligible"):
        assert f"  {line}" in printed
    for gone in ("select", "weight", "place", "&", "|", "compose", "window:"):
        assert gone not in printed


def test_run_policy_spec_end_to_end(tmp_path, capsys):
    out = tmp_path / "summary.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "granularity": "partition",
        "policy": "ct:1.5", "max_updates": 12, "eval_every": 4,
        "seed": 0,
    }))
    assert main(["run", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "policy='ct:1.5'" in printed
    summary = json.loads(out.read_text())
    assert summary["updates"] == 12
    assert "CompletionTimeBarrier" in summary["extras"]["policy"]


def test_bad_spec_is_a_clean_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"algorithm": "quantum",
                                "dataset": "tiny_dense"}))
    assert main(["run", str(spec)]) == 2
    assert "unknown" in capsys.readouterr().err


#: Components deleted for want of a claim row: ``(spec field, value,
#: the name the error must quote)``.
RETIRED_INPUTS = [
    *[("algorithm", name, name)
      for name in ("hogwild", "fedavg", "localsgd", "admm", "aadmm")],
    ("policy", "sample:0.3", "sample"),
    ("policy", "fedasync:poly", "fedasync"),
    ("policy", "migrate:p95", "migrate"),
    ("policy", "ssp_partition:4", "ssp_partition"),
    ("policy", "pssp:4", "pssp"),
    ("policy", "ct_partition:1.5", "ct_partition"),
    ("policy", "ssp:4 & sample:0.3", "sample"),
    ("compressor", "randk:0.1", "randk"),
    ("compressor", "int8", "int8"),
]


@pytest.mark.parametrize(("field", "value", "name"), RETIRED_INPUTS)
def test_retired_component_is_a_typed_error(field, value, name, tmp_path,
                                             capsys):
    """A spec, a grid axis or a CLI run naming a deleted component fails
    with the registry's ``ApiError`` quoting the name — never a
    traceback."""
    from repro.api import ExperimentSpec, run_experiment, run_grid
    from repro.errors import ApiError

    base = {"algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 4}
    spec = {**base, field: value}
    with pytest.raises(ApiError, match=f"'{name}'"):
        run_experiment(ExperimentSpec.from_dict(spec))
    with pytest.raises(ApiError, match=f"'{name}'"):
        run_grid({"base": base, "grid": {field: [value]}})
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) != 0
    err = capsys.readouterr().err
    assert f"'{name}'" in err and "Traceback" not in err


@pytest.mark.parametrize("expr", ["ssp:4 & ct:1.5", "bsp | asp", "asp&bsp"])
def test_composed_policy_is_a_typed_error(expr, tmp_path, capsys):
    """Policies no longer compose: a spec, a grid sweep or a CLI run
    naming a composition fails with an ``ApiError`` quoting it — never a
    traceback."""
    from repro.api import GridSpec, prepare_experiment, run_grid
    from repro.errors import ApiError

    base = {"algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 4}
    with pytest.raises(ApiError) as direct:
        prepare_experiment({**base, "policy": expr})
    assert expr in str(direct.value)
    grid = GridSpec.from_dict({"base": base, "grid": {"policy": [expr]}})
    with pytest.raises(ApiError) as swept:
        run_grid(grid)
    assert expr in str(swept.value)
    path = tmp_path / "composed.json"
    path.write_text(json.dumps({**base, "policy": expr}))
    assert main(["run", str(path)]) != 0
    err = capsys.readouterr().err
    assert expr in err and "Traceback" not in err


def test_bad_component_value_is_a_clean_error(tmp_path, capsys):
    spec = tmp_path / "ssp0.json"
    spec.write_text(json.dumps({"algorithm": "asgd", "dataset": "tiny_dense",
                                "barrier": "ssp:0", "max_updates": 4}))
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "bad parameters for policy 'ssp'" in err


def test_retired_spec_keys_load_only_at_their_old_default(capsys, monkeypatch):
    """What every parent-written spec carries still runs from stdin; a
    retired key set to anything else exits 2 naming it."""
    import io

    spec = {"algorithm": "asgd", "dataset": "tiny_dense", "max_updates": 4,
            "step_time": "pass", "max_time_ms": None,
            "metrics_retention": "all"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    assert main(["run", "-"]) == 0
    capsys.readouterr()
    spec["step_time"] = "update"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    assert main(["run", "-"]) == 2
    assert "'step_time' is no longer a spec field" in capsys.readouterr().err


def test_wrong_typed_field_is_a_clean_error(tmp_path, capsys):
    spec = tmp_path / "strint.json"
    spec.write_text(json.dumps({"algorithm": "asgd", "dataset": "tiny_dense",
                                "max_updates": "50"}))
    assert main(["run", str(spec)]) == 2
    assert "bad run parameters" in capsys.readouterr().err


def test_invalid_json_is_a_clean_error(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    assert main(["run", str(spec)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_json_rejected(tmp_path, capsys):
    spec = tmp_path / "list.json"
    spec.write_text("[1, 2, 3]")
    assert main(["sweep", str(spec)]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_missing_spec_file_is_a_clean_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read spec" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
