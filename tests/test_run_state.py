"""Checkpointable server state: the bounded HIST channels.

A run's restartable state is its bounded HIST channels; it travels in a
run snapshot's ``server`` section and comes back through
``opt.restore_state`` (the spec's ``restore_from``), the one way in.
Summaries carry no state. HIST is the only run state: no scheduling
policy and no coordinator structure has any.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api.runner import prepare_experiment, run_grid, summarize
from repro.core.snapshots import decode_value, read_snapshot
from repro.errors import SnapshotError

#: ASAGA keeps SAGA's ``averageHistory`` in a bounded HIST channel.
HIST_SPEC = {
    "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "policy": "ssp:4",
    "max_updates": 30, "eval_every": 10, "seed": 1,
}


def _final_snapshot(tmp_path, name, spec=HIST_SPEC):
    """The run snapshot a run of ``spec`` leaves at its last update."""
    path = tmp_path / name
    budget = spec["max_updates"]
    prepare_experiment(
        {**spec, "snapshot_every": budget, "snapshot_path": str(path)}
    ).execute()
    return read_snapshot(path)


def test_stateless_async_summary_omits_run_state():
    """Plain ASGD under ASP: nothing to restore, no run_state blob in
    the summary (checkpoint lines stay lean)."""
    prep = prepare_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 8, "seed": 0,
    })
    summary = summarize(prep, prep.execute())
    assert "run_state" not in summary


def test_sync_summary_has_no_run_state():
    prep = prepare_experiment({
        "algorithm": "sgd", "dataset": "tiny_dense", "max_updates": 4,
    })
    summary = summarize(prep, prep.execute())
    assert "run_state" not in summary


def test_resume_restores_run_state_from_checkpoint(tmp_path):
    """Checkpoint lines written while summaries carried a ``run_state``
    still resume: the recorded summary comes back as it was written."""
    ckpt = tmp_path / "sweep.ckpt.jsonl"
    first = run_grid(HIST_SPEC, checkpoint=str(ckpt))
    assert "run_state" not in first[0]
    run_state = _final_snapshot(tmp_path, "snap.json")["server"]
    (entry,) = [json.loads(line) for line in ckpt.read_text().splitlines()]
    entry["summary"]["run_state"] = run_state
    ckpt.write_text(json.dumps(entry) + "\n")

    resumed = run_grid(HIST_SPEC, checkpoint=str(ckpt), resume=True)
    # Restored, not re-run — the old state rides along untouched.
    assert resumed == [entry["summary"]]
    assert resumed[0]["run_state"]["history"]["saga/avg_hist"]["values"]


def test_run_state_is_deterministic(tmp_path):
    a = _final_snapshot(tmp_path, "a.json")["server"]
    b = _final_snapshot(tmp_path, "b.json")["server"]
    assert set(a) == {"history"} and set(a["history"]) == {"saga/avg_hist"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ServerLoop restore ----------------------------------------------------------------
def test_server_loop_restore_reinstates_history(tmp_path):
    from repro.optim.asaga import ASAGARule
    from repro.optim.loop import ServerLoop

    spec = {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 20,
        "eval_every": 10, "seed": 3,
    }
    snap = _final_snapshot(tmp_path, "snap.json", spec)
    (saved,) = snap["server"]["history"]["saga/avg_hist"]["values"].values()

    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        opt = prep.make_optimizer(ctx, points)
        opt.restore_state = snap
        loop = ServerLoop(opt, ASAGARule())
        loop._start()
        got = loop.ac.history.channel("saga/avg_hist").latest()
        assert np.array_equal(got, decode_value(saved))
        assert loop.updates == 20


def test_bare_server_state_is_refused(tmp_path):
    """Only a run snapshot restores: a bare ``state_dict()`` would
    reinstate HIST into a run starting from ``w0``."""
    snap = _final_snapshot(tmp_path, "snap.json")
    prep = replace(prepare_experiment(HIST_SPEC), restore_state=snap["server"])
    with pytest.raises(SnapshotError, match="run-snapshot"):
        prep.execute()


def test_restore_accepts_empty_retired_sections(tmp_path):
    """A run snapshot written before the cut carries empty ``policy``
    and ``coordinator`` sections; in process it restores exactly like
    HIST alone."""
    from repro.optim.asaga import ASAGARule
    from repro.optim.loop import ServerLoop

    snap = _final_snapshot(
        tmp_path, "snap.json", {**HIST_SPEC, "max_updates": 10}
    )
    older = json.loads(json.dumps(snap))
    older["server"].update(policy={}, coordinator={})
    results = []
    for restore in (snap, older):
        prep = prepare_experiment(HIST_SPEC)
        with prep.make_context() as ctx:
            points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
            opt = prep.make_optimizer(ctx, points)
            opt.restore_state = restore
            results.append(ServerLoop(opt, ASAGARule()).run())
    assert results[1].extras["resumed_from_update"] == 10
    assert np.array_equal(results[0].w, results[1].w)
