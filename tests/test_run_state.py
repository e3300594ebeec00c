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

#: ASVRG keeps its epoch anchor and full gradient in bounded HIST
#: channels; seven inner rounds per epoch put update 30 mid-epoch.
HIST_SPEC = {
    "algorithm": "asvrg", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "policy": "ssp:4",
    "max_updates": 30, "eval_every": 10, "seed": 1,
    "params": {"inner_iterations": 7},
}

#: ASAGA's server state (SAGA's ``averageHistory``) is not HIST: a
#: restore re-anchors SAGA at the restored iterate instead.
ASAGA_SPEC = {
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
    assert resumed[0]["run_state"]["history"]["svrg/anchor"]["values"]


def test_run_state_is_deterministic(tmp_path):
    a = _final_snapshot(tmp_path, "a.json")["server"]
    b = _final_snapshot(tmp_path, "b.json")["server"]
    assert set(a) == {"history"}
    assert set(a["history"]) == {"svrg/anchor", "svrg/mu"}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ServerLoop restore ----------------------------------------------------------------
def _bound_loop(ctx, prep, rule, snap=None):
    """A ServerLoop of ``prep`` on ``ctx`` resuming from ``snap``."""
    from repro.optim.loop import ServerLoop

    points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
    opt = prep.make_optimizer(ctx, points)
    opt.restore_state = snap
    return ServerLoop(opt, rule)


def test_server_loop_restore_reinstates_history(tmp_path):
    """ASVRG's bounded channels come back as saved, and a run restored
    mid-epoch continues around the saved anchor."""
    from repro.optim.svrg import ASVRGRule

    spec = {**HIST_SPEC, "max_updates": 20, "seed": 3}
    snap = _final_snapshot(tmp_path, "snap.json", spec)
    assert snap["epoch_rounds_left"] > 0
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        loop = _bound_loop(ctx, prep, ASVRGRule(inner_iterations=7), snap)
        loop._start()
        for name in ("svrg/anchor", "svrg/mu"):
            (saved,) = snap["server"]["history"][name]["values"].values()
            got = loop.ac.history.channel(name).latest()
            assert np.array_equal(got, decode_value(saved))
        assert loop.rule.w_tilde is loop.rule.anchor_channel.latest()
        assert loop.updates == 20


def test_server_loop_restore_reanchors_saga(tmp_path):
    """An ASAGA restore at K reruns SAGA's setup at w_K: A is bit-equal
    to a fresh setup's at w_K, and the model channel's version 0 is
    w_K."""
    from repro.optim.asaga import ASAGARule

    spec = {**ASAGA_SPEC, "max_updates": 20, "seed": 3}
    snap = _final_snapshot(tmp_path, "snap.json", spec)
    assert snap["server"] == {"history": {}}
    w_k = decode_value(snap["w"])
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        loop = _bound_loop(ctx, prep, ASAGARule(), snap)
        loop._start()
        assert loop.updates == 20
        assert np.array_equal(loop.ac.history.channel("saga").get(0), w_k)
    with prep.make_context() as ctx:
        fresh = _bound_loop(ctx, prep, ASAGARule())
        fresh.rule.bind(fresh)
        fresh.rule.setup(w_k)
    assert np.array_equal(loop.rule.state.avg_hist, fresh.rule.state.avg_hist)


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
        tmp_path, "snap.json", {**ASAGA_SPEC, "max_updates": 10}
    )
    older = json.loads(json.dumps(snap))
    older["server"].update(policy={}, coordinator={})
    results = []
    for restore in (snap, older):
        prep = prepare_experiment(ASAGA_SPEC)
        with prep.make_context() as ctx:
            points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
            opt = prep.make_optimizer(ctx, points)
            opt.restore_state = restore
            results.append(ServerLoop(opt, ASAGARule()).run())
    assert results[1].extras["resumed_from_update"] == 10
    assert np.array_equal(results[0].w, results[1].w)
