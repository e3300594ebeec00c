"""Run state: a run snapshot is the iterate and its counters.

A snapshot comes back through ``opt.restore_state`` (the spec's
``restore_from``), the one way in, and carries no server state: each
rule rebuilds its own at the restored iterate (SAGA re-anchors, SVRG
opens a fresh epoch). Summaries carry no state either; checkpoint lines
written while they did still resume as written.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api.runner import prepare_experiment, run_grid, summarize
from repro.core.snapshots import decode_value, encode_value, read_snapshot
from repro.errors import SnapshotError

#: ASVRG keeps its epoch anchor and full gradient in bounded HIST
#: channels, in memory only; seven inner rounds per epoch put update 30
#: mid-epoch.
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
    run_state = {"history": {"svrg/anchor": {
        "name": "svrg/anchor", "keep": "last:1", "next_version": 5,
        "values": {"4": encode_value(np.arange(5.0))},
    }}}
    (entry,) = [json.loads(line) for line in ckpt.read_text().splitlines()]
    entry["summary"]["run_state"] = run_state
    ckpt.write_text(json.dumps(entry) + "\n")

    resumed = run_grid(HIST_SPEC, checkpoint=str(ckpt), resume=True)
    # Restored, not re-run — the old state rides along untouched.
    assert resumed == [entry["summary"]]
    assert resumed[0]["run_state"]["history"]["svrg/anchor"]["values"]


def test_run_state_is_deterministic(tmp_path):
    """Two runs of one spec leave equal snapshots, with no server state
    in either."""
    a = _final_snapshot(tmp_path, "a.json")
    b = _final_snapshot(tmp_path, "b.json")
    assert "server" not in a
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ServerLoop restore ----------------------------------------------------------------
def _bound_loop(ctx, prep, rule, snap=None):
    """A ServerLoop of ``prep`` on ``ctx`` resuming from ``snap``."""
    from repro.optim.loop import ServerLoop

    points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
    opt = prep.make_optimizer(ctx, points)
    opt.restore_state = snap
    return ServerLoop(opt, rule)


def test_server_loop_restore_opens_a_fresh_svrg_epoch(tmp_path):
    """ASVRG restored mid-epoch keeps no anchor from before the cut: its
    first round opens a fresh epoch anchored at the restored iterate."""
    from repro.optim.svrg import ASVRGRule

    spec = {**HIST_SPEC, "max_updates": 20, "seed": 3}
    snap = _final_snapshot(tmp_path, "snap.json", spec)
    w_k = decode_value(snap["w"])
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        loop = _bound_loop(ctx, prep, ASVRGRule(inner_iterations=7), snap)
        loop._start()
        assert loop.updates == 20 and loop.rule.epoch_left == 0
        assert not len(loop.rule.anchor_channel)
        loop._round()
        assert loop.rule.epochs == 1
        assert np.array_equal(loop.rule.anchor_channel.latest(), w_k)


def test_server_loop_restore_reanchors_saga(tmp_path):
    """An ASAGA restore at K reruns SAGA's setup at w_K: A is bit-equal
    to a fresh setup's at w_K, and the model channel's version 0 is
    w_K."""
    from repro.optim.asaga import ASAGARule

    spec = {**ASAGA_SPEC, "max_updates": 20, "seed": 3}
    snap = _final_snapshot(tmp_path, "snap.json", spec)
    assert "server" not in snap
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


def test_bare_server_state_is_refused():
    """Only a run snapshot restores: a bare server-state dict (what a
    snapshot's ``server`` section held before epoch 7) would start a run
    from ``w0``."""
    prep = replace(
        prepare_experiment(HIST_SPEC), restore_state={"history": {}}
    )
    with pytest.raises(SnapshotError, match="run-snapshot"):
        prep.execute()


def test_in_process_restore_refuses_a_server_section(tmp_path):
    """A restore state handed straight to the optimizer is checked like
    a file: a ``server`` section is refused, not ignored."""
    snap = _final_snapshot(tmp_path, "snap.json")
    older = {**snap, "server": {"history": {}}}
    prep = replace(prepare_experiment(HIST_SPEC), restore_state=older)
    with pytest.raises(SnapshotError, match="unknown key 'server'"):
        prep.execute()
