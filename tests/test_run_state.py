"""Checkpointable server state: the bounded HIST channels.

Bounded HIST channels serialize through the JSONL checkpoint path —
every summary of a run that keeps them carries a ``run_state`` — and
``ServerLoop(..., restore_state=...)`` reinstates them so a resumed cell
continues the original trajectory. HIST is the only run state: no
scheduling policy and no coordinator structure has any.
"""

import json

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.runner import prepare_experiment, run_grid, summarize


# -- run_state through the summary / checkpoint path -----------------------------------
#: ASAGA keeps SAGA's ``averageHistory`` in a bounded HIST channel.
HIST_SPEC = {
    "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "policy": "ssp:4",
    "max_updates": 30, "eval_every": 10, "seed": 1,
}


def test_async_summary_carries_run_state():
    prep = prepare_experiment(HIST_SPEC)
    summary = summarize(prep, prep.execute())
    state = summary["run_state"]
    json.dumps(state)  # JSON-safe end to end
    # Bounded HIST is the whole run state.
    assert set(state) == {"history"}
    assert any(name.endswith("/avg_hist") for name in state["history"])


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


def test_run_state_streams_to_jsonl_checkpoint(tmp_path):
    ckpt = tmp_path / "sweep.ckpt.jsonl"
    run_grid(
        {"base": HIST_SPEC, "grid": {"seed": [1, 2]}}, checkpoint=str(ckpt),
    )
    lines = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert len(lines) == 2
    states = [line["summary"]["run_state"] for line in lines]
    for state in states:
        assert set(state) == {"history"} and state["history"]
    # Distinct seeds leave distinct histories.
    assert json.dumps(states[0], sort_keys=True) != json.dumps(
        states[1], sort_keys=True
    )


def test_resume_restores_run_state_from_checkpoint(tmp_path):
    ckpt = tmp_path / "sweep.ckpt.jsonl"
    first = run_grid(HIST_SPEC, checkpoint=str(ckpt))
    resumed = run_grid(HIST_SPEC, checkpoint=str(ckpt), resume=True)
    # Restored, not re-run — state included. The checkpoint is JSON, so
    # HIST's integer-keyed maps come back with string keys.
    assert resumed == json.loads(json.dumps(first))


def test_run_state_is_deterministic():
    a = run_experiment(HIST_SPEC).extras["run_state"]
    b = run_experiment(HIST_SPEC).extras["run_state"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ServerLoop restore ----------------------------------------------------------------
def test_server_loop_restore_reinstates_history():
    from repro.optim.asaga import ASAGARule
    from repro.optim.loop import ServerLoop

    spec = {
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "delay": "cds:0.6", "max_updates": 20,
        "eval_every": 10, "seed": 3,
    }
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        opt = prep.make_optimizer(ctx, points)
        loop = ServerLoop(opt, ASAGARule())
        res = loop.run()
        state = json.loads(json.dumps(loop.state_dict()))
        avg_channel = next(
            name for name in state["history"] if name.endswith("/avg_hist")
        )
        want = np.linalg.norm(res.extras["avg_hist_norm"])

    prep2 = prepare_experiment(spec)
    with prep2.make_context() as ctx:
        points = ctx.matrix(prep2.X, prep2.y, prep2.num_partitions).cache()
        opt = prep2.make_optimizer(ctx, points)
        rule = ASAGARule()
        loop2 = ServerLoop(opt, rule, restore_state=state)
        loop2._restore(state)
        got = loop2.ac.history.channel(avg_channel).latest()
        assert np.linalg.norm(got) == pytest.approx(float(want), rel=1e-12)


def test_restore_accepts_empty_retired_sections():
    """A run state written before the cut carries empty ``policy`` and
    ``coordinator`` sections; it restores exactly like HIST alone."""
    from repro.optim.asaga import ASAGARule
    from repro.optim.loop import ServerLoop

    state = json.loads(json.dumps(
        run_experiment({**HIST_SPEC, "max_updates": 10}).extras["run_state"]
    ))
    results = []
    for restore in (state, {**state, "policy": {}, "coordinator": {}}):
        prep = prepare_experiment(HIST_SPEC)
        with prep.make_context() as ctx:
            points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
            opt = prep.make_optimizer(ctx, points)
            results.append(
                ServerLoop(opt, ASAGARule(), restore_state=restore).run()
            )
    assert np.array_equal(results[0].w, results[1].w)
