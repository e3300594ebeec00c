"""Checkpointable server state: policy RNG, placement overlay, HIST.

Closes PR-4's "policy state in checkpoints" follow-up: sampling RNG
state and the placement overlay (plus bounded HIST channels) serialize
through the JSONL checkpoint path — every async summary carries a
``run_state`` — and ``ServerLoop(..., restore_state=...)`` reinstates
them so a resumed cell continues the original decision sequence.
"""

import json

import numpy as np
import pytest

from repro.api import run_experiment
from repro.api.runner import prepare_experiment, run_grid, summarize
from repro.core.coordinator import Coordinator
from repro.core.policies import (
    ClientSampling,
    MigrateSlow,
    SchedulingPolicy,
    resolve_policy,
)
from repro.core.stat import StatTable


# -- policy state ----------------------------------------------------------------------
def test_stateless_policies_have_empty_state():
    from repro.core.policies import ASP, SSP

    for policy in (ASP(), SSP(4), SchedulingPolicy()):
        assert policy.state_dict() == {}
        policy.load_state({})  # no-op, no error


def test_client_sampling_rng_state_roundtrip():
    a = ClientSampling(0.5, seed=7)
    burn = [a._rng.integers(1000) for _ in range(5)]
    assert burn  # consumed some stream
    state = json.loads(json.dumps(a.state_dict()))  # JSON-safe

    b = ClientSampling(0.5, seed=7)
    b.load_state(state)
    # The restored policy continues exactly where `a` left off...
    continued = [a._rng.integers(1000) for _ in range(8)]
    restored = [b._rng.integers(1000) for _ in range(8)]
    assert continued == restored
    # ...whereas a fresh same-seed policy replays from the beginning.
    fresh = ClientSampling(0.5, seed=7)
    assert [fresh._rng.integers(1000) for _ in range(5)] == burn


def test_migrate_state_roundtrip():
    a = MigrateSlow(threshold=1.5, cooldown=4)
    a._round = 17
    a._moved_at = {3: 12, 5: 16}
    state = json.loads(json.dumps(a.state_dict()))
    b = MigrateSlow(threshold=1.5, cooldown=4)
    b.load_state(state)
    assert b._round == 17
    assert b._moved_at == {3: 12, 5: 16}


def test_composed_policy_state_recurses():
    composed = resolve_policy(
        "sample:0.5 & migrate:1.5", defaults={"seed": 3, "num_workers": 4}
    )
    composed.b._round = 9
    state = composed.state_dict()
    assert set(state) == {"a", "b"}
    clone = resolve_policy(
        "sample:0.5 & migrate:1.5", defaults={"seed": 3, "num_workers": 4}
    )
    clone.load_state(json.loads(json.dumps(state)))
    assert clone.b._round == 9
    assert (
        clone.a._rng.bit_generator.state == composed.a._rng.bit_generator.state
    )


def test_all_stateless_composition_is_empty():
    composed = resolve_policy("asp & ssp:2")
    assert composed.state_dict() == {}


# -- coordinator placement state -------------------------------------------------------
def test_coordinator_state_roundtrip():
    a = Coordinator(StatTable(4))
    a.apply_placement({2: 1, 5: 3}, default_owner=lambda p: 0)
    state = json.loads(json.dumps(a.state_dict()))
    b = Coordinator(StatTable(4))
    b.load_state(state)
    assert b.placement == {2: 1, 5: 3}
    assert b.migrations == a.migrations == 2
    assert b.migration_log == [(2, 0, 1), (5, 0, 3)]


# -- run_state through the summary / checkpoint path -----------------------------------
FED_SPEC = {
    "algorithm": "fedavg", "dataset": "tiny_dense", "num_workers": 4,
    "num_partitions": 8, "delay": "cds:0.6", "policy": "sample:0.5",
    "max_updates": 30, "eval_every": 10, "seed": 1,
    "params": {"local_steps": 2},
}


def test_async_summary_carries_run_state():
    prep = prepare_experiment(FED_SPEC)
    summary = summarize(prep, prep.execute())
    state = summary["run_state"]
    json.dumps(state)  # JSON-safe end to end
    assert state["policy"]["rng"]["bit_generator"] == "PCG64"
    # No migration happened, so the coordinator contributes no blob.
    assert state["coordinator"] == {}
    assert isinstance(state["history"], dict)


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
        {"base": FED_SPEC, "grid": {"seed": [1, 2]}}, checkpoint=str(ckpt),
    )
    lines = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert len(lines) == 2
    for line in lines:
        state = line["summary"]["run_state"]
        assert state["policy"]["rng"]["bit_generator"] == "PCG64"
    # Distinct seeds leave the RNG at distinct positions.
    assert (
        lines[0]["summary"]["run_state"]["policy"]["rng"]["state"]
        != lines[1]["summary"]["run_state"]["policy"]["rng"]["state"]
    )


def test_resume_restores_run_state_from_checkpoint(tmp_path):
    ckpt = tmp_path / "sweep.ckpt.jsonl"
    first = run_grid(FED_SPEC, checkpoint=str(ckpt))
    resumed = run_grid(FED_SPEC, checkpoint=str(ckpt), resume=True)
    assert resumed == first  # restored, not re-run — state included


def test_run_state_is_deterministic():
    a = run_experiment(FED_SPEC).extras["run_state"]
    b = run_experiment(FED_SPEC).extras["run_state"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ServerLoop restore ----------------------------------------------------------------
def test_server_loop_restore_continues_policy_sequence():
    """A loop restored from a prior run's state starts its sampling draws
    where the original stopped (not back at the seed)."""
    from repro.optim.loop import ServerLoop
    from repro.optim.partitioned import LocalSGDRule

    prep = prepare_experiment(FED_SPEC)
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        opt = prep.make_optimizer(ctx, points)
        loop = ServerLoop(opt, LocalSGDRule(2))
        loop.run()
        state = json.loads(json.dumps(loop.state_dict()))
        original_rng = loop.policy._rng.bit_generator.state

    prep2 = prepare_experiment(FED_SPEC)
    with prep2.make_context() as ctx:
        points = ctx.matrix(prep2.X, prep2.y, prep2.num_partitions).cache()
        opt = prep2.make_optimizer(ctx, points)
        loop2 = ServerLoop(opt, LocalSGDRule(2), restore_state=state)
        # Before running, a fresh same-spec policy replays from the seed.
        assert loop2.policy._rng.bit_generator.state != original_rng
        loop2._restore(state)
        assert loop2.policy._rng.bit_generator.state == original_rng


def test_server_loop_restore_reinstates_history_and_placement():
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
        loop2.ac.coordinator.placement = {}  # pristine before restore
        loop2._restore(state)
        got = loop2.ac.history.channel(avg_channel).latest()
        assert np.linalg.norm(got) == pytest.approx(float(want), rel=1e-12)
