"""Spec-addressable fault injection: grammar, registry, and live kills.

The plan grammar (``"kill:w2@500ms,revive:w2@900ms"``) and the
registered plan components (``"none"``, ``"script"``, ``"random_kill"``)
both resolve to a :class:`~repro.cluster.faultplan.FaultPlan`; the
server loop drives a :class:`~repro.engine.faults.FaultInjector` from it
at the scripted virtual times. Everything is seeded, so a chaos run is
exactly reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_experiment
from repro.api.registry import FAULT_PLANS
from repro.cluster.faultplan import (
    FaultEvent,
    FaultPlan,
    parse_fault_plan,
    resolve_fault_plan,
)
from repro.errors import FaultPlanError, ReproError

SPEC = {
    "dataset": "tiny_dense", "algorithm": "asgd", "policy": "sample:0.75",
    "num_workers": 4, "max_updates": 200, "seed": 3, "delay": "cds:0.6",
}


# ---------------------------------------------------------------------------
# Grammar and plan objects
# ---------------------------------------------------------------------------

def test_grammar_parses_and_describes_round_trip():
    plan = parse_fault_plan("kill:w2@500ms,revive:w2@0.9s")
    assert len(plan) == 2
    assert [e.action for e in plan] == ["kill", "revive"]
    assert [e.time_ms for e in plan] == [500.0, 900.0]
    assert plan.describe() == "kill:w2@500ms,revive:w2@900ms"
    # describe() output re-parses to the same plan.
    assert parse_fault_plan(plan.describe()) == plan
    assert FaultPlan([]).describe() == "none"
    assert FaultPlan([]).empty


def test_events_sort_by_time():
    plan = FaultPlan([
        FaultEvent(900.0, "revive", 2),
        FaultEvent(500.0, "kill", 2),
        FaultEvent(500.0, "kill", 1),
    ])
    assert [(e.time_ms, e.worker) for e in plan] == [
        (500.0, 1), (500.0, 2), (900.0, 2)
    ]


def test_grammar_rejects_malformed_terms():
    for bad in ("kill:w2", "kill:x2@5ms", "eat:w2@5ms", "kill:w2@abc",
                "", "kill@5ms"):
        with pytest.raises(FaultPlanError):
            parse_fault_plan(bad)
    with pytest.raises(FaultPlanError):
        FaultEvent(-1.0, "kill", 0)
    with pytest.raises(FaultPlanError):
        FaultEvent(1.0, "kill", -2)


@pytest.mark.parametrize("bad", [
    "kill:w2@nanms", "kill:w2@infms", "kill:w2@-infs", "kill:w2@1e306s",
    "kill:w\u00b2@1ms", "random_kill:inf", "random_kill:nan",
])
def test_grammar_rejects_non_finite_times_and_odd_digits(bad):
    """These used to leak ValueError / OverflowError from the parser."""
    with pytest.raises(FaultPlanError):
        resolve_fault_plan(bad, num_workers=4)
    with pytest.raises(FaultPlanError):
        FaultEvent(float("nan"), "kill", 0)


def test_script_rejects_workers_the_cluster_does_not_have():
    """``kill:w9`` on a 4-worker run used to be accepted and silently
    counted as a suppressed event."""
    with pytest.raises(FaultPlanError, match="w9"):
        resolve_fault_plan("kill:w9@1ms", num_workers=4)
    with pytest.raises(FaultPlanError, match="w4"):
        resolve_fault_plan({"name": "script", "plan": "kill:w4@1ms"},
                           num_workers=4)
    assert len(resolve_fault_plan("kill:w3@1ms", num_workers=4)) == 1
    # Without a cluster size the grammar cannot know; the driver still
    # suppresses an unknown worker at run time.
    assert len(parse_fault_plan("kill:w9@1ms")) == 1


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.text(alphabet="killrevw:@,.0123456789msnaifx-+e _", max_size=40),
))
def test_any_text_is_a_plan_or_a_typed_error(text):
    try:
        plan = resolve_fault_plan(text, num_workers=4, seed=0)
    except ReproError:
        return
    assert isinstance(plan, FaultPlan)
    assert all(0 <= e.worker < 4 for e in plan)


# ---------------------------------------------------------------------------
# Registry components
# ---------------------------------------------------------------------------

def test_resolve_spellings():
    assert resolve_fault_plan(None) is None
    assert resolve_fault_plan("none").empty
    plan = parse_fault_plan("kill:w1@5ms")
    assert resolve_fault_plan(plan) is plan
    assert resolve_fault_plan("kill:w1@5ms") == plan        # grammar string
    assert resolve_fault_plan({"name": "script",
                               "plan": "kill:w1@5ms"}) == plan
    assert set(FAULT_PLANS.names()) >= {"none", "script", "random_kill"}
    # "chaos_kill" is a registered alias of "random_kill".
    assert resolve_fault_plan(
        "chaos_kill:1", num_workers=3, seed=1
    ) == resolve_fault_plan("random_kill:1", num_workers=3, seed=1)


def test_random_kill_is_seeded_and_capped():
    a = resolve_fault_plan("random_kill:2", num_workers=4, seed=3)
    b = resolve_fault_plan("random_kill:2", num_workers=4, seed=3)
    assert a == b and len(a) == 2                           # deterministic
    c = resolve_fault_plan("random_kill:2", num_workers=4, seed=4)
    assert c != a                                           # seed matters
    # Never kills the whole cluster: kills are capped at P - 1.
    capped = resolve_fault_plan("random_kill:9", num_workers=2, seed=0)
    assert len(capped) == 1
    with pytest.raises(FaultPlanError, match="num_workers"):
        resolve_fault_plan("random_kill:1")


# ---------------------------------------------------------------------------
# Live injection through the spec layer
# ---------------------------------------------------------------------------

def test_spec_driven_kill_and_revive_sim_backend():
    baseline = run_experiment(SPEC)
    faulted = run_experiment(
        {**SPEC, "fault_plan": "kill:w2@5ms,revive:w2@15ms"}
    )
    assert faulted.extras["fault_plan"] == "kill:w2@5ms,revive:w2@15ms"
    assert faulted.extras["fault_events"] == 2
    assert faulted.extras["fault_events_suppressed"] == 0
    statuses = [entry["status"] for entry in faulted.extras["faults"]]
    assert statuses == ["applied", "applied"]
    # The dead window really changed the trajectory...
    assert not np.array_equal(baseline.w, faulted.w)
    # ...deterministically: same plan, same seed, same run.
    again = run_experiment(
        {**SPEC, "fault_plan": "kill:w2@5ms,revive:w2@15ms"}
    )
    assert np.array_equal(faulted.w, again.w)
    assert faulted.updates == SPEC["max_updates"]           # run survived


def test_last_alive_worker_kill_is_suppressed():
    result = run_experiment({
        **SPEC, "num_workers": 2, "max_updates": 60,
        "fault_plan": "kill:w0@5ms,kill:w1@10ms",
    })
    # Killing the last alive worker would hang the loop forever; the
    # driver refuses and logs the suppression instead.
    assert result.extras["fault_events"] == 1
    assert result.extras["fault_events_suppressed"] == 1
    assert result.updates == 60
    suppressed = [e for e in result.extras["faults"]
                  if e["status"] != "applied"]
    assert len(suppressed) == 1 and "w1" in suppressed[0]["event"]


def test_unknown_worker_and_double_kill_are_suppressed():
    result = run_experiment({
        **SPEC, "max_updates": 60,
        "fault_plan": "kill:w1@6ms,kill:w1@7ms,revive:w0@8ms",
    })
    # w1 is already dead the second time, w0 is already alive: one
    # real kill, two no-ops.
    assert result.extras["fault_events"] == 1
    assert result.extras["fault_events_suppressed"] == 2
    # A worker the cluster does not have is a spec error up front.
    with pytest.raises(FaultPlanError, match="w9"):
        run_experiment({**SPEC, "max_updates": 60,
                        "fault_plan": "kill:w9@5ms,kill:w1@6ms"})
    # Handed a pre-built plan, the driver still suppresses it.
    result = run_experiment({
        **SPEC, "max_updates": 60,
        "fault_plan": FaultPlan([FaultEvent(5.0, "kill", 9)]),
    })
    assert result.extras["fault_events"] == 0
    assert result.extras["fault_events_suppressed"] == 1


def test_fault_plan_on_sync_algorithm_completes_budget():
    """A synchronous round sends a dead worker's partitions to the next
    alive one (the engine's probe rule), so a kill/revive plan costs
    time, not updates."""
    spec = {
        "algorithm": "sgd", "dataset": "tiny_dense", "num_workers": 2,
        "max_updates": 20, "seed": 0,
    }
    clean = run_experiment(spec)
    res = run_experiment({**spec, "fault_plan": "kill:w1@5ms,revive:w1@25ms"})
    assert res.updates == 20
    assert res.extras["fault_events"] == 2
    assert res.extras["policy"] == "bulk-synchronous"
    assert res.elapsed_ms > clean.elapsed_ms


def test_fault_plan_thread_backend():
    """Fault injection also drives the real-thread backend's STAT
    liveness (1 worker config would self-suppress, so use 2 and kill
    one; the survivor finishes the budget)."""
    from repro.cluster.faultplan import resolve_fault_plan
    from repro.cluster.threadbackend import ThreadBackend
    from repro.data.synthetic import make_dense_regression
    from repro.engine.context import ClusterContext
    from repro.optim import (
        ConstantStep,
        LeastSquaresProblem,
        OptimizerConfig,
        build_optimizer,
    )

    X, y, _ = make_dense_regression(64, 4, cond=4.0, seed=5)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(2, backend=ThreadBackend(num_workers=2),
                        seed=0) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        opt = build_optimizer(
            "asgd", ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        )
        opt.fault_plan = resolve_fault_plan("kill:w1@1ms")
        result = opt.run()
    assert result.updates == 40
    assert result.extras["fault_events"] == 1
    assert result.extras["fault_plan"] == "kill:w1@1ms"
