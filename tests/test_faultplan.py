"""Spec-addressable fault injection: grammar, registry, and live kills.

The plan grammar (``"kill:w2@500ms,revive:w2@900ms"``) and the
registered plan components (``"none"``, ``"random_kill"``) both resolve to a :class:`~repro.cluster.faultplan.FaultPlan`; the
server loop's :class:`~repro.cluster.faultplan.FaultPlanDriver` puts its
events on the simulation's event queue, so each fires at its scripted
virtual time. Everything is seeded, so a chaos run is exactly
reproducible.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from arrival_orders import ORDERS, ScriptedOrder
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
from repro.errors import ApiError, FaultPlanError, ReproError

SPEC = {
    "dataset": "tiny_dense", "algorithm": "asgd", "policy": "ct:1.5",
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
        resolve_fault_plan("revive:w4@1ms", num_workers=4)
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
    # One spelling per plan: the README's three. A grammar string needs
    # no "script" component, and "random_kill" has no alias.
    assert sorted(FAULT_PLANS.names()) == ["none", "random_kill"]
    for gone in ({"name": "script", "plan": "kill:w1@5ms"}, "chaos_kill:1"):
        with pytest.raises(ApiError, match="random_kill"):
            resolve_fault_plan(gone, num_workers=3, seed=1)


def _random_kill(kills, **kw):
    return {"name": "random_kill", "kills": kills, "horizon_ms": 1000.0, **kw}


def test_random_kill_is_seeded_and_capped():
    a = resolve_fault_plan(_random_kill(2), num_workers=4, seed=3)
    b = resolve_fault_plan(_random_kill(2), num_workers=4, seed=3)
    assert a == b and len(a) == 2                           # deterministic
    assert all(0 < e.time_ms <= 1000.0 for e in a)
    c = resolve_fault_plan(_random_kill(2), num_workers=4, seed=4)
    assert c != a                                           # seed matters
    # Never kills the whole cluster: kills are capped at P - 1.
    capped = resolve_fault_plan(_random_kill(9), num_workers=2, seed=0)
    assert len(capped) == 1
    with pytest.raises(FaultPlanError, match="num_workers"):
        resolve_fault_plan(_random_kill(1))


@pytest.mark.parametrize("spec", [
    "random_kill:2", {"name": "random_kill", "kills": 2},
])
def test_random_kill_needs_an_explicit_horizon(spec):
    """No default window: one that outlasts the run draws kills that
    never fire, so a missing ``horizon_ms`` is an error naming it."""
    with pytest.raises(FaultPlanError, match="horizon_ms"):
        resolve_fault_plan(spec, num_workers=4, seed=0)
    with pytest.raises(FaultPlanError, match="horizon_ms"):
        run_experiment({**SPEC, "fault_plan": spec})


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


@pytest.mark.parametrize("order", ORDERS)
def test_fault_plan_drives_a_hand_wired_run_under_scripted_orders(order):
    """A plan set on a hand-wired optimizer kills its worker in every
    arrival order (1 worker would self-suppress, so use 2 and kill one),
    and the survivor finishes the budget alone."""
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
    with ClusterContext(2, delay_model=ScriptedOrder(order)) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        opt = build_optimizer(
            "asgd", ctx, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        )
        opt.fault_plan = resolve_fault_plan("kill:w1@1ms")
        result = opt.run()
        assert not ctx.backend.worker_env(1).alive
    assert result.updates == 40
    assert result.extras["fault_events"] == 1
    assert result.extras["fault_plan"] == "kill:w1@1ms"


# ---------------------------------------------------------------------------
# Timing: an event fires at its scheduled virtual time
# ---------------------------------------------------------------------------

def test_plan_events_fire_at_their_scheduled_times(monkeypatch):
    """Each kill lands at exactly its scripted time, and no result the
    killed worker finished computing after that time is applied."""
    from repro.optim.asgd import ASGDRule

    applied = []
    apply = ASGDRule.apply

    def recording(self, w, record, alpha):
        applied.append(record.task_id)
        return apply(self, w, record, alpha)

    monkeypatch.setattr(ASGDRule, "apply", recording)
    result = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "delay": "cds:1.0", "max_updates": 200, "seed": 0,
        "fault_plan": "kill:w1@1ms,kill:w2@5ms",
    })
    assert [e["applied_at_ms"] for e in result.extras["faults"]] == [1.0, 5.0]
    finished = {m.task_id: m for m in result.metrics}
    late = [
        finished[t].finished_ms for t in applied
        if finished[t].worker_id == 1 and finished[t].finished_ms > 1.0
    ]
    assert late == []
    assert result.updates == 200


def test_plan_kill_inside_a_synchronous_round_is_retried():
    """A kill at 7.5 ms lands mid-round (SAGA's rounds here span
    6.15-9.18 ms): the round's partition job resends the lost tasks and
    the run still spends its budget."""
    spec = {
        "algorithm": "saga", "dataset": "tiny_dense", "num_workers": 4,
        "max_updates": 30, "seed": 0, "fault_plan": "kill:w1@7.5ms",
    }
    result = run_experiment(spec)
    assert result.extras["faults"] == [
        {"event": "kill:w1@7.5ms", "applied_at_ms": 7.5, "status": "applied"}
    ]
    assert result.extras["lost_tasks"] >= 1
    assert result.updates == 30


def test_unfired_events_do_not_outlive_their_run():
    """A plan event scheduled past the end of its run is cancelled, so
    a second run on the same cluster never sees it."""
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
    with ClusterContext(2) as ctx:
        points = ctx.matrix(X, y, 4).cache()

        def run(budget, plan=None):
            opt = build_optimizer(
                "asgd", ctx, points, problem, ConstantStep(0.02),
                OptimizerConfig(batch_fraction=0.25, max_updates=budget),
            )
            opt.fault_plan = plan
            return opt.run()

        start = ctx.now()
        run(10)
        at = ctx.now() + 2 * (ctx.now() - start)
        planned = run(10, parse_fault_plan(f"kill:w1@{at}ms"))
        assert ctx.now() < at
        assert planned.extras["fault_events"] == 0
        assert [row["status"] for row in planned.extras["faults"]] == [
            f"not fired (run ended at {planned.elapsed_ms:g} ms)"
        ]
        second = run(40)
        assert ctx.now() > at  # the second run passed the kill's time...
        assert ctx.backend.worker_env(1).alive  # ...and the kill never fired
        assert second.extras["lost_tasks"] == 0


def test_every_unfired_event_is_logged_with_the_run_end(tmp_path, capsys):
    """A plan whose events all fall after the run's end injects nothing
    and says so: one log row per event, none counted as fired or
    suppressed, and the CLI prints each row."""
    from repro.__main__ import main

    spec = {**SPEC, "max_updates": 20,
            "fault_plan": _random_kill(2, horizon_ms=1e6)}
    result = run_experiment(spec)
    assert result.extras["fault_events"] == 0
    assert result.extras["fault_events_suppressed"] == 0
    plan = resolve_fault_plan(spec["fault_plan"], num_workers=4, seed=3)
    status = f"not fired (run ended at {result.elapsed_ms:g} ms)"
    assert result.extras["faults"] == [
        {"event": e.describe(), "applied_at_ms": None, "status": status}
        for e in plan
    ]
    # A partly fired plan logs the fired event, then the unfired one.
    mixed = run_experiment({**spec, "fault_plan": "kill:w1@2ms,kill:w2@1e6ms"})
    assert [row["status"] for row in mixed.extras["faults"]] == [
        "applied", f"not fired (run ended at {mixed.elapsed_ms:g} ms)"
    ]
    assert mixed.extras["fault_events"] == 1

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 0
    printed = capsys.readouterr().out
    for e in plan:
        assert f"fault {e.describe()}: {status}" in printed


@pytest.mark.parametrize("revive_ms", [5.001, 8.0])
def test_a_revive_before_the_loss_notices_keeps_the_worker(revive_ms):
    """A revive that lands before the killed tasks' loss notices (the
    0.25 ms network latency) re-admits the worker once the notices
    arrive: the late notices no longer retire it for the rest of the
    run."""
    result = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "max_updates": 200, "seed": 0,
        "fault_plan": f"kill:w1@5ms,revive:w1@{revive_ms}ms",
    })
    late = [
        m for m in result.metrics
        if m.worker_id == 1 and m.submitted_ms > 9.0
    ]
    assert len(late) > 0
    assert result.updates == 200


def test_a_fault_plan_run_repeats_its_task_log_exactly():
    """Virtual time only: two runs of the shipped chaos spec return
    equal ``TaskMetrics`` rows, field for field."""
    spec = json.loads(
        (Path(__file__).parents[1] / "examples/specs/chaos_kill.json")
        .read_text()
    )
    first, second = run_experiment(spec), run_experiment(spec)
    assert first.extras["fault_events"] == 2
    assert first.metrics == second.metrics
