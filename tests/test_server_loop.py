"""ServerLoop/UpdateRule: the composable async driver contract."""

import re

import numpy as np
import pytest

from repro.api import register_optimizer, run_experiment
from repro.core.policies import BSP
from repro.optim import (
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    ServerLoop,
    UpdateRule,
    build_optimizer,
)
from repro.optim.base import bc_value
from repro.optim.reducers import add_pairs, add_triples, add_vr_pairs
from repro.utils.rng import stable_hash


def build(ctx, small_data, parts=8):
    X, y, _ = small_data
    problem = LeastSquaresProblem(X, y)
    points = ctx.matrix(X, y, parts).cache()
    return points, problem


def test_round_seed_is_the_stable_hash_of_seed_name_and_round(ctx, small_data):
    points, problem = build(ctx, small_data)
    opt = build_optimizer(
        "asgd", ctx, points, problem, ConstantStep(0.1),
        OptimizerConfig(seed=7),
    )
    rounds = [*range(300), 10**6, 2**62]
    assert [opt._round_seed(i) for i in rounds] == [
        stable_hash((7, "asgd", i)) for i in rounds
    ]
    # The hashed (seed, name) prefix follows both attributes.
    opt.name = "renamed"
    opt.config.seed = 8
    assert [opt._round_seed(i) for i in rounds] == [
        stable_hash((8, "renamed", i)) for i in rounds
    ]


# -- shared reducers ----------------------------------------------------------------
def test_reducers():
    assert add_pairs((1, 2), (10, 20)) == (11, 22)
    assert add_triples((1, 2, 3), (10, 20, 30)) == (11, 22, 33)
    assert add_vr_pairs(((1, 2), 3), ((10, 20), 30)) == ((11, 22), 33)


# -- extras schema (satellite: consistent keys across async optimizers) -------------
@pytest.mark.parametrize("algorithm", ["asgd", "asaga", "asvrg", "aadmm"])
def test_async_extras_common_schema(algorithm):
    res = run_experiment({
        "algorithm": algorithm, "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 10, "eval_every": 5, "seed": 0,
    })
    for key in ("lost_tasks", "collected", "max_staleness_seen"):
        assert key in res.extras, (algorithm, key)
    assert res.extras["collected"] >= res.updates
    assert res.extras["lost_tasks"] == 0


def test_asaga_reports_collected(ctx, small_data):
    """Regression: asaga used to omit the 'collected' count."""
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asaga", ctx, points, problem,
        ConstantStep(0.05).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=16, seed=0),
    ).run()
    assert res.extras["collected"] >= res.updates
    # algorithm-specific keys survive alongside the common schema
    assert res.extras["mode"] == "history"
    assert "avg_hist_norm" in res.extras


# -- a custom algorithm is just a registered UpdateRule -----------------------------
@register_optimizer("signsgd-test")
class _SignSGDRule(UpdateRule):
    """A deliberately exotic rule: step along the gradient's sign."""

    def publish(self, w):
        return self.opt.ctx.broadcast(w)

    def sample_fraction(self):
        return self.opt.config.batch_fraction

    def kernel(self, block, handle, seed):
        problem = self.opt.problem
        return (
            problem.grad_sum(block.X, block.y, bc_value(handle)),
            block.rows,
        )

    reduce = staticmethod(add_pairs)

    def apply(self, w, record, alpha):
        g_sum, count = record.value
        if count == 0:
            return None
        return w - alpha * np.sign(g_sum)

    def extras(self):
        return {"flavor": "sign"}


def test_custom_update_rule_runs_through_server_loop(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "signsgd-test", ctx, points, problem, InvSqrtDecay(0.05),
        OptimizerConfig(batch_fraction=0.25, max_updates=30, seed=0),
    ).run()
    assert res.updates == 30
    assert res.algorithm == "signsgd-test"
    assert res.extras["flavor"] == "sign"
    assert res.extras["collected"] >= 30
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < start


def test_custom_rule_is_reachable_from_a_spec():
    """Registering the rule is all a spec needs: the spec path and the
    object path build the same run."""
    from repro.api.runner import prepare_experiment

    spec = {
        "algorithm": "signsgd-test", "dataset": "tiny_dense",
        "num_workers": 4, "num_partitions": 8, "max_updates": 20, "seed": 0,
    }
    via_spec = run_experiment(spec)
    assert via_spec.updates == 20
    assert via_spec.algorithm == "signsgd-test"
    assert via_spec.extras["flavor"] == "sign"
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        by_object = build_optimizer(
            "signsgd-test", ctx, points, prep.problem, prep.step, prep.config,
        ).run()
    assert np.array_equal(via_spec.w, by_object.w)


def test_second_run_on_one_host_starts_from_fresh_rule_state(ctx, small_data):
    """Each run binds a fresh copy of the host's rule: counters and
    values derived at bind time do not carry over."""
    points, problem = build(ctx, small_data)
    opt = build_optimizer(
        "async_lbfgs", ctx, points, problem, ConstantStep(0.01),
        OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
    )
    first, second = opt.run(), opt.run()
    assert first.extras["pairs_admitted"] > 0
    assert np.array_equal(first.w, second.w)
    for key in ("pairs_admitted", "pairs_damped", "pairs_retained",
                "max_pair_staleness", "pair_every"):
        assert first.extras[key] == second.extras[key], key
    assert opt.rule.pairs_admitted == 0


def test_custom_rule_respects_barriers(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "signsgd-test", ctx, points, problem, InvSqrtDecay(0.05),
        OptimizerConfig(batch_fraction=0.25, max_updates=12, seed=0),
        policy=BSP(),
    ).run()
    assert res.updates == 12
    # The previous round may still be on the wire when BSP dispatches
    # the next (workers are free once they finish computing).
    assert res.extras["max_staleness_seen"] <= 2 * ctx.num_workers - 1


# -- registered rules still behave like the paper's algorithms ----------------------
def test_asgd_wrapper_unchanged_behavior(ctx, small_data):
    points, problem = build(ctx, small_data)
    res = build_optimizer(
        "asgd", ctx, points, problem,
        InvSqrtDecay(0.5).scaled_for_async(4),
        OptimizerConfig(batch_fraction=0.25, max_updates=60, seed=0),
    ).run()
    assert res.updates == 60
    assert res.rounds >= 1
    start = problem.error(problem.initial_point())
    assert problem.error(res.w) < 0.2 * start


# -- what the loop means: hook order, budget, rejection, trace points ---------------
class _ScriptedRule(_SignSGDRule):
    """Logs every hook call; ``reject`` lists the (1-based) ``apply``
    calls that return ``None``."""

    epoch_length = 3

    def __init__(self, reject=()):
        self.reject = set(reject)
        self.log = []
        #: ``(ac.collected, ac.version, record.staleness)`` at each apply.
        self.seen = []

    def setup(self, w):
        self.log.append("setup")

    def begin_epoch(self, w):
        self.log.append("begin_epoch")

    def publish(self, w):
        self.log.append("publish")
        return super().publish(w)

    def dispatch(self, handle, seed):
        self.log.append("dispatch")
        super().dispatch(handle, seed)

    def apply(self, w, record, alpha):
        self.log.append("apply")
        ac = self.loop.ac
        self.seen.append((ac.collected, ac.version, record.staleness))
        if len(self.seen) in self.reject:
            return None
        return super().apply(w, record, alpha)


def scripted_run(ctx, small_data, rule, policy=None, **config):
    points, problem = build(ctx, small_data)
    opt = build_optimizer(
        "signsgd-test", ctx, points, problem, InvSqrtDecay(0.05),
        OptimizerConfig(batch_fraction=0.25, seed=0, **config),
        policy=policy,
    )
    loop = ServerLoop(opt, rule)
    return loop, loop.run()


def test_hook_order_per_round(ctx, small_data):
    rule = _ScriptedRule()
    _, res = scripted_run(ctx, small_data, rule, max_updates=20)
    letters = {"setup": "S", "begin_epoch": "E", "publish": "P",
               "dispatch": "D", "apply": "a"}
    text = "".join(letters[hook] for hook in rule.log)
    assert text[0] == "S" and text.count("S") == 1
    rounds = re.findall(r"E?PDa*", text[1:])
    assert "".join(rounds) == text[1:]
    assert len(rounds) == res.rounds
    assert [r[0] == "E" for r in rounds] == [
        i % rule.epoch_length == 0 for i in range(res.rounds)
    ]
    # One apply per collected result: the collect counter moves by
    # exactly one between consecutive applies.
    assert [c for c, _, _ in rule.seen] == list(range(1, len(rule.seen) + 1))
    assert len(rule.seen) == res.updates == 20


def test_rejected_result_counts_no_update_and_keeps_the_version(ctx, small_data):
    rule = _ScriptedRule(reject={2, 5})
    loop, res = scripted_run(ctx, small_data, rule, max_updates=12)
    assert res.updates == 12
    assert len(rule.seen) == 12 + 2
    versions = [v for _, v, _ in rule.seen]
    # The apply after a rejected one sees the version the rejected one saw.
    assert versions[2] == versions[1] and versions[5] == versions[4]
    accepted = [v for i, v in enumerate(versions, 1) if i not in rule.reject]
    assert accepted == list(range(12))
    assert loop.ac.version == 12


def test_results_past_the_budget_are_collected_but_not_applied(ctx, small_data):
    rule = _ScriptedRule()
    loop, res = scripted_run(
        ctx, small_data, rule, policy=BSP(), max_updates=6
    )
    assert res.updates == 6
    assert len(rule.seen) == 6
    assert res.extras["collected"] > 6
    assert loop.ac.version == 6
    assert res.trace.updates[-1] == 6


@pytest.mark.parametrize("max_updates, expected", [
    (23, [0, 5, 10, 15, 20, 23]),
    (10, [0, 5, 10]),
])
def test_trace_points(ctx, small_data, max_updates, expected):
    _, res = scripted_run(
        ctx, small_data, _ScriptedRule(), max_updates=max_updates, eval_every=5
    )
    assert res.trace.updates == expected
    assert np.array_equal(res.trace.snapshots[-1], res.w)
    assert res.trace.times_ms[-1] == res.elapsed_ms


def test_server_loop_has_one_construction_path(ctx, small_data):
    points, problem = build(ctx, small_data)
    opt = build_optimizer(
        "signsgd-test", ctx, points, problem, InvSqrtDecay(0.05)
    )
    with pytest.raises(TypeError):
        ServerLoop(opt, _SignSGDRule(), snapshot_every=1)


# -- extras["max_staleness_seen"]: the worst lag among *applied* results ------------
@pytest.mark.parametrize("granularity", ["worker", "partition"])
def test_max_staleness_seen_is_the_max_over_applied_results(granularity):
    """Regression: it used to be read off STAT after the end-of-run
    drain — each worker's *latest collected* staleness, late unapplied
    results included — which under-reported (8 for a true 29 here)."""
    from repro.api.runner import prepare_experiment

    prep = prepare_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 8,
        "delay": "cds:1.0", "pipeline_depth": 2, "max_updates": 300,
        "seed": 2, "granularity": granularity,
    })
    rule = _ScriptedRule()
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        res = ServerLoop(prep.make_optimizer(ctx, points), rule).run()
    assert res.updates == 300
    worst = max(staleness for _, _, staleness in rule.seen)
    assert res.extras["max_staleness_seen"] == worst
    if granularity == "partition":
        assert res.extras["max_partition_staleness_seen"] == worst
