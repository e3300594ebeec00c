"""Async L-BFGS: curvature over a bounded HIST deque of (s, y) pairs."""

import numpy as np
import pytest
from arrival_orders import ORDERS, ScriptedOrder

from repro.api import run_experiment
from repro.api.registry import OPTIMIZERS
from repro.api.runner import prepare_experiment
from repro.engine.context import ClusterContext
from repro.errors import OptimError
from repro.optim import ConstantStep, OptimizerConfig, build_optimizer
from repro.optim.problems import LogisticRegressionProblem

LOGISTIC_SPEC = {
    "algorithm": "async_lbfgs",
    "dataset": "synth_logistic",
    "problem": "logistic",
    "num_workers": 4,
    "num_partitions": 8,
    "delay": "cds:0.6",
    "max_updates": 200,
    "eval_every": 20,
    "seed": 0,
}


def _final_error(spec):
    res = run_experiment(spec)
    return prepare_experiment(spec).problem.error(res.w), res


# -- the acceptance bar ----------------------------------------------------------------
def test_beats_asgd_at_equal_round_budget():
    """ISSUE 5's acceptance criterion: lower final loss than ASGD on the
    logistic-regression spec at the same collected-result budget."""
    lbfgs_err, lbfgs = _final_error(LOGISTIC_SPEC)
    asgd_err, asgd = _final_error({**LOGISTIC_SPEC, "algorithm": "asgd"})
    assert lbfgs.updates == asgd.updates == 200
    assert lbfgs_err < asgd_err
    # Not a squeaker: curvature buys a clear margin on this problem.
    assert lbfgs_err < 0.5 * asgd_err


@pytest.mark.parametrize("seed", [1, 2])
def test_beats_asgd_across_seeds(seed):
    lbfgs_err, _ = _final_error({**LOGISTIC_SPEC, "seed": seed})
    asgd_err, _ = _final_error(
        {**LOGISTIC_SPEC, "algorithm": "asgd", "seed": seed}
    )
    assert lbfgs_err < asgd_err


# -- mechanics -------------------------------------------------------------------------
def test_depth_zero_takes_plain_gradient_steps():
    """history_depth=0: identity metric, no pairs channel, no history."""
    _, res = _final_error(
        {**LOGISTIC_SPEC, "params": {"history_depth": 0}}
    )
    assert res.extras["pairs_admitted"] == 0
    assert res.extras["pairs_retained"] == 0
    assert "history" not in res.extras  # no channel was ever created


def test_pairs_channel_bounded_by_depth():
    _, res = _final_error(
        {**LOGISTIC_SPEC, "params": {"history_depth": 3}}
    )
    assert res.extras["pairs_retained"] <= 3
    hist = res.extras["history"]
    assert hist["lbfgs/pairs"]["keep"] == "last:3"
    assert hist["lbfgs/pairs"]["versions"] <= 3
    # Admitted pairs beyond the bound were evicted, not kept.
    assert (
        hist["lbfgs/pairs"]["evicted_versions"]
        == res.extras["pairs_admitted"] - hist["lbfgs/pairs"]["versions"]
    )


def test_staleness_gate_rejects_pairs():
    """A zero-tolerance gate rejects every result with staleness > 0 from
    pair harvesting (while the run itself still converges on updates)."""
    _, res = _final_error(
        {**LOGISTIC_SPEC, "params": {"max_pair_staleness": 0}}
    )
    gated = res.extras["pairs_rejected_stale"]
    _, loose = _final_error(
        {**LOGISTIC_SPEC, "params": {"max_pair_staleness": 100}}
    )
    assert loose.extras["pairs_rejected_stale"] == 0
    assert gated > 0
    assert res.updates == 200


def test_bad_params_rejected():
    with pytest.raises(Exception):
        run_experiment(
            {**LOGISTIC_SPEC, "params": {"history_depth": -1},
             "max_updates": 4}
        )
    with pytest.raises(OptimError):
        from repro.optim.lbfgs import AsyncLBFGSRule

        AsyncLBFGSRule(damping=1.5)
    with pytest.raises(OptimError):
        from repro.optim.lbfgs import AsyncLBFGSRule

        AsyncLBFGSRule(pair_every=0)


@pytest.mark.parametrize("depth", [2.5, float("nan"), float("inf")])
def test_history_depth_must_be_a_finite_whole_number(depth):
    """``2.5`` used to run silently as ``last:2``, NaN with no pairs
    channel at all, and ``inf`` escaped as a bare ``OverflowError``."""
    with pytest.raises(OptimError, match="finite whole number"):
        run_experiment({
            "algorithm": "async_lbfgs", "dataset": "tiny_dense",
            "params": {"history_depth": depth}, "max_updates": 4,
        })


def test_whole_valued_history_depth_is_accepted():
    res = run_experiment({
        "algorithm": "async_lbfgs", "dataset": "tiny_dense",
        "params": {"history_depth": 2.0}, "max_updates": 4,
    })
    assert res.extras["history_depth"] == 2
    assert res.extras["history"]["lbfgs/pairs"]["keep"] == "last:2"


def test_registered_and_aliased():
    assert "async_lbfgs" in OPTIMIZERS
    assert OPTIMIZERS.canonical("albfgs") == "async_lbfgs"
    assert getattr(OPTIMIZERS.get("async_lbfgs"), "uses_history", False)


def test_two_workers_under_scripted_arrival_orders(monkeypatch):
    """Two workers, one data set, a constant 0.25 step and 40 updates,
    under every scripted arrival order. On each order: the budget is
    met, pairs are admitted, no admitted pair is staler than the gate
    and every direction stays within the clip. Over the orders: the
    median final error is below the initial one. A single order may end
    above it (one of the 24 does): the runs whose pairs drive ``gamma``
    high take clipped 25x directions at the constant step and overshoot."""
    from repro.data.synthetic import make_classification
    from repro.optim.lbfgs import AsyncLBFGSRule

    X, y, _ = make_classification(128, 6, seed=3)
    problem = LogisticRegressionProblem(X, y)
    harvest, direction = AsyncLBFGSRule._harvest, AsyncLBFGSRule._direction
    # Per run: staleness of each admitted pair, |direction| / clip cap.
    admitted_staleness, direction_ratios = [], []

    def spy_harvest(self, w, g, record):
        before = self.pairs_admitted
        harvest(self, w, g, record)
        if self.pairs_admitted > before:
            admitted_staleness.append(record.staleness)

    def spy_direction(self, g):
        r = direction(self, g)
        cap = self.direction_clip * np.linalg.norm(g)
        direction_ratios.append(np.linalg.norm(r) / cap)
        return r

    monkeypatch.setattr(AsyncLBFGSRule, "_harvest", spy_harvest)
    monkeypatch.setattr(AsyncLBFGSRule, "_direction", spy_direction)
    errors = []
    for order in ORDERS:
        admitted_staleness.clear()
        direction_ratios.clear()
        with ClusterContext(
            2, delay_model=ScriptedOrder(order)
        ) as ctx:
            points = ctx.matrix(X, y, 2).cache()
            res = build_optimizer(
                "async_lbfgs", ctx, points, problem, ConstantStep(0.25),
                OptimizerConfig(batch_fraction=0.5, max_updates=40, seed=0),
            ).run()
        extras = res.extras
        assert res.updates == 40, order
        assert extras["pairs_admitted"] > 0, order
        assert len(admitted_staleness) == extras["pairs_admitted"], order
        assert max(admitted_staleness) <= extras["max_pair_staleness"], order
        assert len(direction_ratios) == 40, order
        assert max(direction_ratios) <= 1 + 1e-12, order
        errors.append(problem.error(res.w))
    assert np.median(errors) < problem.initial_error()


def test_direction_clip_bounds_the_step():
    """Tight clip: every quasi-Newton direction stays within the cap of
    the gradient norm, so the run cannot blow up even with depth 16 and
    a long pair interval (the configuration that diverges unclipped)."""
    spec = {
        **LOGISTIC_SPEC,
        "params": {
            "history_depth": 16, "pair_every": 8, "direction_clip": 2.0,
        },
    }
    err, res = _final_error(spec)
    assert np.isfinite(err)
    assert err < prepare_experiment(spec).problem.initial_error()
