"""run_experiment / run_grid: spec-path parity with the object API."""

import numpy as np
import pytest

from repro.api import run_experiment, run_grid
from repro.api.registry import OPTIMIZERS
from repro.api.runner import prepare_experiment, summarize
from repro.data.registry import get_dataset
from repro.engine.context import ClusterContext
from repro.errors import ApiError, ReproError
from repro.optim import (
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    UpdateRule,
    build_optimizer,
)


def _legacy_run(algorithm, step, *, max_updates, batch_fraction=0.25, seed=0, **kw):
    X, y, _ = get_dataset("tiny_dense", seed=seed)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(4) as ctx:
        points = ctx.matrix(X, y, 8).cache()
        return build_optimizer(
            algorithm, ctx, points, problem, step,
            OptimizerConfig(batch_fraction=batch_fraction,
                            max_updates=max_updates, seed=seed),
            **kw,
        ).run()


def test_spec_path_matches_handwired_asgd_exactly():
    """The acceptance criterion: same seed/config -> identical w."""
    legacy = _legacy_run(
        "asgd", InvSqrtDecay(0.5).scaled_for_async(4), max_updates=40,
    )
    via_spec = run_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "batch_fraction": 0.25, "max_updates": 40,
        "seed": 0, "alpha0": 0.5,
    })
    assert np.array_equal(legacy.w, via_spec.w)
    assert legacy.updates == via_spec.updates
    assert legacy.elapsed_ms == via_spec.elapsed_ms


def test_spec_path_matches_handwired_asaga_exactly():
    legacy = _legacy_run(
        "asaga", ConstantStep(0.05).scaled_for_async(4), max_updates=24,
        mode="history",
    )
    via_spec = run_experiment({
        "algorithm": "asaga", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "batch_fraction": 0.25, "max_updates": 24,
        "seed": 0, "alpha0": 0.05, "params": {"mode": "history"},
    })
    assert np.array_equal(legacy.w, via_spec.w)


def test_explicit_step_spec_matches_default_construction():
    base = {
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "batch_fraction": 0.25, "max_updates": 20,
        "seed": 0,
    }
    by_alpha0 = run_experiment({**base, "alpha0": 0.5})
    by_step = run_experiment({**base, "step": {
        "name": "scaled_for_async", "inner": {"name": "inv_sqrt", "a": 0.5},
    }})
    assert np.array_equal(by_alpha0.w, by_step.w)


@pytest.mark.parametrize("algorithm", [
    "sgd", "asgd", "saga", "asaga", "svrg", "asvrg", "async_lbfgs",
])
def test_every_registered_algorithm_runs_from_a_spec(algorithm):
    result = run_experiment({
        "algorithm": algorithm, "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": 10, "eval_every": 5, "seed": 0,
    })
    assert result.updates == 10
    assert result.elapsed_ms > 0
    if issubclass(OPTIMIZERS.get(algorithm), UpdateRule):
        for key in ("lost_tasks", "collected", "max_staleness_seen"):
            assert key in result.extras, (algorithm, key)
        assert result.extras["collected"] >= result.updates


def test_unknown_algorithm_and_dataset_rejected():
    with pytest.raises(ApiError, match="unknown optimizer 'quantum'"):
        run_experiment({"algorithm": "quantum", "dataset": "tiny_dense",
                        "alpha0": 0.1, "batch_fraction": 0.2})
    with pytest.raises(ReproError, match="unknown dataset"):
        run_experiment({"algorithm": "sgd", "dataset": "imaginary"})
    with pytest.raises(ApiError, match="bad params for optimizer"):
        run_experiment({"algorithm": "sgd", "dataset": "tiny_dense",
                        "max_updates": 4, "params": {"bogus": 1}})
    # cds:inf used to stop after one update with elapsed_ms = inf.
    for spelling in ("cds:inf", "cds:nan"):
        with pytest.raises(ApiError, match="finite"):
            run_experiment({"algorithm": "sgd", "dataset": "tiny_dense",
                            "max_updates": 10, "delay": spelling})
    with pytest.raises(ApiError, match="finite"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 10, "policy": "ct:nan"})


def test_custom_registered_optimizer_runs_without_explicit_step():
    """A user extension is spec-addressable with the default step path."""
    from repro.api import register_optimizer
    from repro.optim.asgd import ASGDRule

    @register_optimizer("asgd_custom_test")
    class _CustomASGD(ASGDRule):
        pass

    result = run_experiment({
        "algorithm": "asgd_custom_test", "dataset": "tiny_dense",
        "num_workers": 4, "num_partitions": 8, "max_updates": 8, "seed": 0,
    })
    assert result.updates == 8
    assert result.algorithm == "asgd_custom_test"


def test_null_params_treated_as_empty():
    result = run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                             "max_updates": 4, "params": None})
    assert result.updates == 4


def test_explicit_step_conflicts_with_default_step_knobs():
    with pytest.raises(ApiError, match="replaces the default schedule"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 4, "step": "inv_sqrt:0.5",
                        "alpha0": 0.9})
    with pytest.raises(ApiError, match="replaces the default schedule"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 4, "step": "inv_sqrt:0.5",
                        "staleness_adaptive": True})


def test_barrier_on_sync_optimizer_rejected():
    with pytest.raises(ApiError, match="has no effect on the synchronous"):
        run_experiment({"algorithm": "sgd", "dataset": "tiny_dense",
                        "barrier": "ssp:2", "max_updates": 4})


def test_wrong_typed_config_field_becomes_api_error():
    with pytest.raises(ApiError, match="bad run parameters"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": "50"})
    with pytest.raises(ApiError, match="bad cost/network parameters"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 4, "cost": {"overhead": 1.0}})
    with pytest.raises(ApiError, match="bad cost/network parameters"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 4, "network": {"latency": 1.0}})


@pytest.mark.parametrize("field,params,key", [
    ("cost", {"noise": 0.1}, "noise"),
    ("network", {"jitter": 0.1}, "jitter"),
])
def test_cost_noise_and_network_jitter_are_not_parameters(field, params, key):
    """Task costs and transfers are deterministic: the retired ``noise``
    and ``jitter`` keys are bad parameters, named in the error."""
    with pytest.raises(ApiError, match=f"bad cost/network parameters.*{key}"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "max_updates": 4, field: params})


def test_bad_component_values_become_api_errors():
    """ValueErrors from component constructors surface as ApiError."""
    with pytest.raises(ApiError, match="bad parameters for policy 'ssp'"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "barrier": "ssp:0", "max_updates": 4})
    with pytest.raises(ApiError, match="bad parameters for policy 'frac'"):
        run_experiment({"algorithm": "asgd", "dataset": "tiny_dense",
                        "barrier": "frac:2.0", "max_updates": 4})


def test_summarize_is_json_safe():
    import json

    prep = prepare_experiment({
        "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
        "max_updates": 8, "seed": 0,
    })
    with prep.make_context() as ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        result = prep.make_optimizer(ctx, points).run()
    summary = summarize(prep, result)
    text = json.dumps(summary)
    again = json.loads(text)
    assert again["updates"] == 8
    assert again["final_error"] < again["initial_error"]
    assert again["spec"]["algorithm"] == "asgd"
    assert again == summary  # series points are lists, not tuples


def test_record_byte_totals_cover_the_whole_context():
    """SAGA runs a set-up job before its metrics window opens: the
    record's byte totals are the context dispatcher's at the end of the
    run, not a sum over the window, which misses that job."""
    spec = {
        "algorithm": "saga", "dataset": "tiny_dense", "num_workers": 4,
        "max_updates": 6, "seed": 0,
    }
    prep = prepare_experiment(spec)
    with prep.make_context() as ctx:
        result = prep.run_in(ctx)
        disp = ctx.dispatcher
        task = disp.total_in_bytes + disp.total_out_bytes
        fetch = disp.total_fetch_bytes
    record = summarize(prep, result)
    assert (record["total_task_bytes"], record["total_fetch_bytes"]) == (
        task, fetch,
    )
    window = sum(m.in_bytes + m.out_bytes for m in result.metrics)
    assert 0 < window < task


def test_grid_sweep_shares_dataset_and_problem_across_cells():
    """Cells with one (dataset, seed, problem) build data and solve the
    reference optimum once."""
    from unittest import mock

    from repro.data import registry as data_registry
    from repro.optim.problems import LeastSquaresProblem

    gen_calls = []
    orig_generate = data_registry.DatasetSpec.generate
    solve_calls = []
    orig_solve = LeastSquaresProblem.solve_optimum

    def counting_generate(self, seed=0):
        gen_calls.append((self.name, seed))
        return orig_generate(self, seed)

    def counting_solve(self):
        solve_calls.append(1)
        return orig_solve(self)

    from repro.api.parallel import clear_shared_cache

    clear_shared_cache()  # the per-process slot may hold tiny_dense already
    with mock.patch.object(data_registry.DatasetSpec, "generate",
                           counting_generate), \
         mock.patch.object(LeastSquaresProblem, "solve_optimum",
                           counting_solve):
        run_grid({
            "base": {
                "algorithm": "asgd", "dataset": "tiny_dense",
                "num_workers": 4, "num_partitions": 8, "max_updates": 6,
                "seed": 0,
            },
            "grid": {"barrier": ["asp", "bsp", "ssp:2"]},
        })
    assert len(gen_calls) == 1
    assert len(solve_calls) == 1


def test_grid_sweep_runs_every_cell():
    calls = []
    summaries = run_grid(
        {
            "base": {
                "algorithm": "asgd", "dataset": "tiny_dense",
                "num_workers": 4, "num_partitions": 8, "max_updates": 12,
                "eval_every": 4, "seed": 0,
            },
            "grid": {"barrier": ["asp", "bsp"], "pipeline_depth": [1, 2]},
        },
        progress=lambda i, total, s: calls.append((i, total)),
    )
    assert len(summaries) == 4
    assert calls == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert [s["spec"]["policy"] for s in summaries] == [
        "asp", "asp", "bsp", "bsp"]
    assert all(s["updates"] == 12 for s in summaries)
    assert all(s["final_error"] < s["initial_error"] for s in summaries)
    # same cell, same seed -> sweeps are reproducible
    assert summaries[0]["final_error"] == run_grid({
        "base": {
            "algorithm": "asgd", "dataset": "tiny_dense", "num_workers": 4,
            "num_partitions": 8, "max_updates": 12, "eval_every": 4,
            "seed": 0,
        },
    })[0]["final_error"]
