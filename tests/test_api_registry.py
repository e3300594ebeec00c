"""Registry mechanics: registration, lookup errors, spec resolution."""

import pytest

from repro.api.registry import (
    DELAY_MODELS,
    OPTIMIZERS,
    POLICIES,
    PROBLEMS,
    STEPS,
    Registry,
)
from repro.cluster.stragglers import ControlledDelay, NoDelay, ProductionCluster
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    MinAvailableFraction,
)
from repro.errors import ApiError, ReproError
from repro.optim.stepsize import InvSqrtDecay


def test_builtin_components_registered():
    # Importing repro pulls in every module with @register_* decorators.
    import repro  # noqa: F401

    assert {"sgd", "asgd", "saga", "asaga", "svrg", "asvrg",
            "async_lbfgs"} <= set(OPTIMIZERS.names())
    assert {"asp", "bsp", "ssp", "frac", "ct"} <= set(POLICIES.names())
    assert {"constant", "inv_sqrt"} <= set(STEPS.names())
    assert {"none", "cds", "pcs"} <= set(DELAY_MODELS.names())
    assert {"least_squares", "ridge", "logistic"} <= set(PROBLEMS.names())


def test_unknown_name_lists_available():
    with pytest.raises(ApiError, match="unknown policy 'nope'"):
        POLICIES.get("nope")
    with pytest.raises(ApiError, match="asp"):
        POLICIES.get("nope")  # error message names the alternatives


def test_api_error_is_repro_error():
    assert issubclass(ApiError, ReproError)


def test_duplicate_registration_rejected():
    reg = Registry("widget")
    reg.register("a")(object)
    with pytest.raises(ApiError, match="already registered"):
        reg.register("a")(object)
    with pytest.raises(ApiError, match="already registered"):
        reg.register("b", aliases=("a",))(object)


def test_alias_resolves_to_canonical():
    assert POLICIES.get("min_available_fraction") is POLICIES.get("frac")
    assert POLICIES.get("completion_time") is POLICIES.get("ct")


def test_create_from_bare_name():
    assert isinstance(POLICIES.create("asp"), ASP)
    assert isinstance(POLICIES.create("bsp"), BSP)


def test_create_from_token_coerces_first_param():
    ssp = POLICIES.create("ssp:5")
    assert isinstance(ssp, SSP) and ssp.threshold == 5
    frac = POLICIES.create("frac:0.5")
    assert isinstance(frac, MinAvailableFraction) and frac.beta == 0.5
    ct = POLICIES.create("ct:2.5")
    assert isinstance(ct, CompletionTimeBarrier) and ct.ratio == 2.5


def test_create_from_dict():
    cds = DELAY_MODELS.create({"name": "cds", "intensity": 0.6,
                               "workers": [1, 2]})
    assert isinstance(cds, ControlledDelay)
    assert cds.intensity == 0.6
    assert cds.factor(1, 0) == 1.6 and cds.factor(0, 0) == 1.0


def test_create_dict_requires_name():
    with pytest.raises(ApiError, match="needs a 'name' key"):
        POLICIES.create({"threshold": 4})


def test_create_rejects_bad_params():
    with pytest.raises(ApiError, match="bad parameters for policy 'ssp'"):
        POLICIES.create({"name": "ssp", "bogus": 1})


def test_create_rejects_non_spec():
    with pytest.raises(ApiError, match="cannot interpret"):
        POLICIES.create(42)


def test_create_passes_instances_through():
    asp = ASP()
    assert POLICIES.create(asp, expect=ASP) is asp


def test_defaults_injected_only_when_accepted_and_missing():
    pcs = DELAY_MODELS.create("pcs", defaults={"num_workers": 16, "seed": 3,
                                               "irrelevant": object()})
    assert isinstance(pcs, ProductionCluster)
    assert pcs.num_workers == 16 and pcs.seed == 3
    explicit = DELAY_MODELS.create({"name": "pcs", "num_workers": 8},
                                   defaults={"num_workers": 16, "seed": 0})
    assert explicit.num_workers == 8  # spec wins over injected default


def test_cds_zero_intensity_degenerates_to_nodelay():
    assert isinstance(DELAY_MODELS.create("cds:0"), NoDelay)
    assert isinstance(DELAY_MODELS.create("cds:0.6"), ControlledDelay)


@pytest.mark.parametrize("spec", [
    "cds:nan", "cds:inf", "cds:-inf",
    {"name": "pcs", "num_workers": float("nan")},
])
def test_non_finite_delay_parameters_rejected(spec):
    """``cds:inf`` used to end a run after one update with
    ``elapsed_ms = inf``; ``cds:nan`` ran silently."""
    with pytest.raises(ApiError, match="finite"):
        DELAY_MODELS.create(spec)


def test_nested_step_specs_compose():
    step = STEPS.create(
        {"name": "scaled_for_async",
         "inner": {"name": "inv_sqrt", "a": 0.5}},
        defaults={"num_workers": 4},
    )
    assert step.alpha(1) == pytest.approx(InvSqrtDecay(0.5).alpha(1) / 4)
    stale = STEPS.create({"name": "staleness_scaled", "inner": "constant:0.4"})
    assert stale.alpha(1, staleness=4) == pytest.approx(0.1)


def test_context_defaults_reach_nested_step_specs():
    """num_workers injection must survive wrapper nesting."""
    step = STEPS.create(
        {"name": "staleness_scaled",
         "inner": {"name": "scaled_for_async", "inner": "inv_sqrt:0.5"}},
        defaults={"num_workers": 4},
    )
    # staleness 1: just the 1/P scaling
    assert step.alpha(1, staleness=1) == pytest.approx(0.5 / 4)
    # staleness 2 halves it again
    assert step.alpha(1, staleness=2) == pytest.approx(0.5 / 8)
    deep = STEPS.create(
        {"name": "scaled", "factor": 0.5,
         "inner": {"name": "scaled_for_async", "inner": "constant:1.0"}},
        defaults={"num_workers": 8},
    )
    assert deep.alpha(3) == pytest.approx(1.0 / 8 * 0.5)
