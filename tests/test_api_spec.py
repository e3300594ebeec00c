"""ExperimentSpec / GridSpec: round-trips, validation, expansion."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import ExperimentSpec, GridSpec
from repro.core.policies import resolve_policy
from repro.errors import ApiError


def test_spec_dict_round_trip():
    spec = ExperimentSpec(
        algorithm="asaga", dataset="rcv1_like", num_workers=8,
        policy="ssp:4", delay={"name": "cds", "intensity": 0.6},
        step={"name": "constant", "a": 0.05}, max_updates=64,
        params={"mode": "naive"},
    )
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_json_round_trip_handles_infinity():
    spec = ExperimentSpec(max_time_ms=None)
    text = spec.to_json()
    assert "Infinity" not in text
    again = ExperimentSpec.from_json(text)
    assert again == spec
    # explicit float budgets survive too
    bounded = ExperimentSpec(max_time_ms=125.0)
    assert ExperimentSpec.from_json(bounded.to_json()).max_time_ms == 125.0
    # a spec built with +inf serializes to null rather than bare Infinity
    inf_spec = ExperimentSpec(max_time_ms=math.inf)
    assert json.loads(inf_spec.to_json())["max_time_ms"] is None


def test_spec_rejects_unknown_fields():
    with pytest.raises(ApiError, match="unknown ExperimentSpec field"):
        ExperimentSpec.from_dict({"algorithm": "asgd", "warp_speed": 9})


def test_spec_drops_legacy_fuse_tasks_key():
    """Recorded specs from before fused rounds were retired still load;
    both values mean the one remaining task path and leave no trace in
    the canonical form."""
    plain = ExperimentSpec.from_dict({"algorithm": "asgd"})
    for value in (True, False):
        legacy = ExperimentSpec.from_dict(
            {"algorithm": "asgd", "fuse_tasks": value}
        )
        assert legacy == plain
        assert "fuse_tasks" not in legacy.to_dict()
    with pytest.raises(ApiError, match="unknown ExperimentSpec field"):
        ExperimentSpec.from_dict({"fuse_tasks": False, "warp_speed": 9})


def test_spec_reads_legacy_barrier_key_as_policy():
    """``barrier`` was the first spelling of ``policy``: recorded specs
    carrying it load into the one field and never write it back."""
    legacy = ExperimentSpec.from_dict({"algorithm": "asgd", "barrier": "ssp:4"})
    assert legacy.policy == "ssp:4"
    assert legacy == ExperimentSpec(algorithm="asgd", policy="ssp:4")
    assert "barrier" not in legacy.to_dict()
    assert "barrier" not in {f.name for f in fields(ExperimentSpec)}
    # The parent's to_dict wrote both keys, the unused one as null.
    for recorded in (
        {"barrier": "ssp:4", "policy": None},
        {"barrier": None, "policy": "ssp:4"},
        {"policy": None, "barrier": "ssp:4"},
    ):
        assert ExperimentSpec.from_dict(recorded) == ExperimentSpec(policy="ssp:4")
    assert ExperimentSpec.from_dict({"barrier": None}) == ExperimentSpec()
    assert ExperimentSpec.coerce({"barrier": {"name": "ssp", "threshold": 2}}
                                 ).policy == {"name": "ssp", "threshold": 2}
    with pytest.raises(ApiError, match="set only one"):
        ExperimentSpec.from_dict({"barrier": "asp", "policy": "bsp"})


_TERMS = st.sampled_from([
    "asp", "bsp", "ssp:4", "frac:0.5", "ct:1.5", "ssp_partition:2",
    "sample:0.3", "fedasync:poly", "migrate:1.5",
])
_POLICY_SPECS = st.one_of(
    st.none(),
    # '&' binds tighter than '|': build the string form the grammar parses.
    st.lists(
        st.lists(_TERMS, min_size=1, max_size=3).map(" & ".join),
        min_size=1, max_size=3,
    ).map(" | ".join),
    st.fixed_dictionaries(
        {"name": st.sampled_from(["ssp", "ssp_partition"]),
         "threshold": st.integers(1, 16)}
    ),
    st.fixed_dictionaries(
        {"name": st.just("migrate"),
         "threshold": st.sampled_from([1.5, "p90"]),
         "cooldown": st.integers(0, 8)}
    ),
)


@settings(max_examples=60, deadline=None)
@given(policy=_POLICY_SPECS, legacy_key=st.booleans())
def test_policy_spellings_round_trip(policy, legacy_key):
    """from_dict(to_dict(s)) == s over every policy spelling — tokens,
    ``&``/``|`` compositions, dict specs — whichever key carried it in."""
    spec = ExperimentSpec.from_dict(
        {"algorithm": "asgd", "barrier" if legacy_key else "policy": policy}
    )
    assert spec.policy == policy
    wire = json.loads(json.dumps(spec.to_dict()))
    assert "barrier" not in wire
    assert ("policy" in wire) == (policy is not None)
    assert ExperimentSpec.from_dict(wire) == spec
    if policy is not None:
        resolve_policy(policy)  # every generated spelling is a real policy


def test_spec_default_retention_omitted_from_canonical_json():
    """The metrics_retention default stays out of to_dict so canonical
    spec JSON (and checkpoint keys) is byte-stable."""
    assert "metrics_retention" not in ExperimentSpec().to_dict()
    tuned = ExperimentSpec(metrics_retention="aggregate").to_dict()
    assert tuned["metrics_retention"] == "aggregate"
    assert ExperimentSpec.from_dict(tuned).metrics_retention == "aggregate"


def test_spec_coerce():
    spec = ExperimentSpec.coerce({"algorithm": "sgd"})
    assert spec.algorithm == "sgd"
    assert ExperimentSpec.coerce(spec) is spec
    with pytest.raises(ApiError):
        ExperimentSpec.coerce("asgd")


def test_grid_expansion_row_major():
    grid = GridSpec(
        base=ExperimentSpec(algorithm="asgd", max_updates=8),
        grid={"num_workers": [2, 4], "policy": ["asp", "bsp", "ssp:2"]},
    )
    specs = grid.expand()
    assert len(grid) == 6 and len(specs) == 6
    # last axis varies fastest
    assert [s.policy for s in specs[:3]] == ["asp", "bsp", "ssp:2"]
    assert [s.num_workers for s in specs] == [2, 2, 2, 4, 4, 4]
    # untouched base fields propagate to every cell
    assert all(s.max_updates == 8 for s in specs)


def test_grid_legacy_barrier_axis_sweeps_policy():
    """A recorded grid's ``barrier`` axis (and dotted paths under it)
    addresses ``policy`` — overriding the base's value like any axis."""
    grid = GridSpec.from_dict({
        "base": {"algorithm": "asgd", "barrier": "asp"},
        "grid": {"barrier": ["bsp", "ssp:2"]},
    })
    assert grid.base.policy == "asp"
    assert [s.policy for s in grid.expand()] == ["bsp", "ssp:2"]
    assert "barrier" not in grid.to_dict()["grid"]
    nested = GridSpec.from_dict({
        "base": {"policy": {"name": "ssp", "threshold": 1}},
        "grid": {"barrier.threshold": [2, 4]},
    })
    assert [s.policy["threshold"] for s in nested.expand()] == [2, 4]
    # the field name is renamed, not every axis that starts with it
    assert list(GridSpec.from_dict({"grid": {"barriers": [0]}}).grid) == ["barriers"]
    with pytest.raises(ApiError, match="old spelling of 'policy'"):
        GridSpec.coerce({"grid": {"barrier": ["asp"], "policy": ["bsp"]}})


def test_grid_dotted_paths_reach_nested_fields():
    grid = GridSpec(
        base=ExperimentSpec(algorithm="asaga",
                            step={"name": "constant", "a": 0.1}),
        grid={"params.mode": ["history", "naive"], "step.a": [0.1, 0.2]},
    )
    specs = grid.expand()
    assert [s.params["mode"] for s in specs] == [
        "history", "history", "naive", "naive"]
    assert [s.step["a"] for s in specs] == [0.1, 0.2, 0.1, 0.2]


def test_grid_dotted_path_rejects_scalar_descent():
    grid = GridSpec(grid={"algorithm.x": [1]})
    with pytest.raises(ApiError, match="non-dict field"):
        grid.expand()


def test_grid_rejects_empty_axes():
    with pytest.raises(ApiError, match="non-empty list"):
        GridSpec(grid={"num_workers": []})
    with pytest.raises(ApiError, match="non-empty list"):
        GridSpec(grid={"num_workers": 4})


def test_grid_json_round_trip():
    grid = GridSpec(
        base=ExperimentSpec(algorithm="asgd"),
        grid={"policy": ["asp", "bsp"]},
    )
    again = GridSpec.from_json(grid.to_json())
    assert again == grid
    assert [s.policy for s in again.expand()] == ["asp", "bsp"]


def test_grid_rejects_instance_valued_base_fields():
    import numpy as np

    from repro.optim.problems import LeastSquaresProblem

    X = np.eye(4)
    y = np.ones(4)
    grid = GridSpec(
        base=ExperimentSpec(problem=LeastSquaresProblem(X, y)),
        grid={"num_workers": [2, 4]},
    )
    with pytest.raises(ApiError, match="hold object instances"):
        grid.expand()


def test_grid_null_fields_treated_as_empty():
    grid = GridSpec.from_dict({"base": {"algorithm": "sgd"}, "grid": None})
    assert len(grid) == 1
    base_null = GridSpec.from_dict({"base": None,
                                    "grid": {"seed": [0, 1]}})
    assert len(base_null) == 2


def test_grid_coerce_forms():
    single = GridSpec.coerce({"algorithm": "sgd", "max_updates": 4})
    assert len(single) == 1
    assert single.expand()[0].algorithm == "sgd"
    wrapped = GridSpec.coerce({"base": {"algorithm": "sgd"},
                               "grid": {"seed": [0, 1]}})
    assert len(wrapped) == 2
    from_spec = GridSpec.coerce(ExperimentSpec(algorithm="saga"))
    assert from_spec.expand()[0].algorithm == "saga"
    with pytest.raises(ApiError, match="unknown GridSpec field"):
        GridSpec.from_dict({"base": {}, "grid": {}, "bogus": 1})
