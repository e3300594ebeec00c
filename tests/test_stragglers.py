"""Straggler delay models: CDS and the production-cluster mix."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backend import BackendTask
from repro.cluster.simbackend import SimBackend
from repro.cluster.stragglers import (
    ControlledDelay,
    DelayModel,
    NoDelay,
    ProductionCluster,
    resolve_delay_model,
)
from repro.errors import ApiError


def test_no_delay_is_unit():
    m = NoDelay()
    assert m.factor(0, 0) == 1.0
    assert m.factor(31, 999) == 1.0


def test_controlled_delay_targets_only_listed_workers():
    m = ControlledDelay(intensity=1.0, workers=(2, 5))
    assert m.factor(2, 0) == 2.0
    assert m.factor(5, 7) == 2.0
    assert m.factor(0, 0) == 1.0


def test_controlled_delay_paper_convention():
    # "a 100% delay means the worker is executing jobs at half speed"
    assert ControlledDelay(1.0, workers=(0,)).factor(0, 1) == 2.0
    assert ControlledDelay(0.3, workers=(0,)).factor(0, 1) == pytest.approx(1.3)
    assert ControlledDelay(0.0, workers=(0,)).factor(0, 1) == 1.0


def test_controlled_delay_rejects_negative():
    with pytest.raises(ValueError):
        ControlledDelay(intensity=-0.5)


def test_pcs_straggler_counts_match_paper():
    # 32 workers -> 8 stragglers: 6 uniform + 2 long-tail.
    m = ProductionCluster(num_workers=32, seed=0)
    assert len(m.uniform_workers) == 6
    assert len(m.long_tail_workers) == 2
    assert not (m.uniform_workers & m.long_tail_workers)


def test_pcs_factors_within_bands():
    m = ProductionCluster(num_workers=32, seed=1)
    for w in range(32):
        for t in range(20):
            f = m.factor(w, t)
            if w in m.long_tail_workers:
                assert 2.5 <= f <= 10.0
            elif w in m.uniform_workers:
                assert 1.5 <= f <= 2.5
            else:
                assert f == 1.0


def test_pcs_seeded_assignment_is_stable():
    a = ProductionCluster(num_workers=32, seed=3)
    b = ProductionCluster(num_workers=32, seed=3)
    assert a.uniform_workers == b.uniform_workers
    assert a.long_tail_workers == b.long_tail_workers
    assert a.factor(5, 7) == b.factor(5, 7)


def test_pcs_different_seed_changes_assignment():
    seeds = [ProductionCluster(num_workers=32, seed=s).uniform_workers
             for s in range(6)]
    assert len({tuple(sorted(s)) for s in seeds}) > 1


def test_pcs_per_task_randomness():
    m = ProductionCluster(num_workers=32, seed=0)
    w = next(iter(m.uniform_workers))
    factors = {m.factor(w, t) for t in range(50)}
    assert len(factors) > 10  # re-sampled per task


def test_pcs_validates_params():
    with pytest.raises(ValueError):
        ProductionCluster(num_workers=0)
    with pytest.raises(ValueError):
        ProductionCluster(straggler_fraction=1.5)
    with pytest.raises(ValueError):
        ProductionCluster(long_tail_fraction=-0.1)


def test_mapping_delay():
    """A ``{worker: factor}`` table is a small ``DelayModel`` subclass,
    and the backend scales that worker's compute by it."""

    class Mapped(DelayModel):
        def factor(self, worker_id, task_seq):
            return {0: 3.0}.get(worker_id, 1.0)

    backend = SimBackend(2, delay_model=Mapped())
    done = {}
    backend.set_completion_callback(
        lambda task, w, value, m, error: done.setdefault(w, m)
    )
    for w in (0, 1):
        backend.submit(BackendTask(task_id=w, fn=lambda env: None), w)
    backend.drain()
    assert done[0].delay_factor == 3.0 and done[1].delay_factor == 1.0
    assert done[0].compute_ms == 3.0 * done[1].compute_ms


def test_describe_strings():
    assert "CDS" in ControlledDelay(0.6).describe()
    assert "PCS" in ProductionCluster(num_workers=8, seed=0).describe()


# ---------------------------------------------------------------------------
# Hostile input: the delay grammar resolves to a sane model or an ApiError
# ---------------------------------------------------------------------------

_BAD_DELAYS = [
    # An inverted band used to resolve, then fail on the first straggler
    # task with numpy's "high - low < 0".
    {"name": "pcs", "uniform_band": [3, 1]},
    # A non-numeric band: a float() error mid-run on 32 workers, and
    # unnoticed on 8 (no long-tail worker drawn there).
    {"name": "pcs", "num_workers": 32, "long_tail_band": ["a", "b"]},
    # A straggler the cluster does not have used to run with no delay
    # at all; a fractional worker id used to slow worker 1.
    {"name": "cds", "workers": [99]},
    {"name": "cds", "workers": [1.5]},
]


@pytest.mark.parametrize("delay", _BAD_DELAYS)
def test_bad_delay_specs_fail_at_resolution(delay):
    from repro.api.runner import run_experiment

    with pytest.raises(ApiError, match="delay model"):
        run_experiment({
            "algorithm": "asgd", "num_workers": 8, "max_updates": 20,
            "delay": delay,
        })


def test_delay_bounds_are_checked_against_the_cluster():
    ok = resolve_delay_model({"name": "cds", "workers": [7]}, num_workers=8)
    assert ok.factor(7, 0) == 2.0
    with pytest.raises(ApiError, match=r"worker\(s\) \[8\]"):
        resolve_delay_model({"name": "cds", "workers": [0, 8]}, num_workers=8)
    assert isinstance(resolve_delay_model("cds:0", num_workers=8), NoDelay)
    with pytest.raises(ApiError):  # checked even when nothing is slowed
        resolve_delay_model(
            {"name": "cds", "intensity": 0, "workers": [-1]}, num_workers=8
        )
    flat = resolve_delay_model(
        {"name": "pcs", "uniform_band": [2, 2], "long_tail_band": [1, 1]},
        num_workers=8,
    )
    assert {flat.factor(w, 0) for w in flat.uniform_workers} <= {2.0}


_NAMES = st.sampled_from(["none", "cds", "pcs", "bogus", ""])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3),
                       max_leaves=4)
_DELAY_SPECS = st.one_of(
    st.text(max_size=12),
    st.builds(
        "{}:{}".format, _NAMES,
        st.one_of(st.text(max_size=6), st.integers(-5, 40).map(str),
                  st.floats().map(repr)),
    ),
    st.builds(
        lambda name, params: {"name": name, **params},
        _NAMES,
        st.dictionaries(
            st.sampled_from([
                "intensity", "workers", "num_workers", "seed",
                "straggler_fraction", "long_tail_fraction", "uniform_band",
                "long_tail_band", "warp",
            ]),
            _VALUES, max_size=4,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(spec=_DELAY_SPECS, num_workers=st.integers(1, 12),
       seed=st.integers(0, 3))
def test_any_delay_spec_is_a_sane_model_or_an_api_error(
    spec, num_workers, seed
):
    """Every token or dict either fails resolution with an ApiError or
    yields factors that are finite and >= 1 on every worker it may see."""
    try:
        model = resolve_delay_model(spec, num_workers=num_workers, seed=seed)
    except ApiError:
        return
    for worker in range(num_workers):
        for task in (0, 1, 7, 1000):
            factor = model.factor(worker, task)
            assert math.isfinite(factor) and factor >= 1.0, (spec, factor)
