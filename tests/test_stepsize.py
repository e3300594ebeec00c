"""Step-size schedules."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import OptimError
from repro.optim.stepsize import (
    ConstantStep,
    InvSqrtDecay,
    StalenessScaled,
)


def test_constant():
    s = ConstantStep(0.3)
    assert s.alpha(1) == s.alpha(1000) == 0.3


def test_invsqrt_matches_mllib_rule():
    s = InvSqrtDecay(1.0)
    assert s.alpha(1) == 1.0
    assert s.alpha(4) == 0.5
    assert s.alpha(100) == pytest.approx(0.1)


def test_invsqrt_rejects_t_zero():
    with pytest.raises(OptimError):
        InvSqrtDecay(1.0).alpha(0)


def test_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(OptimError):
            ConstantStep(bad)
        with pytest.raises(OptimError):
            InvSqrtDecay(bad)


def test_scaled_for_async_divides_by_workers():
    s = InvSqrtDecay(0.8).scaled_for_async(8)
    assert s.alpha(1) == pytest.approx(0.1)
    assert s.alpha(4) == pytest.approx(0.05)
    assert "x" in s.describe()


def test_scaled_for_async_validates():
    with pytest.raises(OptimError):
        ConstantStep(1.0).scaled_for_async(0)
    with pytest.raises(OptimError):
        ConstantStep(1.0).scaled(-2.0)


def test_staleness_scaling_listing1():
    """Listing 1: w -= alpha / attr.staleness * gradient."""
    s = StalenessScaled(ConstantStep(1.0))
    assert s.alpha(1, staleness=0) == 1.0   # fresh -> no damping
    assert s.alpha(1, staleness=1) == 1.0
    assert s.alpha(1, staleness=4) == 0.25
    with pytest.raises(OptimError):
        s.alpha(1, staleness=-1)


def test_staleness_wraps_decay():
    s = StalenessScaled(InvSqrtDecay(1.0))
    assert s.alpha(4, staleness=2) == pytest.approx(0.25)
    assert "StalenessScaled" in s.describe()


@given(st.integers(1, 10_000))
def test_invsqrt_monotone_decreasing(t):
    s = InvSqrtDecay(2.0)
    assert s.alpha(t + 1) < s.alpha(t)


@given(st.integers(1, 1000), st.integers(0, 50))
def test_staleness_never_increases_step(t, staleness):
    base = InvSqrtDecay(1.0)
    adaptive = StalenessScaled(base)
    assert adaptive.alpha(t, staleness) <= base.alpha(t) + 1e-15


@given(st.integers(1, 1000))
def test_all_schedules_positive(t):
    for s in (ConstantStep(0.1), InvSqrtDecay(0.1),
              StalenessScaled(ConstantStep(0.1))):
        assert s.alpha(t, staleness=3) > 0
