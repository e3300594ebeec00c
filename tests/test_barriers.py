"""Barrier-control policies: ASP / BSP / SSP / fraction / completion-time."""

import pytest

from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    LambdaPolicy,
    MinAvailableFraction,
    as_policy,
)
from repro.core.stat import StatTable


def make_stat(P=4, busy=(), versions=None, current=0):
    stat = StatTable(P)
    stat.current_version = current
    for w in busy:
        stat[w].available = False
        stat[w].computing_version = (versions or {}).get(w, current)
    return stat


def test_asp_ready_with_any_available():
    assert ASP().ready(make_stat(busy=(0, 1, 2)))
    assert not ASP().ready(make_stat(busy=(0, 1, 2, 3)))


def test_bsp_requires_everyone():
    assert BSP().ready(make_stat())
    assert not BSP().ready(make_stat(busy=(2,)))


def test_bsp_counts_only_alive():
    stat = make_stat()
    stat[3].alive = False
    stat[3].available = False
    assert BSP().ready(stat)  # 3 alive, 3 available


def test_ssp_blocks_on_stale_inflight():
    # worker 0 computing at version 0 while server is at 5 -> staleness 5.
    stat = make_stat(busy=(0,), versions={0: 0}, current=5)
    assert not SSP(3).ready(stat)
    assert SSP(6).ready(stat)


def test_ssp_requires_a_free_worker():
    stat = make_stat(busy=(0, 1, 2, 3))
    assert not SSP(100).ready(stat)


def test_ssp_validates_threshold():
    with pytest.raises(ValueError):
        SSP(0)


def test_fraction_barrier_floor_rule():
    # beta=0.5, P=4 -> need 2 available.
    b = MinAvailableFraction(0.5)
    assert b.ready(make_stat(busy=(0, 1)))
    assert not b.ready(make_stat(busy=(0, 1, 2)))


def test_fraction_validates_beta():
    with pytest.raises(ValueError):
        MinAvailableFraction(0.0)
    with pytest.raises(ValueError):
        MinAvailableFraction(1.5)


def test_completion_time_filters_slow_workers():
    stat = make_stat()
    for w, t in enumerate([10.0, 10.0, 10.0, 100.0]):
        stat[w].completion.add(t)
        stat[w].tasks_completed = 1
    barrier = CompletionTimeBarrier(ratio=2.0)
    assert barrier.ready(stat)
    assert barrier.eligible(stat) == [0, 1, 2]


def test_completion_time_accepts_fresh_workers():
    stat = make_stat()
    assert CompletionTimeBarrier(2.0).eligible(stat) == [0, 1, 2, 3]


def test_lambda_barrier_wraps_predicate():
    b = LambdaPolicy(lambda stat: stat.num_available >= 2, name="mine")
    assert b.ready(make_stat(busy=(0,)))
    assert not b.ready(make_stat(busy=(0, 1, 2)))
    assert b.describe() == "mine"


def test_lambda_barrier_custom_eligibility():
    b = LambdaPolicy(
        lambda stat: True,
        eligible_fn=lambda stat: [w for w in stat.available_workers()
                                  if w % 2 == 0],
    )
    assert b.eligible(make_stat()) == [0, 2]


def test_and_combinator():
    both = ASP() & MinAvailableFraction(0.75)
    assert both.ready(make_stat(busy=(0,)))      # 3/4 available
    assert not both.ready(make_stat(busy=(0, 1)))
    assert "&" in both.describe()


def test_or_combinator():
    either = BSP() | MinAvailableFraction(0.25)
    assert either.ready(make_stat(busy=(0, 1, 2)))
    assert not either.ready(make_stat(busy=(0, 1, 2, 3)))
    assert "|" in either.describe()


def test_and_eligibility_intersection():
    a = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [0, 1, 2])
    b = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [1, 2, 3])
    assert (a & b).eligible(make_stat()) == [1, 2]


def test_or_eligibility_union_stable():
    a = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [2, 0])
    b = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [1, 0])
    assert (a | b).eligible(make_stat()) == [2, 0, 1]


def test_as_barrier_coercions():
    assert isinstance(as_policy(None), ASP)
    assert isinstance(as_policy(BSP()), BSP)
    wrapped = as_policy(lambda stat: True)
    assert wrapped.ready(make_stat())
    with pytest.raises(TypeError):
        as_policy(42)


def test_paper_listing2_asp_spelling():
    """Listing 2: `STAT.foreach(true)` == a predicate that's always true."""
    b = as_policy(lambda stat: all(True for _ in stat))
    stat = make_stat(busy=(0, 1, 2, 3))
    # With everyone busy the policy is formally ready but has nobody to
    # dispatch to; eligibility is empty.
    assert b.eligible(stat) == []
