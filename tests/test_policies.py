"""The SchedulingPolicy protocol: hooks, composition, grammar, policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import POLICIES
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    AndPolicy,
    CompletionTimeBarrier,
    LambdaPolicy,
    MinAvailableFraction,
    OrPolicy,
    SchedulingPolicy,
    Target,
    as_policy,
    parse_policy,
    policy_hooks,
    resolve_policy,
)
from repro.core.stat import StatTable
from repro.errors import ApiError, ReproError


def make_stat(P=4, busy=(), versions=None, current=0):
    stat = StatTable(P)
    stat.current_version = current
    for w in busy:
        stat[w].available = False
        stat[w].computing_version = (versions or {}).get(w, current)
    return stat


def worker_targets(workers):
    return [Target("worker", w, w) for w in workers]


def partition_targets(assignment):
    """``assignment``: list of (partition, worker) in dispatch order."""
    return [Target("partition", p, w) for p, w in assignment]


# -- protocol defaults ---------------------------------------------------------------
def test_default_select_admits_available_workers_in_order():
    stat = make_stat(busy=(1,))
    cands = worker_targets([0, 1, 2, 3])
    assert ASP().select(stat, cands) == worker_targets([0, 2, 3])


def test_default_select_partition_targets_follow_worker_filter():
    stat = make_stat(busy=(1,))
    cands = partition_targets([(0, 0), (4, 0), (1, 1), (2, 2)])
    # worker 1 is busy -> its partition drops; order stays worker-major.
    assert ASP().select(stat, cands) == partition_targets(
        [(0, 0), (4, 0), (2, 2)]
    )


def test_default_select_respects_custom_eligible_order():
    pol = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [2, 0])
    stat = make_stat()
    cands = partition_targets([(0, 0), (4, 0), (2, 2), (6, 2)])
    # eligible order (2 first) decides dispatch order; partitions of one
    # worker keep their candidate order.
    assert pol.select(stat, cands) == partition_targets(
        [(2, 2), (6, 2), (0, 0), (4, 0)]
    )


def test_default_hooks_are_neutral():
    pol = SchedulingPolicy()
    stat = make_stat(busy=(1,))
    assert pol.ready(stat)
    assert pol.select(stat, worker_targets([0, 1, 2])) == worker_targets([0, 2])
    # Two hooks: there is no per-result weight and no placement step.
    assert not hasattr(pol, "weight") and not hasattr(pol, "place")


# -- composition (satellite: partition-granular And/Or semantics) -------------------
def test_and_select_is_intersection_under_partition_granularity():
    stat = make_stat()
    cands = partition_targets([(0, 0), (4, 0), (1, 1), (5, 1), (2, 2)])
    a = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [0, 1])
    b = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [1, 2])
    both = a & b
    assert isinstance(both, AndPolicy)
    # eligible(): legacy worker-level intersection...
    assert both.eligible(stat) == [1]
    # ...and select(): the partition targets of that intersection only.
    assert both.select(stat, cands) == partition_targets([(1, 1), (5, 1)])


def test_or_select_is_stable_union_under_partition_granularity():
    stat = make_stat()
    cands = partition_targets([(0, 0), (1, 1), (2, 2)])
    a = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [2])
    b = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [0, 2])
    union = a | b
    assert isinstance(union, OrPolicy)
    assert union.eligible(stat) == [2, 0]
    # a's selection first, then b's additions — no duplicates.
    assert union.select(stat, cands) == partition_targets([(2, 2), (0, 0)])


def test_and_select_chains_so_samplers_draw_from_filtered_set():
    """`filter & sampler` must sample *within* the filter's selection —
    two independent draws intersected can come up empty and stall an
    idle cluster (regression: this crashed mid-run as a SchedulerError)."""
    import numpy as np

    stat = make_stat()
    cands = partition_targets([(p, p % 4) for p in range(8)])
    keep_even = LambdaPolicy(
        lambda s: True,
        select_fn=lambda s, cs: [t for t in cs if t.id % 2 == 0],
    )
    rng = np.random.default_rng(0)
    sampler = LambdaPolicy(
        lambda s: True,
        select_fn=lambda s, cs: [cs[int(rng.integers(len(cs)))]],
    )
    composed = keep_even & sampler
    for _ in range(50):
        picked = composed.select(stat, cands)
        assert picked, "chained selection must never be empty here"
        assert all(t.id % 2 == 0 for t in picked)


def test_composition_ready_semantics_unchanged():
    stat = make_stat(busy=(0, 1, 2))
    assert not (ASP() & BSP()).ready(stat)
    assert (ASP() | BSP()).ready(stat)


def _completion_history(stat, worker, times):
    row = stat[worker]
    for ms in times:
        row.note_assigned(stat.current_version)
        row.note_done()
        row.note_completion(0, 0.0, ms)


# -- grammar / coercion -------------------------------------------------------------
def test_parse_policy_precedence_and_tokens():
    pol = parse_policy("ssp:4 & ct:1.5 | bsp")
    # '&' binds tighter: (ssp & ct) | bsp.
    assert isinstance(pol, OrPolicy)
    assert isinstance(pol.a, AndPolicy)
    assert isinstance(pol.a.a, SSP) and pol.a.a.threshold == 4
    assert isinstance(pol.a.b, CompletionTimeBarrier) and pol.a.b.ratio == 1.5
    assert isinstance(pol.b, BSP)


def test_parse_policy_rejects_bad_terms():
    with pytest.raises(ApiError, match="empty term"):
        parse_policy("asp & ")
    with pytest.raises(ApiError, match="unknown policy"):
        parse_policy("asp & nope")


@pytest.mark.parametrize("term", ["ssp:nan", "ssp:inf", "ct:nan", "ct:inf"])
def test_parse_policy_rejects_non_finite_parameters(term):
    """NaN passed the old ``< 0`` / ``<= 1`` checks and ran silently."""
    with pytest.raises(ApiError, match="finite"):
        parse_policy(term)


@pytest.mark.parametrize("term", ["ssp:1.5"])
def test_parse_policy_rejects_fractional_staleness_bounds(term):
    """A staleness bound counts updates; ``1.5`` used to build a policy
    that silently behaved as ``2``."""
    with pytest.raises(ApiError, match="whole number"):
        resolve_policy(term)


def test_whole_valued_staleness_bounds_are_accepted():
    assert resolve_policy("ssp:3").threshold == 3
    assert resolve_policy({"name": "ssp", "threshold": 2.0}).threshold == 2


#: One policy term: a registered name, optionally with a ``:arg`` drawn
#: from numbers, number-like junk and free text.
_POLICY_TERM = st.tuples(
    st.sampled_from(POLICIES.names()),
    st.one_of(
        st.just(""),
        st.integers().map(str),
        st.floats().map(repr),
        st.text(alphabet="0123456789.e-+_naifp", max_size=12),
        st.text(max_size=8),
    ),
).map(lambda t: f"{t[0]}:{t[1]}" if t[1] else t[0])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.lists(
        st.tuples(_POLICY_TERM, st.sampled_from(["&", "|", " & ", ""])),
        min_size=1, max_size=3,
    ).map(lambda parts: "".join(term + op for term, op in parts)),
))
def test_any_text_is_a_policy_or_a_typed_error(text):
    try:
        policy = resolve_policy(text)
    except ReproError:
        return
    assert isinstance(policy, SchedulingPolicy)


def test_resolve_policy_spellings():
    ssp = SSP(3)
    assert resolve_policy(ssp) is ssp
    assert isinstance(resolve_policy("asp"), ASP)
    composed = resolve_policy("asp & ct:1.5")
    assert isinstance(composed, AndPolicy)
    made = resolve_policy({"name": "frac", "beta": 0.5})
    assert isinstance(made, MinAvailableFraction) and made.beta == 0.5
    wrapped = resolve_policy(lambda stat: True)
    assert isinstance(wrapped, LambdaPolicy)


def test_as_policy_coercions():
    assert isinstance(as_policy(None), ASP)
    bsp = BSP()
    assert as_policy(bsp) is bsp
    with pytest.raises(TypeError):
        as_policy(42)


def test_policy_hooks_introspection():
    assert policy_hooks(ASP) == ["ready"]
    assert policy_hooks(CompletionTimeBarrier) == ["ready", "select"]
    assert policy_hooks(lambda: ASP()) == []
    for name in POLICIES.names():
        assert set(policy_hooks(POLICIES.get(name))) <= {"ready", "select"}


# -- CompletionTimeBarrier regression (satellite) -----------------------------------
def test_ct_zero_sample_workers_do_not_skew_threshold():
    """Early in a run, rows with no completed tasks must neither enter the
    median (which would drag the threshold toward zero and filter
    everyone) nor be filtered themselves."""
    stat = make_stat()
    _completion_history(stat, 0, [100.0])  # the only worker with history
    barrier = CompletionTimeBarrier(ratio=2.0)
    # Median comes from worker 0 alone — three zero-sample rows don't
    # pull it to 0.0 (which would mark worker 0 as slow: 100 > 2*0).
    assert stat.median_completion_ms() == 100.0
    assert barrier.ready(stat)
    assert barrier.eligible(stat) == [0, 1, 2, 3]


def test_ct_filters_only_workers_with_history():
    stat = make_stat()
    _completion_history(stat, 0, [10.0])
    _completion_history(stat, 1, [10.0])
    _completion_history(stat, 3, [100.0])
    barrier = CompletionTimeBarrier(ratio=2.0)
    # Worker 2 (no samples) stays eligible; worker 3 is filtered on its
    # own history, judged against the median over history-bearing rows.
    assert barrier.eligible(stat) == [0, 1, 2]
    assert barrier.ready(stat)


def test_ct_all_zero_history_is_fully_permissive():
    stat = make_stat()
    barrier = CompletionTimeBarrier(ratio=2.0)
    assert barrier.eligible(stat) == [0, 1, 2, 3]
    assert barrier.ready(stat)
