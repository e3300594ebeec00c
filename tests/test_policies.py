"""The SchedulingPolicy protocol: hooks, dispatch order, spellings, policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import POLICIES
from repro.core import ASYNCContext
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    LambdaPolicy,
    MinAvailableFraction,
    SchedulingPolicy,
    as_policy,
    policy_hooks,
    resolve_policy,
)
from repro.errors import ApiError, ReproError, SchedulerError
from stat_rows import make_stat


# -- protocol defaults ---------------------------------------------------------------
def test_default_hooks_are_neutral():
    pol = SchedulingPolicy()
    stat = make_stat(busy=(1, 3))
    assert pol.ready(stat)
    assert pol.eligible(stat) == [0, 2]
    # Two hooks: no target selection, no per-result weight, no placement
    # step, and policies do not compose.
    for gone in ("select", "weight", "place", "__and__", "__or__"):
        assert not hasattr(pol, gone)


# -- dispatch: the scheduler serves `eligible` in order ----------------------------
# A round's selection is the data-holding workers `eligible` lists, in
# that order; at partition granularity each one's partitions ascend.
def _dispatched(ctx, policy, granularity, busy=()):
    """``(worker, partitions)`` of every task one round ships, in order
    (8 partitions on 4 workers: worker ``w`` owns ``w`` and ``w + 4``)."""
    ac = ASYNCContext(ctx)
    for w in busy:
        ac.stat[w].note_assigned(ac.version)  # a task still in flight
    sent = []

    def make_fn(worker, splits):
        sent.append((worker, list(splits)))
        return lambda env: (None, 0)

    ac.scheduler.submit_round(
        ctx.parallelize(range(8), 8), make_fn, policy, granularity
    )
    return sent


def test_default_select_admits_available_workers_in_order(ctx):
    assert _dispatched(ctx, ASP(), "worker", busy=(1,)) == [
        (0, [0, 4]), (2, [2, 6]), (3, [3, 7]),
    ]


def test_default_select_partition_targets_follow_worker_filter(ctx):
    # worker 1 is busy -> its partitions drop; order stays worker-major,
    # ascending within a worker.
    assert _dispatched(ctx, ASP(), "partition", busy=(1,)) == [
        (0, [0]), (0, [4]), (2, [2]), (2, [6]), (3, [3]), (3, [7]),
    ]


def test_default_select_respects_custom_eligible_order(ctx):
    pol = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [2, 0])
    # eligible order (2 first) decides dispatch order.
    assert _dispatched(ctx, pol, "partition") == [
        (2, [2]), (2, [6]), (0, [0]), (0, [4]),
    ]


def test_dispatch_skips_workers_without_data(ctx):
    pol = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [9, 1])
    assert _dispatched(ctx, pol, "worker") == [(1, [1, 5])]


@pytest.mark.parametrize("listed", [[0, 1, 0], [9, 9]])
def test_dispatch_rejects_a_worker_listed_twice(ctx, listed):
    pol = LambdaPolicy(lambda s: True, eligible_fn=lambda s: listed)
    with pytest.raises(SchedulerError, match="twice"):
        _dispatched(ctx, pol, "worker")


def test_dispatch_to_nobody_on_an_idle_cluster_stalls_loudly(ctx):
    pol = LambdaPolicy(lambda s: True, eligible_fn=lambda s: [], name="none")
    with pytest.raises(SchedulerError, match="none admitted no"):
        _dispatched(ctx, pol, "worker")


def _completion_history(stat, worker, times):
    row = stat[worker]
    for ms in times:
        row.note_assigned(stat.current_version)
        row.note_done()
        row.note_completion(0, 0.0, ms)


# -- grammar / coercion -------------------------------------------------------------
def test_parse_policy_rejects_bad_terms():
    with pytest.raises(ApiError, match="do not compose"):
        resolve_policy("asp & ")
    with pytest.raises(ApiError, match="'nope'"):
        resolve_policy("asp & nope")
    with pytest.raises(ApiError, match="unknown policy"):
        resolve_policy("nope")


@pytest.mark.parametrize("term", ["ssp:nan", "ssp:inf", "ct:nan", "ct:inf"])
def test_parse_policy_rejects_non_finite_parameters(term):
    """NaN passed the old ``< 0`` / ``<= 1`` checks and ran silently."""
    with pytest.raises(ApiError, match="finite"):
        resolve_policy(term)


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
    assert policy_hooks(CompletionTimeBarrier) == ["ready", "eligible"]
    assert policy_hooks(lambda: ASP()) == []
    for name in POLICIES.names():
        assert set(policy_hooks(POLICIES.get(name))) <= {"ready", "eligible"}


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
