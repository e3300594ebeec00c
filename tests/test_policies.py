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
    ClientSampling,
    CompletionTimeBarrier,
    LambdaPolicy,
    MigrateSlow,
    OrPolicy,
    PartitionCompletionFilter,
    PartitionSSP,
    SchedulingPolicy,
    StalenessWeighting,
    Target,
    as_policy,
    parse_policy,
    policy_hooks,
    resolve_policy,
)
from repro.core.records import TaskResultRecord
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


def make_record(staleness=0, partition=None, worker=0):
    return TaskResultRecord(
        value=None, worker_id=worker, task_id=0, version=0,
        staleness=staleness, batch_size=1, submitted_ms=0.0,
        delivered_ms=1.0, compute_ms=1.0, partition=partition,
    )


def note_partition_history(stat, partition, owner, completions):
    row = stat.partition_row(partition, owner=owner)
    for ms in completions:
        row.note_assigned(stat.current_version)
        row.note_done()
        row.note_completion(0, 0.0, ms)
    return row


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
    stat = make_stat()
    assert pol.ready(stat)
    assert pol.weight(make_record(staleness=9), stat) == 1.0
    assert pol.place(stat) == {}


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
    """`filter & sample` must sample *within* the filter's selection —
    two independent draws intersected can come up empty and stall an
    idle cluster (regression: this crashed mid-run as a SchedulerError)."""
    stat = make_stat()
    cands = partition_targets([(p, p % 4) for p in range(8)])
    keep_even = LambdaPolicy(
        lambda s: True,
        select_fn=lambda s, cs: [t for t in cs if t.id % 2 == 0],
    )
    composed = keep_even & ClientSampling(0.25, seed=0)
    for _ in range(50):
        picked = composed.select(stat, cands)
        assert picked, "chained selection must never be empty here"
        assert all(t.id % 2 == 0 for t in picked)


def test_and_weights_multiply_or_weights_max():
    stat = make_stat()
    half = LambdaPolicy(lambda s: True, weight_fn=lambda r, s: 0.5)
    fifth = LambdaPolicy(lambda s: True, weight_fn=lambda r, s: 0.2)
    rec = make_record()
    assert (half & fifth).weight(rec, stat) == pytest.approx(0.1)
    assert (half | fifth).weight(rec, stat) == pytest.approx(0.5)


def test_and_or_place_merge_right_operand_wins():
    stat = make_stat()
    a = LambdaPolicy(lambda s: True, place_fn=lambda s: {0: 1, 2: 3})
    b = LambdaPolicy(lambda s: True, place_fn=lambda s: {0: 2})
    assert (a & b).place(stat) == {0: 2, 2: 3}
    assert (a | b).place(stat) == {0: 2, 2: 3}


def test_composition_ready_semantics_unchanged():
    stat = make_stat(busy=(0, 1, 2))
    assert not (ASP() & BSP()).ready(stat)
    assert (ASP() | BSP()).ready(stat)


# -- PartitionSSP -------------------------------------------------------------------
def test_partition_ssp_ready_bounds_partition_staleness():
    stat = make_stat(current=5)
    row = stat.partition_row(3, owner=0)
    row.note_assigned(version=1)  # in flight, 4 updates behind
    assert stat.max_partition_staleness == 4
    assert not PartitionSSP(3).ready(stat)
    assert PartitionSSP(5).ready(stat)
    row.note_done()
    assert PartitionSSP(3).ready(stat)  # idle partitions don't count


def test_partition_ssp_requires_free_worker_and_validates():
    stat = make_stat(busy=(0, 1, 2, 3))
    assert not PartitionSSP(100).ready(stat)
    with pytest.raises(ValueError):
        PartitionSSP(0)


# -- PartitionCompletionFilter ------------------------------------------------------
def test_partition_completion_filter_drops_slow_partitions():
    stat = make_stat()
    note_partition_history(stat, 0, 0, [10.0])
    note_partition_history(stat, 1, 1, [12.0])
    note_partition_history(stat, 2, 2, [100.0])  # way past 2x median
    cands = partition_targets([(0, 0), (1, 1), (2, 2), (3, 3)])
    kept = PartitionCompletionFilter(ratio=2.0).select(stat, cands)
    # partition 3 has no history -> always admitted.
    assert kept == partition_targets([(0, 0), (1, 1), (3, 3)])


def test_partition_completion_filter_ignores_empty_rows_in_threshold():
    stat = make_stat()
    # Rows exist (created by dispatch) but have no completions: they must
    # not drag the median to zero and so disable/over-trigger the filter.
    stat.partition_row(0, owner=0)
    stat.partition_row(1, owner=1)
    note_partition_history(stat, 2, 2, [50.0])
    assert stat.median_partition_completion_ms() == 50.0
    cands = partition_targets([(0, 0), (1, 1), (2, 2)])
    assert PartitionCompletionFilter(2.0).select(stat, cands) == cands


def test_partition_completion_filter_requires_ratio_at_least_one():
    # ratio < 1 could withhold every historied partition (all exceed
    # cutoff < median) and stall an idle cluster mid-run.
    with pytest.raises(ValueError):
        PartitionCompletionFilter(0.9)
    PartitionCompletionFilter(1.0)  # boundary is safe: median passes


def test_partition_completion_filter_passes_worker_targets_through():
    stat = make_stat()
    note_partition_history(stat, 0, 0, [10.0])
    note_partition_history(stat, 1, 1, [500.0])
    cands = worker_targets([0, 1, 2])
    assert PartitionCompletionFilter(1.5).select(stat, cands) == cands


# -- ClientSampling -----------------------------------------------------------------
def test_sampling_takes_fraction_with_minimum_one():
    stat = make_stat()
    cands = partition_targets([(p, p % 4) for p in range(8)])
    pol = ClientSampling(0.5, seed=1)
    picked = pol.select(stat, cands)
    assert len(picked) == 4
    assert all(t in cands for t in picked)
    # candidate (dispatch) order is preserved.
    assert [cands.index(t) for t in picked] == sorted(
        cands.index(t) for t in picked
    )
    tiny = ClientSampling(0.01, seed=1).select(stat, cands)
    assert len(tiny) == 1


def test_sampling_is_deterministic_per_seed_stream():
    stat = make_stat()
    cands = partition_targets([(p, p % 4) for p in range(8)])
    a = ClientSampling(0.5, seed=7)
    b = ClientSampling(0.5, seed=7)
    seq_a = [a.select(stat, cands) for _ in range(4)]
    seq_b = [b.select(stat, cands) for _ in range(4)]
    assert seq_a == seq_b
    assert any(
        s != seq_a[0] for s in seq_a[1:]
    ), "consecutive rounds should vary"


def test_sampling_balance_mode_prefers_unsampled_targets():
    stat = make_stat()
    # partitions 0..2 heavily sampled already, 3 never.
    for p, n in [(0, 30), (1, 30), (2, 30)]:
        note_partition_history(stat, p, p % 4, [1.0] * n)
    stat.partition_row(3, owner=3)
    cands = partition_targets([(0, 0), (1, 1), (2, 2), (3, 3)])
    pol = ClientSampling(0.25, seed=0, mode="balance")
    hits = sum(
        1 for _ in range(50) if partition_targets([(3, 3)]) == pol.select(stat, cands)
    )
    assert hits > 30  # ~1/(1+0) vs 1/31 weights -> dominates


def test_sampling_validates_inputs():
    with pytest.raises(ValueError):
        ClientSampling(0.0)
    with pytest.raises(ValueError):
        ClientSampling(1.5)
    with pytest.raises(ValueError):
        ClientSampling(0.5, mode="nope")


# -- StalenessWeighting -------------------------------------------------------------
def test_fedasync_weight_strategies():
    stat = make_stat()
    poly = StalenessWeighting("poly", a=0.5)
    assert poly.weight(make_record(staleness=0), stat) == 1.0
    assert poly.weight(make_record(staleness=3), stat) == pytest.approx(0.5)
    hinge = StalenessWeighting("hinge", a=1.0, b=2.0)
    assert hinge.weight(make_record(staleness=2), stat) == 1.0
    assert hinge.weight(make_record(staleness=4), stat) == pytest.approx(1 / 3)
    const = StalenessWeighting("const", mixing=0.8)
    assert const.weight(make_record(staleness=50), stat) == pytest.approx(0.8)


def test_fedasync_validates_inputs():
    with pytest.raises(ValueError):
        StalenessWeighting("nope")
    with pytest.raises(ValueError):
        StalenessWeighting("poly", mixing=0.0)


# -- MigrateSlow --------------------------------------------------------------------
def _completion_history(stat, worker, times):
    row = stat[worker]
    for ms in times:
        row.note_assigned(stat.current_version)
        row.note_done()
        row.note_completion(0, 0.0, ms)


def test_migrate_moves_hottest_partition_to_fastest_worker():
    stat = make_stat()
    _completion_history(stat, 0, [10.0] * 3)
    _completion_history(stat, 1, [12.0] * 3)
    _completion_history(stat, 2, [11.0] * 3)
    _completion_history(stat, 3, [60.0] * 3)  # chronically slow
    note_partition_history(stat, 3, 3, [55.0])
    note_partition_history(stat, 7, 3, [65.0])  # hotter
    pol = MigrateSlow(threshold=2.0)
    assert pol.place(stat) == {7: 0}  # hottest partition -> fastest worker


def test_migrate_requires_history_and_partition_rows():
    stat = make_stat()
    pol = MigrateSlow(threshold=2.0, min_history=3)
    assert pol.place(stat) == {}  # nobody has history
    _completion_history(stat, 0, [10.0] * 3)
    _completion_history(stat, 1, [11.0] * 3)
    _completion_history(stat, 3, [60.0] * 3)
    assert pol.place(stat) == {}  # no partition rows yet
    note_partition_history(stat, 3, 3, [60.0])
    assert pol.place(stat) == {3: 0}


def test_migrate_cooldown_prevents_thrash():
    stat = make_stat()
    _completion_history(stat, 0, [10.0] * 3)
    _completion_history(stat, 1, [11.0] * 3)
    _completion_history(stat, 3, [80.0] * 3)
    note_partition_history(stat, 3, 3, [75.0])
    pol = MigrateSlow(threshold=2.0, cooldown=5)
    assert pol.place(stat) == {3: 0}
    # The partition stays put for `cooldown` rounds even if its row still
    # points at the slow worker (moves take a few rounds to show).
    for _ in range(5):
        assert pol.place(stat) == {}
    assert pol.place(stat) == {3: 0}


def test_migrate_percentile_threshold_and_validation():
    stat = make_stat()
    _completion_history(stat, 0, [10.0] * 3)
    _completion_history(stat, 1, [11.0] * 3)
    _completion_history(stat, 2, [12.0] * 3)
    _completion_history(stat, 3, [100.0] * 3)
    note_partition_history(stat, 3, 3, [90.0])
    assert MigrateSlow(threshold="p75").place(stat) == {3: 0}
    with pytest.raises(ValueError):
        MigrateSlow(threshold="huh")
    with pytest.raises(ValueError):
        MigrateSlow(threshold=0.5)
    with pytest.raises(ValueError):
        MigrateSlow(threshold="p200")


# -- grammar / coercion -------------------------------------------------------------
def test_parse_policy_precedence_and_tokens():
    pol = parse_policy("ssp:4 & sample:0.5 | bsp")
    # '&' binds tighter: (ssp & sample) | bsp.
    assert isinstance(pol, OrPolicy)
    assert isinstance(pol.a, AndPolicy)
    assert isinstance(pol.a.a, SSP) and pol.a.a.threshold == 4
    assert isinstance(pol.a.b, ClientSampling)
    assert isinstance(pol.b, BSP)


def test_parse_policy_rejects_bad_terms():
    with pytest.raises(ApiError, match="empty term"):
        parse_policy("asp & ")
    with pytest.raises(ApiError, match="unknown policy"):
        parse_policy("asp & nope")


@pytest.mark.parametrize("term", [
    "migrate:nan", "migrate:inf", "ssp:nan", "ssp:inf", "ct:nan", "ct:inf",
    "ssp_partition:nan", "ssp_partition:inf", "ct_partition:nan",
    "ct_partition:inf",
])
def test_parse_policy_rejects_non_finite_parameters(term):
    """NaN passed the old ``< 0`` / ``<= 1`` checks and ran silently."""
    with pytest.raises(ApiError, match="finite"):
        parse_policy(term)


@pytest.mark.parametrize("term", ["ssp:1.5", "ssp_partition:1.5"])
def test_parse_policy_rejects_fractional_staleness_bounds(term):
    """A staleness bound counts updates; ``1.5`` used to build a policy
    that silently behaved as ``2``."""
    with pytest.raises(ApiError, match="whole number"):
        resolve_policy(term)


def test_whole_valued_staleness_bounds_are_accepted():
    assert resolve_policy("ssp:3").threshold == 3
    assert resolve_policy({"name": "ssp_partition", "threshold": 2.0}).threshold == 2


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
    composed = resolve_policy("asp & fedasync:poly")
    assert isinstance(composed, AndPolicy)
    made = resolve_policy({"name": "migrate", "threshold": "p90"})
    assert isinstance(made, MigrateSlow) and made.percentile == 90.0
    wrapped = resolve_policy(lambda stat: True)
    assert isinstance(wrapped, LambdaPolicy)
    # defaults inject context params the factory accepts.
    sampled = resolve_policy("sample:0.5", defaults={"seed": 9, "num_workers": 4})
    assert isinstance(sampled, ClientSampling) and sampled.seed == 9


def test_as_policy_coercions():
    assert isinstance(as_policy(None), ASP)
    bsp = BSP()
    assert as_policy(bsp) is bsp
    with pytest.raises(TypeError):
        as_policy(42)


def test_policy_hooks_introspection():
    assert policy_hooks(ASP) == ["ready"]
    assert policy_hooks(CompletionTimeBarrier) == ["ready", "select"]
    assert policy_hooks(ClientSampling) == ["select"]
    assert policy_hooks(StalenessWeighting) == ["weight"]
    assert policy_hooks(MigrateSlow) == ["place"]
    assert policy_hooks(lambda: ASP()) == []


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
