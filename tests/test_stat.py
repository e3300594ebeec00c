"""STAT table invariants and aggregates."""

import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.stat import StatTable


def test_initial_state_all_available():
    stat = StatTable(4)
    assert stat.num_available == 4
    assert stat.num_alive == 4
    assert stat.max_staleness == 0
    assert stat.available_workers() == [0, 1, 2, 3]
    assert stat.busy_workers() == []


def test_requires_positive_workers():
    with pytest.raises(ValueError):
        StatTable(0)


def test_busy_worker_not_available():
    stat = StatTable(3)
    stat[1].available = False
    stat[1].computing_version = 0
    assert stat.num_available == 2
    assert stat.busy_workers() == [1]


def test_dead_worker_excluded_everywhere():
    stat = StatTable(3)
    stat[2].alive = False
    stat[2].available = False
    assert stat.num_alive == 2
    assert stat.num_available == 2
    assert 2 not in stat.available_workers()


def test_max_staleness_counts_inflight_only():
    stat = StatTable(3)
    stat.current_version = 10
    stat[0].available = False
    stat[0].computing_version = 4   # 6 stale
    stat[1].available = False
    stat[1].computing_version = 9   # 1 stale
    assert stat.max_staleness == 6
    assert stat.staleness_of(0) == 6
    assert stat.staleness_of(1) == 1
    assert stat.staleness_of(2) == 0  # idle


def test_idle_worker_staleness_zero_even_with_history():
    stat = StatTable(2)
    stat.current_version = 5
    stat[0].last_staleness = 3
    assert stat.staleness_of(0) == 0
    assert stat.max_staleness == 0


def test_completion_time_stats():
    stat = StatTable(2)
    stat[0].completion.add(10.0)
    stat[0].tasks_completed = 1
    stat[1].completion.add(30.0)
    stat[1].tasks_completed = 1
    assert stat.mean_completion_ms() == 20.0
    assert stat.median_completion_ms() == 20.0


def test_completion_stats_ignore_fresh_workers():
    stat = StatTable(3)
    stat[0].completion.add(10.0)
    stat[0].tasks_completed = 1
    assert stat.mean_completion_ms() == 10.0


def test_snapshot_is_plain_data():
    stat = StatTable(2)
    snap = stat.snapshot()
    assert len(snap) == 2
    assert snap[0]["worker_id"] == 0
    assert snap[0]["available"] is True
    assert "avg_completion_ms" in snap[0]


@given(
    versions=st.lists(
        st.one_of(st.none(), st.integers(0, 100)), min_size=1, max_size=16
    ),
    current=st.integers(0, 120),
)
def test_property_max_staleness_bound(versions, current):
    stat = StatTable(len(versions))
    stat.current_version = current
    for w, v in enumerate(versions):
        if v is not None and v <= current:
            stat[w].available = False
            stat[w].computing_version = v
    expected = max(
        (current - v for v in versions if v is not None and v <= current),
        default=0,
    )
    assert stat.max_staleness == expected


# -- columnar STAT reductions match the scalar references ----------------------------
def test_worker_aggregates_match_statistics_module():
    rng = np.random.default_rng(5)
    stat = StatTable(6)
    means = []
    for w in range(6):
        values = rng.uniform(1.0, 50.0, size=int(rng.integers(1, 6)))
        for v in values:
            stat[w].note_completion(0, 0.0, float(v))
        mean = 0.0  # replicate the online-mean update sequence exactly
        for n, v in enumerate(map(float, values), start=1):
            mean += (v - mean) / n
        means.append(mean)
        assert stat[w].avg_completion_ms == mean
    assert stat.mean_completion_ms() == statistics.fmean(means)
    assert stat.median_completion_ms() == statistics.median(means)


def test_partition_median_matches_statistics_module():
    rng = np.random.default_rng(9)
    stat = StatTable(4)
    avgs = []
    for p in range(7):
        row = stat.partition_row(p, owner=p % 4)
        if p == 3:
            continue  # one partition with no history must be excluded
        values = rng.uniform(1.0, 100.0, size=int(rng.integers(1, 4)))
        for v in values:
            row.note_completion(0, 0.0, float(v))
        avgs.append(row.avg_completion_ms)
    assert stat.median_partition_completion_ms() == statistics.median(avgs)


def test_max_staleness_matches_row_loop():
    stat = StatTable(5)
    stat.current_version = 100
    busy = {1: 40, 3: 90, 4: 10}
    for w, version in busy.items():
        stat[w].available = False
        stat[w].note_assigned(version)
    expected = 0
    for row in stat:
        if row.alive and not row.available and row.computing_version is not None:
            expected = max(expected, stat.current_version - row.computing_version)
    assert stat.max_staleness == expected == 90
    assert stat.available_workers() == [0, 2]
    assert stat.busy_workers() == [1, 3, 4]
