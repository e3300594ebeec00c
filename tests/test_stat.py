"""STAT table invariants and aggregates."""

import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster.backend import WorkerEnv
from repro.core.stat import StatTable
from stat_rows import complete, kill, stat_table


def test_initial_state_all_available():
    stat = stat_table(4)
    assert stat.num_available == 4
    assert stat.num_alive == 4
    assert stat.max_staleness == 0
    assert stat.available_workers() == [0, 1, 2, 3]


def test_requires_positive_workers():
    with pytest.raises(ValueError):
        StatTable([])
    with pytest.raises(ValueError):
        StatTable([WorkerEnv(0)], pipeline_depth=0)


def test_busy_worker_not_available():
    stat = stat_table(3)
    stat[1].note_assigned(0)
    assert not stat[1].available
    assert stat.num_available == 2
    assert stat.available_workers() == [0, 2]


def test_dead_worker_excluded_everywhere():
    stat = stat_table(3)
    kill(stat, 2)
    assert not stat[2].alive and not stat[2].available
    assert stat.num_alive == 2
    assert stat.num_available == 2
    assert 2 not in stat.available_workers()


def test_max_staleness_counts_inflight_only():
    stat = stat_table(3)
    stat.current_version = 10
    stat[0].note_assigned(4)   # 6 stale
    stat[1].note_assigned(9)   # 1 stale
    assert stat.max_staleness == 6
    complete(stat, 0)  # idle rows do not count
    assert stat.max_staleness == 1


def test_idle_worker_staleness_zero_even_with_history():
    stat = stat_table(2)
    stat.current_version = 5
    stat[0].last_staleness = 3
    stat[0].computing_version = 1  # stale version left on an idle row
    assert stat.max_staleness == 0


def test_completion_time_stats():
    stat = stat_table(2)
    stat[0].note_completion(0, 5.0, 15.0)
    stat[1].note_completion(0, 5.0, 35.0)
    assert stat[0].avg_completion_ms == 10.0
    assert stat.median_completion_ms() == 20.0


def test_completion_stats_ignore_fresh_workers():
    stat = stat_table(3)
    stat[0].note_completion(0, 0.0, 10.0)
    assert stat.median_completion_ms() == 10.0


def test_snapshot_is_plain_data():
    stat = stat_table(2)
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
    stat = stat_table(len(versions))
    stat.current_version = current
    for w, v in enumerate(versions):
        if v is not None and v <= current:
            stat[w].note_assigned(v)
    expected = max(
        (current - v for v in versions if v is not None and v <= current),
        default=0,
    )
    assert stat.max_staleness == expected


# -- STAT aggregates match the scalar references -------------------------------------
def test_worker_aggregates_match_statistics_module():
    rng = np.random.default_rng(5)
    stat = stat_table(6)
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
    assert stat.median_completion_ms() == statistics.median(means)


def test_max_staleness_matches_row_loop():
    stat = stat_table(5)
    stat.current_version = 100
    busy = {1: 40, 3: 90, 4: 10}
    for w, version in busy.items():
        stat[w].note_assigned(version)
    expected = 0
    for row in stat:
        if row.alive and not row.available and row.computing_version is not None:
            expected = max(expected, stat.current_version - row.computing_version)
    assert stat.max_staleness == expected == 90
    assert stat.available_workers() == [0, 2]
