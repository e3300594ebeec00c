"""Property-based tests of core invariants under random event sequences.

Hypothesis drives random interleavings of assignment / completion / update
events through the coordinator and checks the STAT invariants the barrier
policies rely on. A broken invariant here would silently corrupt every
asynchronous experiment, so these get the adversarial treatment.
"""

import statistics

from hypothesis import given, settings, strategies as st

from repro.cluster.backend import TaskMetrics
from repro.core.coordinator import Coordinator
from repro.core.stat import StatTable
from repro.errors import WorkerLostError

# Event alphabet: ("assign", worker), ("complete", index-into-inflight),
# ("lose", index-into-inflight), ("update",).
events = st.lists(
    st.one_of(
        st.tuples(st.just("assign"), st.integers(0, 3)),
        st.tuples(st.just("complete"), st.integers(0, 50)),
        st.tuples(st.just("lose"), st.integers(0, 50)),
        st.tuples(st.just("update"), st.just(0)),
    ),
    max_size=80,
)


def _metrics(task_id, worker):
    return TaskMetrics(
        task_id=task_id, worker_id=worker,
        submitted_ms=float(task_id),
        delivered_ms=float(task_id) + 1.0 + task_id % 3,
        compute_ms=1.0,
    )


def _check_aggregates(stat):
    """Every STAT aggregate equals a brute-force pass over ``snapshot()``."""
    rows = stat.snapshot()
    alive = [r for r in rows if r["alive"]]
    assert stat.num_alive == len(alive)
    free = [r["worker_id"] for r in alive if r["available"]]
    assert stat.num_available == len(free)
    assert stat.available_workers() == free
    assert stat.max_staleness == max(
        (stat.current_version - r["computing_version"] for r in alive
         if r["computing_version"] is not None
         and (r["in_flight"] > 0 or not r["available"])),
        default=0,
    )
    done = [r["avg_completion_ms"] for r in alive if r["tasks_completed"]]
    assert stat.median_completion_ms() == (
        statistics.median(done) if done else 0.0
    )


@settings(max_examples=80, deadline=None)
@given(seq=events, depth=st.integers(1, 3))
def test_coordinator_invariants_hold(seq, depth):
    stat = StatTable(4)
    coord = Coordinator(stat, pipeline_depth=depth)
    inflight: list[tuple[int, int, int]] = []  # (task_id, worker, version)
    # Per worker: the version its current busy period began at (the
    # oldest version it has computed with since it was last idle).
    busy_since: list[int | None] = [None] * 4
    lost: set[int] = set()
    next_task = 0

    for kind, arg in seq:
        if kind == "assign" and arg not in lost:
            coord.on_assigned(arg, coord.version)
            inflight.append((next_task, arg, coord.version))
            if busy_since[arg] is None:
                busy_since[arg] = coord.version
            next_task += 1
        elif kind in ("complete", "lose") and inflight:
            task_id, worker, version = inflight.pop(arg % len(inflight))
            if kind == "lose":
                lost.add(worker)
            coord.on_result(
                task_id, worker, "v", _metrics(task_id, worker),
                WorkerLostError("lost") if kind == "lose" else None,
                version=version, batch_size=1,
            )
            if not any(w == worker for _, w, _ in inflight):
                busy_since[worker] = None
        elif kind == "update":
            coord.model_updated()

        # --- invariants ---
        for w in stat:
            assert w.in_flight >= 0
            assert w.alive == (w.worker_id not in lost)
            # Availability is exactly the pipeline rule for alive workers.
            assert w.available == (w.alive and w.in_flight < depth)
        # STAT in-flight bookkeeping matches ground truth.
        truth = [0, 0, 0, 0]
        for _, worker, _ in inflight:
            truth[worker] += 1
        assert [w.in_flight for w in stat] == truth
        # Staleness counts every alive worker holding a task, pipelined
        # or not, from the oldest version it has been computing with.
        assert stat.max_staleness == max(
            (stat.current_version - v for w, v in enumerate(busy_since)
             if v is not None and w not in lost),
            default=0,
        )
        _check_aggregates(stat)

    # Drain everything; alive workers must all become available again.
    while inflight:
        task_id, worker, version = inflight.pop()
        coord.on_result(
            task_id, worker, "v", _metrics(task_id, worker), None,
            version=version, batch_size=1,
        )
    assert stat.num_available == stat.num_alive == 4 - len(lost)
    _check_aggregates(stat)
    # Every completed result is collectable exactly once, FIFO.
    n = len(coord.results)
    seen = set()
    for _ in range(n):
        rec = coord.pop_result()
        assert rec.task_id not in seen
        seen.add(rec.task_id)
    assert coord.collected == n


@settings(max_examples=40, deadline=None)
@given(
    versions=st.lists(st.integers(0, 20), min_size=1, max_size=20),
    updates=st.integers(0, 30),
)
def test_staleness_always_consumption_time(versions, updates):
    """Staleness of a popped record reflects the version gap at *pop*."""
    stat = StatTable(1)
    coord = Coordinator(stat)
    coord.model_updated(max(versions))
    base = coord.version
    for i, v in enumerate(versions):
        coord.on_assigned(0, base)
        coord.on_result(i, 0, "x", _metrics(i, 0), None,
                        version=base, batch_size=1)
    coord.model_updated(updates)
    for _ in versions:
        rec = coord.pop_result()
        assert rec.staleness == updates
