"""Property-based tests of core invariants under random event sequences.

Hypothesis drives random interleavings of assignment / completion /
kill / revive / update events through the coordinator and the worker
envs, and checks the STAT invariants the barrier policies rely on. A
broken invariant here would silently corrupt every asynchronous
experiment, so these get the adversarial treatment.
"""

import statistics

from hypothesis import given, settings, strategies as st

from repro.cluster.backend import TaskMetrics
from repro.core.coordinator import Coordinator
from repro.errors import WorkerLostError
from stat_rows import stat_table

# Event alphabet: ("assign", worker), ("complete", index-into-inflight),
# ("kill", worker), ("revive", worker), ("update",). A kill dooms the
# worker's in-flight tasks: each one later completes as a loss notice.
events = st.lists(
    st.one_of(
        st.tuples(st.just("assign"), st.integers(0, 3)),
        st.tuples(st.just("complete"), st.integers(0, 50)),
        st.tuples(st.just("kill"), st.integers(0, 3)),
        st.tuples(st.just("revive"), st.integers(0, 3)),
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
         if r["computing_version"] is not None and r["in_flight"] > 0),
        default=0,
    )
    done = [r["avg_completion_ms"] for r in alive if r["tasks_completed"]]
    assert stat.median_completion_ms() == (
        statistics.median(done) if done else 0.0
    )


@settings(max_examples=80, deadline=None)
@given(seq=events, depth=st.integers(1, 3))
def test_coordinator_invariants_hold(seq, depth):
    stat = stat_table(4, pipeline_depth=depth)
    coord = Coordinator(stat)
    # (task_id, worker, version, doomed by a kill)
    inflight: list[tuple[int, int, int, bool]] = []
    # Per worker: the version its current busy period began at (the
    # oldest version it has computed with since it was last idle).
    busy_since: list[int | None] = [None] * 4
    dead: set[int] = set()
    lost = 0
    next_task = 0

    for kind, arg in seq:
        if kind == "assign" and arg not in dead:
            coord.on_assigned(arg, coord.version)
            inflight.append((next_task, arg, coord.version, False))
            if busy_since[arg] is None:
                busy_since[arg] = coord.version
            next_task += 1
        elif kind == "complete" and inflight:
            task_id, worker, version, doomed = inflight.pop(
                arg % len(inflight)
            )
            lost += doomed
            coord.on_result(
                task_id, worker, "v", _metrics(task_id, worker),
                WorkerLostError(worker) if doomed else None,
                version=version, batch_size=1,
            )
            if not any(w == worker for _, w, _, _ in inflight):
                busy_since[worker] = None
        elif kind == "kill":
            stat[arg].env.alive = False
            dead.add(arg)
            inflight = [
                (t, w, v, doomed or w == arg) for t, w, v, doomed in inflight
            ]
        elif kind == "revive":
            stat[arg].env.alive = True
            dead.discard(arg)
        elif kind == "update":
            coord.model_updated()

        # --- invariants ---
        # A loss is counted, never raised or queued as a result.
        assert coord.lost_tasks == lost and not coord.errors
        for w in stat:
            assert w.in_flight >= 0
            # STAT follows the envs at once, whatever is in flight.
            assert w.alive == (w.worker_id not in dead)
            # Availability is exactly the pipeline rule for alive workers.
            assert w.available == (w.alive and w.in_flight < depth)
        # STAT in-flight bookkeeping matches ground truth.
        truth = [0, 0, 0, 0]
        for _, worker, _, _ in inflight:
            truth[worker] += 1
        assert [w.in_flight for w in stat] == truth
        # Staleness counts every alive worker holding a task, pipelined
        # or not, from the oldest version it has been computing with.
        assert stat.max_staleness == max(
            (stat.current_version - v for w, v in enumerate(busy_since)
             if v is not None and w not in dead),
            default=0,
        )
        _check_aggregates(stat)

    # Drain everything; alive workers must all become available again.
    while inflight:
        task_id, worker, version, doomed = inflight.pop()
        coord.on_result(
            task_id, worker, "v", _metrics(task_id, worker),
            WorkerLostError(worker) if doomed else None,
            version=version, batch_size=1,
        )
    assert stat.num_available == stat.num_alive == 4 - len(dead)
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
    stat = stat_table(1)
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
