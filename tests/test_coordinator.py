"""ASYNCcoordinator: result annotation, STAT maintenance, error routing."""

import pytest

from repro.cluster.backend import TaskMetrics
from repro.core.coordinator import Coordinator
from repro.errors import TaskError, WorkerLostError
from stat_rows import kill, stat_table


def metrics(task_id=0, worker=0, submitted=0.0, delivered=10.0):
    return TaskMetrics(
        task_id=task_id, worker_id=worker,
        submitted_ms=submitted, delivered_ms=delivered, compute_ms=5.0,
    )


@pytest.fixture
def coord():
    return Coordinator(stat_table(3))


def test_assignment_marks_unavailable(coord):
    coord.on_assigned(1, version=0)
    assert not coord.stat[1].available
    assert coord.stat[1].in_flight == 1
    assert coord.stat[1].computing_version == 0


def test_result_annotated_with_staleness(coord):
    coord.on_assigned(0, version=0)
    coord.model_updated(3)  # three updates landed meanwhile
    coord.on_result(0, 0, "payload", metrics(), None, version=0, batch_size=7)
    rec = coord.pop_result()
    assert rec.value == "payload"
    assert rec.staleness == 3
    assert rec.batch_size == 7
    assert rec.worker_id == 0


def test_staleness_restamped_at_collection(coord):
    coord.on_assigned(0, version=0)
    coord.on_result(0, 0, "x", metrics(), None, version=0, batch_size=1)
    coord.model_updated(5)  # updates applied while result sat in queue
    rec = coord.pop_result()
    assert rec.staleness == 5


def test_completion_updates_stat(coord):
    coord.on_assigned(2, version=0)
    coord.on_result(
        0, 2, "x", metrics(worker=2, submitted=1.0, delivered=11.0), None,
        version=0, batch_size=1,
    )
    w = coord.stat[2]
    assert w.available
    assert w.tasks_completed == 1
    assert w.avg_completion_ms == pytest.approx(10.0)


def test_avg_completion_is_running_mean(coord):
    for i, dur in enumerate([10.0, 20.0]):
        coord.on_assigned(0, version=0)
        coord.on_result(
            i, 0, "x", metrics(task_id=i, delivered=dur), None,
            version=0, batch_size=1,
        )
    assert coord.stat[0].avg_completion_ms == pytest.approx(15.0)


def test_fifo_collection_order(coord):
    for i in range(3):
        coord.on_assigned(0, version=0)
        coord.on_result(i, 0, f"r{i}", metrics(task_id=i), None,
                        version=0, batch_size=1)
    assert [coord.pop_result().value for _ in range(3)] == ["r0", "r1", "r2"]
    assert coord.collected == 3


def test_worker_lost_marks_dead_not_raises(coord):
    """The backend marks a killed worker dead on its env; its loss
    notice is only counted — not raised, not queued, and it changes no
    liveness (STAT already reads the env)."""
    coord.on_assigned(1, version=0)
    kill(coord.stat, 1)
    assert not coord.stat[1].alive and not coord.stat[1].available
    coord.on_result(0, 1, None, metrics(worker=1), WorkerLostError(1),
                    version=0, batch_size=0)
    assert coord.lost_tasks == 1
    assert not coord.results and not coord.errors
    coord.raise_pending_error()  # nothing to raise
    assert coord.stat[1].in_flight == 0
    coord.stat[1].env.alive = True  # a revive: STAT follows the env
    assert coord.stat[1].alive and coord.stat[1].available


def test_task_error_raised_on_next_pop(coord):
    coord.on_assigned(0, version=0)
    coord.on_result(0, 0, None, metrics(), ValueError("boom"),
                    version=0, batch_size=0)
    assert len(coord.errors) == 1
    with pytest.raises(TaskError) as ei:
        coord.pop_result()
    assert isinstance(ei.value.cause, ValueError)
    assert not coord.errors


def test_in_flight_gating_of_availability(coord):
    coord.on_assigned(0, version=0)
    coord.on_assigned(0, version=1)
    coord.on_result(0, 0, "a", metrics(), None, version=0, batch_size=1)
    # One task still out -> worker stays busy.
    assert not coord.stat[0].available
    coord.on_result(1, 0, "b", metrics(task_id=1), None, version=1,
                    batch_size=1)
    assert coord.stat[0].available


def test_model_updated_validation(coord):
    with pytest.raises(ValueError):
        coord.model_updated(-1)
    coord.model_updated(0)
    assert coord.version == 0
