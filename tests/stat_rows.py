"""STAT tables over bare worker envs, changed the way the engine does.

A row's liveness is its backend :class:`WorkerEnv`'s ``alive`` and its
availability follows from that and its in-flight count, so a test marks
a worker dead on the env, busy through the scheduler's ``note_assigned``
hook and done through the coordinator (:func:`complete`); neither is a
field of the row.
"""

from repro.cluster.backend import TaskMetrics, WorkerEnv
from repro.core.coordinator import Coordinator
from repro.core.stat import StatTable


def stat_table(P: int, pipeline_depth: int = 1) -> StatTable:
    """A ``P``-row table over fresh envs (every worker alive and idle)."""
    return StatTable([WorkerEnv(w) for w in range(P)], pipeline_depth)


def make_stat(P=4, busy=(), versions=None, current=0):
    """``stat_table(P)`` at model version ``current`` with one task in
    flight on each ``busy`` worker, computing at ``versions[w]``
    (default ``current``)."""
    stat = stat_table(P)
    stat.current_version = current
    for w in busy:
        stat[w].note_assigned((versions or {}).get(w, current))
    return stat


def complete(stat: StatTable, worker: int, delivered_ms: float = 0.0) -> None:
    """What the coordinator does to ``worker``'s row when one of its
    tasks, dispatched at the current version and at time 0, delivers at
    ``delivered_ms``."""
    Coordinator(stat).on_result(
        0, worker, None,
        TaskMetrics(task_id=0, worker_id=worker, delivered_ms=delivered_ms),
        None, version=stat.current_version, batch_size=0,
    )


def kill(stat: StatTable, worker: int) -> None:
    """What ``SimBackend.kill_worker`` does to liveness."""
    stat[worker].env.alive = False
