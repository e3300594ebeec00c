"""STAT tables over bare worker envs, changed the way the engine does.

A row's liveness is its backend :class:`WorkerEnv`'s ``alive`` and its
availability follows from that and its in-flight count, so a test marks
a worker dead on the env and busy through the coordinator's
``note_assigned`` hook; neither is a field of the row.
"""

from repro.cluster.backend import WorkerEnv
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


def kill(stat: StatTable, worker: int) -> None:
    """What ``SimBackend.kill_worker`` does to liveness."""
    stat[worker].env.alive = False
