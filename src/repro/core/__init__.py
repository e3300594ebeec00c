"""The ASYNC framework: the paper's contribution.

Three components extend the Spark-like engine with asynchronous execution,
exactly mirroring Section 4 of the paper:

- :class:`~repro.core.coordinator.Coordinator` (ASYNCcoordinator) —
  annotates task results with worker attributes and maintains the ``STAT``
  table.
- :class:`~repro.core.broadcaster.AsyncBroadcaster` (ASYNCbroadcaster) —
  versioned history broadcast; workers re-reference old model parameters
  by id instead of re-receiving them.
- :class:`~repro.core.scheduler.AsyncScheduler` (ASYNCscheduler) —
  assigns tasks to available workers under a barrier-control policy.

:class:`~repro.core.context.ASYNCContext` ("AC") is the entry point tying
them together, with the API of Table 1: ``async_reduce``,
``async_aggregate``, ``async_barrier``, ``collect``, ``collect_all``,
``has_next``, ``async_broadcast`` and ``STAT``.
"""

from repro.core.broadcaster import AsyncBroadcaster, HistoryBroadcast
from repro.core.context import ASYNCContext
from repro.core.coordinator import Coordinator
from repro.core.history import (
    HistoryChannel,
    HistoryStore,
    RetentionPolicy,
)
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    LambdaPolicy,
    MinAvailableFraction,
    SchedulingPolicy,
    as_policy,
    resolve_policy,
)
from repro.core.records import TaskResultRecord, WorkerStatus
from repro.core.scheduler import AsyncScheduler
from repro.core.stat import StatTable

__all__ = [
    "SchedulingPolicy",
    "LambdaPolicy",
    "as_policy",
    "resolve_policy",
    "ASYNCContext",
    "AsyncBroadcaster",
    "HistoryBroadcast",
    "HistoryChannel",
    "HistoryStore",
    "RetentionPolicy",
    "AsyncScheduler",
    "Coordinator",
    "StatTable",
    "TaskResultRecord",
    "WorkerStatus",
    "ASP",
    "BSP",
    "SSP",
    "MinAvailableFraction",
    "CompletionTimeBarrier",
]
