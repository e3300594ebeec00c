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
    AndPolicy,
    ClientSampling,
    CompletionTimeBarrier,
    LambdaPolicy,
    MigrateSlow,
    MinAvailableFraction,
    OrPolicy,
    PartitionCompletionFilter,
    PartitionSSP,
    SchedulingPolicy,
    StalenessWeighting,
    Target,
    as_policy,
    parse_policy,
    resolve_policy,
)
from repro.core.records import PartitionStatus, TaskResultRecord, WorkerStatus
from repro.core.scheduler import AsyncScheduler
from repro.core.stat import StatTable

__all__ = [
    "SchedulingPolicy",
    "Target",
    "AndPolicy",
    "OrPolicy",
    "LambdaPolicy",
    "PartitionSSP",
    "PartitionCompletionFilter",
    "ClientSampling",
    "StalenessWeighting",
    "MigrateSlow",
    "as_policy",
    "parse_policy",
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
    "PartitionStatus",
    "ASP",
    "BSP",
    "SSP",
    "MinAvailableFraction",
    "CompletionTimeBarrier",
]
