"""Distributed sweep fabric: a coordinator/worker service for grid cells.

How a sweep runs on more than one process: a coordinator serves the
sweep's cells over a socket; workers pull leases, execute through the
per-cell path the in-process loop uses, and stream summaries back into
the same :class:`~repro.api.parallel.SweepCheckpoint` JSONL.
``run_grid(jobs=N)`` forks ``N`` workers from the driver for the sweep;
``run_grid(fabric=...)`` adds lease options, or an endpoint
``sweep-worker`` processes on other hosts can join. Leases carry
deadlines (dead or straggling workers are stolen from) and are sized by
the worker's share of its dataset group, results are deduped on
canonical spec keys (at-most-once accounting), and workers may join or
leave mid-sweep (elastic membership).

Entry points::

    python -m repro sweep grid.json --jobs 4          # four forked workers
    python -m repro sweep grid.json --serve 2859      # coordinator
    python -m repro sweep-worker otherhost:2859       # on each worker
    python -m repro sweep-status grid.ckpt.jsonl      # live progress

or in code: ``run_grid(grid, jobs=4)``.
"""

from repro.fabric.chaos import ChaosConfig, ChaosLink
from repro.fabric.coordinator import (
    FabricOptions,
    SweepCoordinator,
    parse_fabric,
    run_fabric_cells,
)
from repro.fabric.leases import FabricCell, Lease, LeaseTable, WorkerInfo
from repro.fabric.protocol import (
    clamp_retry_s,
    format_endpoint,
    parse_endpoint,
    recv_msg,
    send_msg,
)
from repro.fabric.status import format_status, read_status, status_path_for
from repro.fabric.worker import SweepWorker, spawn_local_workers

__all__ = [
    "SweepCoordinator",
    "SweepWorker",
    "LeaseTable",
    "FabricCell",
    "Lease",
    "WorkerInfo",
    "FabricOptions",
    "parse_fabric",
    "run_fabric_cells",
    "spawn_local_workers",
    "ChaosConfig",
    "ChaosLink",
    "clamp_retry_s",
    "send_msg",
    "recv_msg",
    "parse_endpoint",
    "format_endpoint",
    "read_status",
    "format_status",
    "status_path_for",
]
