"""The fabric's bookkeeping core: cells, leases, and worker membership.

:class:`LeaseTable` is a plain in-memory state machine — no sockets, no
threads, no clocks of its own (callers inject ``now``) — so every
scheduling decision the coordinator makes is unit-testable and
deterministic. It owns the three invariants the fabric promises:

- **At-most-once accounting.** A cell is identified by its canonical
  spec key (:func:`repro.api.parallel.run_key`); the *first* result for
  a cell is recorded, every later one — a late duplicate after the cell
  was stolen and re-run — is acknowledged but dropped.
- **Work stealing.** A lease carries a deadline. When it passes (worker
  dead, stalled, or partitioned away), the lease's unfinished cells go
  back to the pending pool and the next requesting worker takes them.
  Heartbeats push the deadline out, so a slow-but-alive worker keeps
  its lease while a dead one loses it within one TTL.
- **Elastic membership.** Workers are registered on first contact and
  tracked by last-seen time; any worker may join or leave mid-sweep and
  the cell pool simply redistributes.

Leases hand out cells grouped by :func:`repro.api.parallel.group_key`
(``(dataset, seed, problem)``) in the same order the in-process loop
uses, so a worker executing its lease front-to-back pays for each
dataset build and reference optimum once per lease (via
``prepare_shared``'s one-slot cache). A lease is at most the requesting
worker's share of its group's pending cells, so one early worker cannot
walk off with a whole group while the others idle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import FabricError

__all__ = ["FabricCell", "Lease", "WorkerInfo", "LeaseTable"]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"


@dataclass
class FabricCell:
    """One sweep cell as the fabric sees it."""

    index: int          #: position in the caller's cell list (grid order)
    key: str            #: canonical spec JSON — the dedup identity
    spec: dict          #: the ExperimentSpec dict shipped to workers
    group: tuple        #: cells sharing a group share dataset + optimum
    status: str = PENDING
    attempts: int = 0   #: times leased (1 = never stolen or retried)
    worker: str | None = None   #: who completed (or currently leases) it
    error: str | None = None    #: last failure message, if any


@dataclass
class Lease:
    """A batch of cells issued to one worker, valid until ``deadline``."""

    lease_id: int
    worker: str
    indices: list[int]
    deadline: float


@dataclass
class WorkerInfo:
    """Membership record for one (possibly remote) worker."""

    name: str
    joined_at: float
    last_seen: float
    cells_done: int = 0
    leases_taken: int = 0

    def throughput(self, now: float) -> float:
        """Completed cells per second since this worker joined."""
        elapsed = max(now - self.joined_at, 1e-9)
        return self.cells_done / elapsed


@dataclass
class _Counters:
    reissued: int = 0    #: cells returned to the pool by lease expiry
    duplicates: int = 0  #: late results dropped by at-most-once accounting
    retried: int = 0     #: cells re-pooled after a reported failure


class LeaseTable:
    """Lease, steal, dedup, and membership state for one sweep."""

    def __init__(
        self,
        cells: Iterable[tuple[int, str, dict, tuple]],
        *,
        lease_ttl: float = 30.0,
        lease_size: int = 8,
        max_attempts: int = 3,
    ) -> None:
        if lease_ttl <= 0:
            raise FabricError(f"lease_ttl must be positive, got {lease_ttl}")
        if lease_size <= 0:
            raise FabricError(f"lease_size must be positive, got {lease_size}")
        if max_attempts <= 0:
            raise FabricError(
                f"max_attempts must be positive, got {max_attempts}"
            )
        self.lease_ttl = float(lease_ttl)
        self.lease_size = int(lease_size)
        self.max_attempts = int(max_attempts)
        self.cells: dict[int, FabricCell] = {}
        for index, key, spec, group in cells:
            if index in self.cells:
                raise FabricError(f"duplicate cell index {index}")
            self.cells[index] = FabricCell(index, key, spec, group)
        #: Pending issue order: grouped like the in-process loop so each
        #: lease is one contiguous run of a single group.
        self._issue_order = sorted(
            self.cells, key=lambda i: (self.cells[i].group, i)
        )
        self._lease_ids = itertools.count(1)
        self.leases: dict[int, Lease] = {}
        self.workers: dict[str, WorkerInfo] = {}
        #: Workers a lease is shared between even before they have all
        #: said hello: the driver sets it to the number it forked.
        self.min_workers = 1
        self.counters = _Counters()

    # -- membership --------------------------------------------------------------------
    def touch(self, worker: str, now: float) -> WorkerInfo:
        """Register/refresh a worker and extend its lease deadlines.

        Any message from a worker is proof of life: its leases get a
        fresh TTL so a worker grinding through a long cell is never
        stolen from while it keeps heartbeating.
        """
        info = self.workers.get(worker)
        if info is None:
            info = self.workers[worker] = WorkerInfo(worker, now, now)
        info.last_seen = now
        for lease in self.leases.values():
            if lease.worker == worker:
                lease.deadline = max(lease.deadline, now + self.lease_ttl)
        return info

    # -- stealing ----------------------------------------------------------------------
    def expire(self, now: float) -> list[Lease]:
        """Re-pool every cell of every lease whose deadline has passed."""
        expired = [
            lease for lease in self.leases.values() if lease.deadline < now
        ]
        self._repool(expired)
        return expired

    def release(self, worker: str) -> None:
        """Re-pool every lease still booked to ``worker``.

        The protocol is one-lease-at-a-time: a worker only requests
        after finishing (or abandoning) its current lease. A request
        from a worker that still holds one is therefore a confession —
        the old lease belongs to a torn or duplicated session — and
        waiting out its TTL would stall the sweep (the worker's own
        polling keeps touching the deadline forward). The coordinator
        also calls this for a worker it tells to abort mid-lease.
        """
        self._repool(
            [lease for lease in self.leases.values() if lease.worker == worker]
        )

    def _repool(self, leases: list[Lease]) -> None:
        for lease in leases:
            del self.leases[lease.lease_id]
            for index in lease.indices:
                cell = self.cells[index]
                if cell.status == LEASED:
                    cell.status = PENDING
                    cell.worker = None
                    self.counters.reissued += 1

    # -- leasing -----------------------------------------------------------------------
    def acquire(self, worker: str, now: float) -> Lease | None:
        """Lease the next batch of pending cells to ``worker``.

        Returns ``None`` when nothing is pending (everything is done,
        failed, or leased out — callers distinguish via :meth:`done`).
        A batch never spans groups: it is a prefix of one group's
        pending cells, as long as this worker's share of them —
        ``ceil(pending / workers)``, workers being those heard from
        within one ``lease_ttl`` (never fewer than ``min_workers``) —
        and at most ``lease_size``. Shares shrink as the group drains
        (4, 2, 1, 1 for eight cells on two workers), so its tail is
        spread across workers instead of riding on one.
        """
        self.expire(now)
        self.touch(worker, now)
        self.release(worker)
        pending: list[int] = []
        for index in self._issue_order:
            cell = self.cells[index]
            if cell.status != PENDING:
                continue
            if pending and cell.group != self.cells[pending[0]].group:
                break
            pending.append(index)
        if not pending:
            return None
        live = sum(
            now - info.last_seen <= self.lease_ttl
            for info in self.workers.values()
        )
        share = -(-len(pending) // max(live, self.min_workers))
        batch = pending[:min(share, self.lease_size)]
        lease = Lease(
            next(self._lease_ids), worker, batch, now + self.lease_ttl
        )
        self.leases[lease.lease_id] = lease
        for index in batch:
            cell = self.cells[index]
            cell.status = LEASED
            cell.worker = worker
            cell.attempts += 1
        self.workers[worker].leases_taken += 1
        return lease

    # -- results -----------------------------------------------------------------------
    def complete(self, index: int, key: str, worker: str, now: float) -> str:
        """Record one result; returns the at-most-once verdict.

        ``"recorded"`` — first result for this cell, caller should
        persist the summary. ``"duplicate"`` — the cell already has a
        recorded result (late arrival after a steal); drop the payload.
        A key mismatch (worker answering for a different spec than the
        coordinator issued at that index) is a protocol-level bug and
        raises.
        """
        self.touch(worker, now)
        cell = self.cells.get(index)
        if cell is None:
            raise FabricError(f"result for unknown cell index {index}")
        if key != cell.key:
            raise FabricError(
                f"result key mismatch for cell {index}: worker {worker!r} "
                "answered for a different spec than was issued"
            )
        if cell.status == DONE:
            self.counters.duplicates += 1
            return "duplicate"
        cell.status = DONE
        cell.worker = worker
        cell.error = None
        self._drop_from_leases(index)
        self.workers[worker].cells_done += 1
        return "recorded"

    def fail(self, index: int, worker: str, error: str, now: float) -> str:
        """Record a cell failure; ``"retry"`` re-pools it, ``"fatal"``
        marks it permanently failed (attempt budget exhausted).

        ``"duplicate"`` — the report is stale and changes nothing: the
        cell is already done, or its lease expired and it now runs on
        another worker, whose own attempt decides its fate.
        """
        self.touch(worker, now)
        cell = self.cells.get(index)
        if cell is None:
            raise FabricError(f"failure for unknown cell index {index}")
        if cell.status == DONE or (
            cell.status == LEASED and cell.worker != worker
        ):
            self.counters.duplicates += 1
            return "duplicate"
        cell.error = error
        self._drop_from_leases(index)
        if cell.attempts >= self.max_attempts:
            cell.status = FAILED
            cell.worker = worker
            return "fatal"
        cell.status = PENDING
        cell.worker = None
        self.counters.retried += 1
        return "retry"

    # -- recovery ----------------------------------------------------------------------
    def mark_done(self, index: int, *, worker: str = "(recovered)") -> bool:
        """Mark a cell DONE without a live worker — coordinator restart.

        Used when a relaunched coordinator replays the sealed checkpoint
        JSONL: cells already recorded on disk must never be re-leased.
        Returns ``False`` (a no-op) when the cell is unknown — the
        driver may have filtered done cells out of the table already —
        or already DONE.
        """
        cell = self.cells.get(index)
        if cell is None or cell.status == DONE:
            return False
        cell.status = DONE
        cell.worker = worker
        cell.error = None
        self._drop_from_leases(index)
        return True

    def restore_counters(self, snap: "Mapping[str, Any]") -> None:
        """Carry cumulative counters across a coordinator restart.

        A relaunched coordinator seeds its steal/retry/duplicate tallies
        from the previous incarnation's status sidecar so ``sweep-status``
        reports one sweep, not one per incarnation."""
        for field_name in ("reissued", "duplicates", "retried"):
            value = snap.get(field_name)
            if isinstance(value, int) and value >= 0:
                setattr(self.counters, field_name, value)

    def _drop_from_leases(self, index: int) -> None:
        for lease_id, lease in list(self.leases.items()):
            if index in lease.indices:
                lease.indices.remove(index)
                if not lease.indices:
                    del self.leases[lease_id]

    # -- state views -------------------------------------------------------------------
    def status_counts(self) -> dict[str, int]:
        counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for cell in self.cells.values():
            counts[cell.status] += 1
        return counts

    @property
    def done(self) -> bool:
        """Every cell recorded (failed cells keep the sweep unfinished)."""
        return all(cell.status == DONE for cell in self.cells.values())

    def snapshot(self, now: float) -> dict[str, Any]:
        """JSON-safe live view — the ``sweep-status`` sidecar payload."""
        counts = self.status_counts()
        total = len(self.cells)
        done = counts[DONE]
        rate = sum(w.throughput(now) for w in self.workers.values())
        remaining = total - done - counts[FAILED]
        return {
            "total": total,
            "done": done,
            "in_flight": counts[LEASED],
            "pending": counts[PENDING],
            "failed": counts[FAILED],
            "reissued": self.counters.reissued,
            "retried": self.counters.retried,
            "duplicates": self.counters.duplicates,
            "active_leases": len(self.leases),
            "cells_per_s": round(rate, 4),
            "eta_s": round(remaining / rate, 1) if rate > 0 else None,
            "workers": {
                name: {
                    "cells_done": info.cells_done,
                    "leases_taken": info.leases_taken,
                    "cells_per_s": round(info.throughput(now), 4),
                    "last_seen_s": round(max(now - info.last_seen, 0.0), 2),
                }
                for name, info in sorted(self.workers.items())
            },
        }
