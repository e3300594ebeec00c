"""Scripted arrival orders for the simulation backend (a test helper).

The simulation delivers results in virtual-time order, so the order in
which workers' results reach the server is fixed by the compute times
the delay model hands out. :class:`ScriptedOrder` is a delay model that
returns a seeded factor per ``(worker, task_seq)`` from a small set of
levels. Each seed is one arrival order; repeated levels tie, so equal
work on two workers arrives at the same virtual time and the event
queue's tie-break decides. Seed 0 is every factor 1.0: every tie at
once.

An interleaving property quantifies over ``ORDERS``: the same orders
every run, and a failure names the order that broke it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.stragglers import DelayModel

__all__ = ["ORDERS", "ScriptedOrder"]

#: The scripted orders a property quantifies over.
ORDERS = range(24)

#: Factor levels an order draws from; 1.0 twice, so ties are common.
LEVELS = (1.0, 1.0, 1.5, 2.0, 4.0)


class ScriptedOrder(DelayModel):
    """Seeded per-``(worker, task_seq)`` compute-time factors."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._table: dict[tuple[int, int], float] = {}

    def factor(self, worker_id: int, task_seq: int) -> float:
        key = (worker_id, task_seq)
        got = self._table.get(key)
        if got is None:
            if self.seed == 0:
                got = 1.0
            else:
                rng = np.random.default_rng([self.seed, worker_id, task_seq])
                got = LEVELS[int(rng.integers(len(LEVELS)))]
            self._table[key] = got
        return got
