"""The yardstick: one fixed loop that measures how fast this host is *now*.

Wall-clock samples on a shared VM move with host contention (the pinned
engine spec ranged 1.9k-5.7k updates/s within ten minutes on the 2-vCPU
builder host). Every timed sample of the benchmark is therefore
sandwiched between two runs of this loop and reported in *calibrated*
seconds: ``sample * Y_NOMINAL_S / mean(yardstick before, after)``.

The loop imports only builtins and numpy — never ``repro`` — so a change
to the program cannot move it. Its mix mirrors what the engine does per
update: interpreter work (dict/slot/method calls), a small GEMV pair
every 20 iterations, a fresh ``default_rng`` every 100 and one large
GEMV every 2000.

Editing this file is a benchmark change, never part of a perf PR: it
redefines the unit every calibrated metric is expressed in.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference duration of one yardstick run, frozen when the benchmark was
#: defined (median on the 2-vCPU builder host). Calibrated seconds are
#: "seconds on a host that runs the yardstick in exactly this long".
Y_NOMINAL_S = 0.25

ITERATIONS = 250_000


class _Slot:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def bump(self, value: float) -> int:
        self.count += 1
        self.total += value
        return self.count


def run(iterations: int = ITERATIONS) -> float:
    """Execute the fixed loop; returns a checksum so no work is elided."""
    small_a = np.linspace(-1.0, 1.0, 128 * 16).reshape(128, 16)
    small_w = np.linspace(0.5, 1.5, 16)
    big_a = np.linspace(-1.0, 1.0, 2048 * 512).reshape(2048, 512)
    big_w = np.linspace(0.5, 1.5, 512)
    table: dict[tuple[str, int], float] = {}
    slot = _Slot()
    check = 0.0
    for i in range(iterations):
        key = ("k", i & 255)
        table[key] = table.get(key, 0.0) + 1.0
        slot.bump(table[key])
        if i % 20 == 0:
            r = small_a @ small_w
            g = small_a.T @ r
            check += float(g[0])
        if i % 100 == 0:
            check += float(np.random.default_rng(i).random())
        if i % 2000 == 0:
            check += float((big_a @ big_w)[0])
    return check + slot.total


def timed() -> float:
    """Wall seconds of one yardstick run."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def calibrate(sample_s: float, before_s: float, after_s: float) -> float:
    """``sample_s`` in calibrated seconds, given the yardstick timings
    taken immediately before and after it."""
    return sample_s * Y_NOMINAL_S / (0.5 * (before_s + after_s))
