"""The simulation clock.

All engine timestamps are milliseconds, matching the paper's plots. The
virtual clock is advanced only by the simulation event loop.
"""

from __future__ import annotations

from repro.errors import ClockError

__all__ = ["VirtualClock"]


class VirtualClock:
    """Simulation time. Starts at 0.0 and only moves forward."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """Current time in ms since the start of the simulation."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t``; rejects moving backwards.

        The event queue guarantees monotone pops, so a violation here means
        a scheduling bug — fail loudly rather than silently reordering.
        """
        if t < self._now - 1e-9:
            raise ClockError(
                f"virtual clock moved backwards: {self._now} -> {t}"
            )
        if t > self._now:
            self._now = t

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualClock(now={self._now:.3f}ms)"
