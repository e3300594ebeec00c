"""Discrete-event queue for the simulation backend.

A binary heap of ``(time, seq, event)`` tuples. Tuples compare in C, so
``heapq`` orders entries without a Python-level ``__lt__``; ``seq`` is
unique and monotonically increasing, so the comparison never reaches the
event itself and pops are deterministic when events share a timestamp —
essential for bit-reproducible experiments (the async algorithms are
sensitive to the order in which simultaneous task completions are applied).

An :class:`Event` carries its callback *and* the callback's arguments, so
scheduling a bound method with arguments needs no closure per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled ``callback(*args)``; the cancellable handle of one entry."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., None], args: tuple
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """Min-heap of ``(time, seq, Event)`` entries with lazy cancellation."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at ``time``; returns a cancellable
        handle."""
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if ev.cancelled:
                continue
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
