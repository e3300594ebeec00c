"""Spec-addressable fault-injection plans.

A fault plan is a *reproducible* failure scenario: an ordered schedule
of worker kill/revive events, addressable from an experiment spec the
same way policies are (registry name + string grammar), so every
recovery scenario is a spec and a CI test instead of a hand-wired
script.

Two spellings resolve to a :class:`FaultPlan`:

- **Script grammar** — comma-separated ``action:wN@time`` events::

      "kill:w2@500ms,revive:w2@900ms"

  Actions are ``kill`` and ``revive``; times accept an ``ms`` (default)
  or ``s`` suffix and are cluster time — virtual ms on the simulation
  backend, wall-clock ms on the thread backend, so one plan runs on
  both.

- **Registry names** — ``"none"``, or the seeded random-kill mode
  ``"random_kill:K"`` which compiles K kills (optionally followed by
  revives) at seeded-uniform times into the same event schedule. Like
  policies, ``num_workers`` and ``seed`` are injected from the spec.

The :class:`FaultPlanDriver` applies due events between server-loop
rounds via :class:`~repro.engine.faults.FaultInjector` and refreshes
STAT liveness afterwards. A kill that would leave *zero* alive workers
is suppressed (and counted) — a cluster with nobody left can make no
progress, and the paper's fault model always keeps at least one
survivor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.api.registry import FAULT_PLANS, register_fault_plan
from repro.errors import FaultPlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import ClusterContext

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultPlanDriver",
    "parse_fault_plan",
    "resolve_fault_plan",
]

ACTIONS = ("kill", "revive")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``action`` worker ``worker`` at cluster
    time ``time_ms``."""

    time_ms: float
    action: str
    worker: int

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {ACTIONS}"
            )
        if not (math.isfinite(self.time_ms) and self.time_ms >= 0):
            raise FaultPlanError(
                f"fault time must be finite and >= 0, got {self.time_ms}"
            )
        if self.worker < 0:
            raise FaultPlanError(
                f"worker id must be >= 0, got {self.worker}"
            )

    def describe(self) -> str:
        ms = self.time_ms
        text = f"{ms:g}ms" if ms != int(ms) else f"{int(ms)}ms"
        return f"{self.action}:w{self.worker}@{text}"


class FaultPlan:
    """An ordered, immutable schedule of :class:`FaultEvent`."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time_ms, e.worker, e.action))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultPlan) and self.events == other.events
        )

    @property
    def empty(self) -> bool:
        return not self.events

    def describe(self) -> str:
        """Canonical script-grammar form (parses back to an equal plan)."""
        if not self.events:
            return "none"
        return ",".join(e.describe() for e in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({self.describe()!r})"


def _parse_time_ms(text: str) -> float:
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("ms"):
        raw = raw[:-2]
    elif raw.endswith("s"):
        raw, scale = raw[:-1], 1000.0
    try:
        value = float(raw)
    except ValueError:
        raise FaultPlanError(
            f"bad fault time {text!r}; expected e.g. '500ms' or '1.5s'"
        ) from None
    value *= scale
    if not (math.isfinite(value) and value >= 0):
        raise FaultPlanError(
            f"fault time must be finite and >= 0, got {text!r}"
        )
    return value


def parse_fault_plan(text: str, num_workers: int | None = None) -> FaultPlan:
    """Parse the ``"kill:w2@500ms,revive:w2@900ms"`` script grammar.

    With ``num_workers``, an event naming a worker the cluster does not
    have is an error, not a silently suppressed no-op.
    """
    events: list[FaultEvent] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        head, sep, at = token.partition("@")
        if not sep:
            raise FaultPlanError(
                f"bad fault event {token!r}; expected 'action:wN@time'"
            )
        action, sep, target = head.partition(":")
        if not sep:
            raise FaultPlanError(
                f"bad fault event {token!r}; expected 'action:wN@time'"
            )
        action = action.strip().lower()
        target = target.strip().lower()
        digits = target[1:]
        if (
            not target.startswith("w")
            or not (digits.isascii() and digits.isdigit())
        ):
            raise FaultPlanError(
                f"bad fault target {target!r} in {token!r}; "
                "workers are spelled 'w<id>' (e.g. 'w2')"
            )
        worker = int(digits)
        if num_workers is not None and worker >= num_workers:
            raise FaultPlanError(
                f"fault target {target!r} in {token!r} names no worker "
                f"of this {num_workers}-worker cluster"
            )
        events.append(FaultEvent(_parse_time_ms(at), action, worker))
    if not events:
        raise FaultPlanError(
            f"fault plan {text!r} contains no events"
        )
    return FaultPlan(events)


def resolve_fault_plan(
    spec: object,
    *,
    num_workers: int | None = None,
    seed: int = 0,
) -> FaultPlan | None:
    """Coerce a spec value into a :class:`FaultPlan`.

    ``None`` passes through; an ``@`` in a string means the script
    grammar; anything else (``"none"``, ``"random_kill:2"``, a dict
    with ``name``) goes through the ``FAULT_PLANS`` registry with
    ``num_workers``/``seed`` injected like policy defaults.
    """
    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str) and "@" in spec:
        return parse_fault_plan(spec, num_workers)
    plan = FAULT_PLANS.create(
        spec, defaults={"num_workers": num_workers, "seed": seed}
    )
    if not isinstance(plan, FaultPlan):
        raise FaultPlanError(
            f"fault plan factory for {spec!r} returned "
            f"{type(plan).__name__}, not FaultPlan"
        )
    return plan


class FaultPlanDriver:
    """Applies a plan's due events to a live cluster.

    The server loop polls :meth:`poll` once per round; events whose
    time has passed are injected through
    :class:`~repro.engine.faults.FaultInjector`. Works on both
    backends because it compares against ``ctx.now()`` (virtual or
    wall-clock ms).
    """

    def __init__(self, plan: FaultPlan, ctx: "ClusterContext") -> None:
        from repro.engine.faults import FaultInjector

        self.plan = plan
        self.ctx = ctx
        self.injector = FaultInjector(ctx)
        self._next = 0
        self.fired = 0
        self.suppressed = 0
        self.log: list[dict] = []

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.plan.events)

    def poll(self, now_ms: float | None = None) -> int:
        """Apply every event due at ``now_ms``; returns how many fired
        (suppressed events don't count)."""
        now = self.ctx.now() if now_ms is None else now_ms
        fired = 0
        while (
            self._next < len(self.plan.events)
            and self.plan.events[self._next].time_ms <= now
        ):
            event = self.plan.events[self._next]
            self._next += 1
            if self._apply(event, now):
                fired += 1
        return fired

    def _apply(self, event: FaultEvent, now: float) -> bool:
        backend = self.ctx.backend
        if event.worker not in backend.worker_ids():
            return self._suppress(event, now, "unknown worker")
        alive = set(self.injector.alive_workers())
        if event.action == "kill":
            if event.worker not in alive:
                return self._suppress(event, now, "already dead")
            if len(alive) <= 1:
                # Never orphan the cluster: with zero alive workers the
                # loop can neither dispatch nor collect, so the run
                # would spin forever instead of finishing its budget.
                return self._suppress(event, now, "last alive worker")
            self.injector.kill(event.worker)
        else:
            if event.worker in alive:
                return self._suppress(event, now, "already alive")
            self.injector.revive(event.worker)
        self.fired += 1
        self.log.append(
            {
                "event": event.describe(),
                "applied_at_ms": float(now),
                "status": "applied",
            }
        )
        return True

    def _suppress(self, event: FaultEvent, now: float, why: str) -> bool:
        self.suppressed += 1
        self.log.append(
            {
                "event": event.describe(),
                "applied_at_ms": float(now),
                "status": f"suppressed ({why})",
            }
        )
        return False


# -- registered plan factories ---------------------------------------------------------
@register_fault_plan("none")
def no_faults() -> FaultPlan:
    return FaultPlan()


@register_fault_plan("script")
def scripted(plan: str = "", num_workers: int | None = None) -> FaultPlan:
    return parse_fault_plan(plan, num_workers)


@register_fault_plan("random_kill", aliases=("chaos_kill",))
def random_kill(
    kills: int = 1,
    horizon_ms: float = 1000.0,
    revive_after_ms: float | None = None,
    seed: int = 0,
    num_workers: int | None = None,
) -> FaultPlan:
    """Seeded random failures: ``kills`` distinct workers die at
    uniform times in ``(0, horizon_ms]``; with ``revive_after_ms`` each
    comes back that much later. Kills are capped at ``num_workers - 1``
    so at least one worker always survives."""
    if num_workers is None or num_workers < 1:
        raise FaultPlanError(
            "random_kill needs num_workers (injected from the spec)"
        )
    if not 0 < horizon_ms < math.inf:
        raise FaultPlanError(
            f"horizon_ms must be positive and finite, got {horizon_ms}"
        )
    if isinstance(kills, float) and not math.isfinite(kills):
        raise FaultPlanError(f"kills must be finite, got {kills}")
    kills = min(int(kills), num_workers - 1)
    rng = random.Random(f"fault-plan:{seed}")
    victims = rng.sample(range(num_workers), kills) if kills > 0 else []
    events: list[FaultEvent] = []
    for worker in victims:
        at = rng.uniform(0.0, horizon_ms)
        events.append(FaultEvent(round(at, 3), "kill", worker))
        if revive_after_ms is not None:
            events.append(
                FaultEvent(
                    round(at + revive_after_ms, 3), "revive", worker
                )
            )
    return FaultPlan(events)
