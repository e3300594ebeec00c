"""Scheduling policies: the general protocol behind barrier control.

The paper's barrier abstraction (Section 3, Listing 2) answers two
questions — "may a round proceed?" and "to which workers?".
:class:`SchedulingPolicy` states them as two hooks over the live STAT
table:

=================  ==========================================================
hook               role
=================  ==========================================================
``ready(stat)``    may a new submission round proceed *now*?
``eligible(stat)`` which workers receive tasks this round, in dispatch order
=================  ==========================================================

Both hooks have a neutral default (`ready` = "anyone free", `eligible`
= "every available worker"), so the classic barriers (Section 3 /
Listing 2) implement only what differs:

- **ASP** (asynchronous parallel): proceed as soon as any worker can take
  a task. The paper writes this as ``STAT.foreach(true)``; on a driver
  that spins, submitting to zero workers is a no-op, so requiring one
  available worker is the same semantics without busy-waiting.
- **BSP** (bulk synchronous): wait for *all* alive workers.
- **SSP(s)** (stale synchronous): proceed only while the maximum in-flight
  staleness is below the threshold ``s``.

:class:`MinAvailableFraction` is the ⌊β·P⌋ available-fraction rule of
Algorithm 2, and :class:`CompletionTimeBarrier` withholds tasks from
abnormally slow workers in the spirit of [69]. A spec names exactly one
policy (``"ssp:4"``); policies do not compose.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Mapping

from repro.api.registry import POLICIES, register_policy
from repro.core.stat import StatTable
from repro.errors import ApiError

__all__ = [
    "SchedulingPolicy",
    "LambdaPolicy",
    "ASP",
    "BSP",
    "SSP",
    "MinAvailableFraction",
    "CompletionTimeBarrier",
    "as_policy",
    "resolve_policy",
    "policy_hooks",
    "POLICY_HOOKS",
]

#: The two protocol hooks, in documentation order.
POLICY_HOOKS = ("ready", "eligible")


class SchedulingPolicy:
    """Decides when a round is dispatched and to which workers.

    Subclasses override either or both hooks. The scheduler dispatches
    to the data-holding workers :meth:`eligible` lists, in its order.
    """

    def ready(self, stat: StatTable) -> bool:
        """True when a new round of tasks may be dispatched.

        Default: proceed as soon as anyone is free (ASP semantics).
        """
        return stat.num_available >= 1

    def eligible(self, stat: StatTable) -> list[int]:
        """Workers to dispatch to, in dispatch order; defaults to every
        available worker."""
        return stat.available_workers()

    def describe(self) -> str:
        return type(self).__name__


def policy_hooks(factory: Any) -> list[str]:
    """Which protocol hooks a registered policy class overrides.

    Returns hook names from :data:`POLICY_HOOKS` whose implementation
    differs from the :class:`SchedulingPolicy` default. Used by
    ``python -m repro list`` to summarize each policy's surface.
    """
    if not (isinstance(factory, type) and issubclass(factory, SchedulingPolicy)):
        return []
    return [
        name for name in POLICY_HOOKS
        if getattr(factory, name) is not getattr(SchedulingPolicy, name)
    ]


class LambdaPolicy(SchedulingPolicy):
    """Wrap user functions as a policy (the paper's raw predicate API).

    ``ready_fn(stat) -> bool`` is the Listing-2 predicate;
    ``eligible_fn(stat) -> list[int]`` is an optional worker filter.
    """

    def __init__(
        self,
        ready_fn: Callable[[StatTable], bool] | None = None,
        eligible_fn: Callable[[StatTable], list[int]] | None = None,
        name: str = "LambdaPolicy",
    ) -> None:
        self._ready = ready_fn
        self._eligible = eligible_fn
        self._name = name

    def ready(self, stat: StatTable) -> bool:
        if self._ready is None:
            return super().ready(stat)
        return bool(self._ready(stat))

    def eligible(self, stat: StatTable) -> list[int]:
        if self._eligible is not None:
            return list(self._eligible(stat))
        return stat.available_workers()

    def describe(self) -> str:
        return self._name


# ---------------------------------------------------------------------------
# The classic barriers: admission-only policies.
# ---------------------------------------------------------------------------

def _staleness_bound(threshold: Any, policy: str) -> Any:
    """Validate an SSP bound: a whole number of model updates, >= 1.

    A staleness is a count of updates, so ``1.5`` would silently act as
    ``2``; it is rejected like a non-finite bound.
    """
    if not 1 <= threshold < math.inf or threshold != int(threshold):
        raise ValueError(
            f"{policy} threshold must be a finite whole number >= 1, "
            f"got {threshold!r}"
        )
    return threshold


@register_policy("asp")
class ASP(SchedulingPolicy):
    """Fully asynchronous: dispatch whenever anyone is free."""

    def ready(self, stat: StatTable) -> bool:
        return stat.num_available >= 1


@register_policy("bsp")
class BSP(SchedulingPolicy):
    """Bulk synchronous: dispatch only when every alive worker is free."""

    def ready(self, stat: StatTable) -> bool:
        return stat.num_alive > 0 and stat.num_available == stat.num_alive


@register_policy("ssp")
class SSP(SchedulingPolicy):
    """Stale synchronous parallel with staleness threshold ``s``.

    Workers proceed while no in-flight computation is more than ``s``
    model updates behind; otherwise dispatch stalls until stragglers
    deliver.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = _staleness_bound(threshold, "SSP")

    def ready(self, stat: StatTable) -> bool:
        return stat.num_available >= 1 and stat.max_staleness < self.threshold

    def describe(self) -> str:
        return f"SSP(s={self.threshold})"


@register_policy("frac", aliases=("min_available_fraction",))
class MinAvailableFraction(SchedulingPolicy):
    """Algorithm 2's bounded-availability rule: need ⌊β·P⌋ free workers.

    ``P`` counts alive workers, as :class:`BSP` does: a killed worker can
    never become available, so counting it would stall the run.
    """

    def __init__(self, beta: float) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.beta = beta

    def ready(self, stat: StatTable) -> bool:
        need = max(1, math.floor(self.beta * stat.num_alive))
        return stat.num_available >= need

    def describe(self) -> str:
        return f"MinAvailableFraction(beta={self.beta})"


@register_policy("ct", aliases=("completion_time",))
class CompletionTimeBarrier(SchedulingPolicy):
    """Performance-based barrier in the spirit of [69].

    Ready when any acceptable worker is free; workers whose average task
    completion time exceeds ``ratio`` x the cluster median are filtered
    out of dispatch (they finish their in-flight work but receive no new
    tasks), keeping chronically slow machines from accumulating stale
    work.

    Workers with no completed tasks yet are always acceptable *and* are
    excluded from the threshold: the median is taken only over workers
    with completion history (``StatTable.median_completion_ms``), so
    zero-sample rows early in a run can neither drag the threshold to
    zero nor get themselves filtered before producing a single result.
    """

    def __init__(self, ratio: float = 2.0) -> None:
        if not 0 < ratio < math.inf:
            raise ValueError("ratio must be positive and finite")
        self.ratio = ratio

    def _acceptable_workers(self, stat: StatTable) -> list[int]:
        """Available workers passing the filter (threshold computed once)."""
        available = stat.available_workers()
        median = stat.median_completion_ms()
        if median <= 0:  # nobody has history yet: everyone is acceptable
            return available
        cutoff = self.ratio * median
        return [
            w for w in available
            if stat[w].tasks_completed == 0
            or stat[w].avg_completion_ms <= cutoff
        ]

    def ready(self, stat: StatTable) -> bool:
        return bool(self._acceptable_workers(stat))

    def eligible(self, stat: StatTable) -> list[int]:
        return self._acceptable_workers(stat)

    def describe(self) -> str:
        return f"CompletionTimeBarrier(ratio={self.ratio})"


# ---------------------------------------------------------------------------
# Coercion.
# ---------------------------------------------------------------------------

def as_policy(
    policy: SchedulingPolicy | Callable[[StatTable], bool] | None,
) -> SchedulingPolicy:
    """Coerce user input (policy object, plain predicate, None) to a policy."""
    if policy is None:
        return ASP()
    if isinstance(policy, SchedulingPolicy):
        return policy
    if callable(policy):
        return LambdaPolicy(policy)
    raise TypeError(f"cannot interpret {policy!r} as a scheduling policy")


def resolve_policy(spec: Any) -> SchedulingPolicy:
    """Build a policy from any spec spelling the declarative layer allows.

    Accepts a built policy (pass-through), a bare predicate, a registry
    string (``"name"`` / ``"name:arg"``) or a dict with a ``"name"``
    key. A string joining policies with ``&`` or ``|`` is an
    :class:`~repro.errors.ApiError` naming its terms.
    """
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str) and ("&" in spec or "|" in spec):
        terms = [t.partition(":")[0].strip() for t in re.split(r"[&|]", spec)]
        raise ApiError(
            f"policy {spec!r} joins {', '.join(map(repr, terms))} with "
            f"'&'/'|'; policies do not compose, name one of {POLICIES.names()}"
        )
    if isinstance(spec, (str, Mapping)):
        return POLICIES.create(spec, expect=SchedulingPolicy)
    return as_policy(spec)
