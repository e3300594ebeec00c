"""Scheduling policies: the general protocol behind barrier control.

The paper's barrier abstraction (Section 3, Listing 2) answers two
questions — "may a round proceed?" and "to which workers?".
:class:`SchedulingPolicy` states them as two hooks over the live STAT
table:

===================  ========================================================
hook                 role
===================  ========================================================
``ready(stat)``      may a new submission round proceed *now*?
``select(stat, cs)`` which candidate targets (workers or partitions)
                     receive tasks this round
===================  ========================================================

Both hooks have a neutral default (`ready` = "anyone free", `select` =
"everything admitted by :meth:`eligible`"), so the classic barriers
(Section 3 / Listing 2) are thin adapters: they implement
``ready``/``eligible`` and inherit the rest.

- **ASP** (asynchronous parallel): proceed as soon as any worker can take
  a task. The paper writes this as ``STAT.foreach(true)``; on a driver
  that spins, submitting to zero workers is a no-op, so requiring one
  available worker is the same semantics without busy-waiting.
- **BSP** (bulk synchronous): wait for *all* alive workers.
- **SSP(s)** (stale synchronous): proceed only while the maximum in-flight
  staleness is below the threshold ``s``.

:class:`MinAvailableFraction` is the ⌊β·P⌋ available-fraction rule of
Algorithm 2, and :class:`CompletionTimeBarrier` withholds tasks from
abnormally slow workers in the spirit of [69].

Policies compose with ``&`` (both must be ready; selections chain left
to right — the intersection, for pure filters) and ``|`` (either ready;
selections union). The same grammar works in string form —
``"ssp:4 & ct:1.5"`` — so composed policies are JSON-addressable from
specs and the CLI (``&`` binds tighter than ``|``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

from repro.api.registry import POLICIES, register_policy
from repro.core.stat import StatTable
from repro.errors import ApiError

__all__ = [
    "Target",
    "SchedulingPolicy",
    "LambdaPolicy",
    "AndPolicy",
    "OrPolicy",
    "ASP",
    "BSP",
    "SSP",
    "MinAvailableFraction",
    "CompletionTimeBarrier",
    "as_policy",
    "parse_policy",
    "resolve_policy",
    "policy_hooks",
    "POLICY_HOOKS",
]

#: The two protocol hooks, in documentation order.
POLICY_HOOKS = ("ready", "select")


class Target(NamedTuple):
    """One dispatchable unit offered to :meth:`SchedulingPolicy.select`.

    At worker granularity ``kind == "worker"`` and ``id == worker``; at
    partition granularity ``kind == "partition"``, ``id`` is the
    partition and ``worker`` the worker its task would run on (under the
    locality rule). Policies filter/reorder the candidate list and
    return a subset; ids they did not receive are rejected by the
    scheduler.
    """

    kind: str
    id: int
    worker: int


class SchedulingPolicy:
    """Decides when a round is dispatched and to which targets.

    Subclasses override either or both hooks. The default
    :meth:`select` routes through the :meth:`eligible` worker filter, so
    two-method barriers participate unchanged — including user
    ``eligible`` orders, which decide dispatch order.
    """

    # -- the two protocol hooks --------------------------------------------------
    def ready(self, stat: StatTable) -> bool:
        """True when a new round of tasks may be dispatched.

        Default: proceed as soon as anyone is free (ASP semantics).
        """
        return stat.num_available >= 1

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        """Targets to dispatch to, chosen from ``candidates``.

        The default admits every candidate whose worker passes
        :meth:`eligible`, ordered by that worker filter (ties — multiple
        partitions on one worker — keep their candidate order).
        """
        order = {w: i for i, w in enumerate(self.eligible(stat))}
        picked = [t for t in candidates if t.worker in order]
        picked.sort(key=lambda t: order[t.worker])  # stable within a worker
        return picked

    # -- the barrier-level worker filter ----------------------------------------
    def eligible(self, stat: StatTable) -> list[int]:
        """Workers to dispatch to; defaults to every available worker.

        The default :meth:`select` is defined in terms of it, so
        two-method barrier subclasses only state a worker filter.
        """
        return stat.available_workers()

    def describe(self) -> str:
        return type(self).__name__

    # Policies compose: (a & b), (a | b).
    def __and__(self, other: "SchedulingPolicy") -> "SchedulingPolicy":
        return AndPolicy(self, other)

    def __or__(self, other: "SchedulingPolicy") -> "SchedulingPolicy":
        return OrPolicy(self, other)


def policy_hooks(factory: Any) -> list[str]:
    """Which protocol hooks a registered policy class overrides.

    Returns hook names from :data:`POLICY_HOOKS` whose implementation
    differs from the :class:`SchedulingPolicy` default (``eligible`` is
    folded into ``select``: overriding it customizes selection). Used by
    ``python -m repro list`` to summarize each policy's surface.
    """
    if not (isinstance(factory, type) and issubclass(factory, SchedulingPolicy)):
        return []
    hooks = [
        name for name in POLICY_HOOKS
        if getattr(factory, name) is not getattr(SchedulingPolicy, name)
    ]
    if "select" not in hooks and (
        factory.eligible is not SchedulingPolicy.eligible
    ):
        hooks.insert(hooks.index("ready") + 1 if "ready" in hooks else 0,
                     "select")
    return hooks


class LambdaPolicy(SchedulingPolicy):
    """Wrap user functions as a policy (the paper's raw predicate API).

    ``ready_fn(stat) -> bool`` is the Listing-2 predicate; ``eligible_fn``
    and ``select_fn`` are optional worker filter and target selection.
    """

    def __init__(
        self,
        ready_fn: Callable[[StatTable], bool] | None = None,
        eligible_fn: Callable[[StatTable], list[int]] | None = None,
        name: str = "LambdaPolicy",
        *,
        select_fn: Callable[[StatTable, list[Target]], list[Target]] | None = None,
    ) -> None:
        self._ready = ready_fn
        self._eligible = eligible_fn
        self._select = select_fn
        self._name = name

    def ready(self, stat: StatTable) -> bool:
        if self._ready is None:
            return super().ready(stat)
        return bool(self._ready(stat))

    def eligible(self, stat: StatTable) -> list[int]:
        if self._eligible is not None:
            return list(self._eligible(stat))
        return stat.available_workers()

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        if self._select is not None:
            return list(self._select(stat, candidates))
        return super().select(stat, candidates)

    def describe(self) -> str:
        return self._name


class AndPolicy(SchedulingPolicy):
    """Both policies ready; selections chain.

    ``select`` pipes left to right: the right operand chooses from what
    the left admitted. For pure filters this is exactly the
    intersection; for a selector that picks a subset it is the useful
    reading — it picks *within* the filtered set (two independent picks
    intersected could come up empty and stall an idle cluster). Put
    filters left of selectors.
    """

    def __init__(self, a: SchedulingPolicy, b: SchedulingPolicy) -> None:
        self.a, self.b = a, b

    def ready(self, stat: StatTable) -> bool:
        return self.a.ready(stat) and self.b.ready(stat)

    def eligible(self, stat: StatTable) -> list[int]:
        eb = set(self.b.eligible(stat))
        return [w for w in self.a.eligible(stat) if w in eb]

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        return self.b.select(stat, list(self.a.select(stat, candidates)))

    def describe(self) -> str:
        return f"({self.a.describe()} & {self.b.describe()})"


class OrPolicy(SchedulingPolicy):
    """Either policy ready; selections union (stable order)."""

    def __init__(self, a: SchedulingPolicy, b: SchedulingPolicy) -> None:
        self.a, self.b = a, b

    def ready(self, stat: StatTable) -> bool:
        return self.a.ready(stat) or self.b.ready(stat)

    def eligible(self, stat: StatTable) -> list[int]:
        out = list(self.a.eligible(stat))
        seen = set(out)
        for w in self.b.eligible(stat):
            if w not in seen:
                out.append(w)
        return out

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        out = list(self.a.select(stat, candidates))
        seen = set(out)
        for t in self.b.select(stat, candidates):
            if t not in seen:
                out.append(t)
        return out

    def describe(self) -> str:
        return f"({self.a.describe()} | {self.b.describe()})"


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
# Coercion and the string grammar.
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


def parse_policy(text: str) -> SchedulingPolicy:
    """Parse the composed string form: ``"ssp:4 & ct:1.5 | bsp"``.

    Terms are registry spellings (``"name"`` / ``"name:arg"``); ``&``
    binds tighter than ``|``; there are no parentheses (compose in Python
    for anything deeper). A single term is exactly ``POLICIES.create``.
    """
    def term(token: str) -> SchedulingPolicy:
        token = token.strip()
        if not token:
            raise ApiError(f"empty term in policy expression {text!r}")
        return POLICIES.create(token, expect=SchedulingPolicy)

    def conjunction(part: str) -> SchedulingPolicy:
        factors = [term(tok) for tok in part.split("&")]
        out = factors[0]
        for nxt in factors[1:]:
            out = out & nxt
        return out

    alternatives = [conjunction(part) for part in text.split("|")]
    out = alternatives[0]
    for nxt in alternatives[1:]:
        out = out | nxt
    return out


def resolve_policy(spec: Any) -> SchedulingPolicy:
    """Build a policy from any spec spelling the declarative layer allows.

    Accepts a built policy (pass-through), a bare predicate, a registry
    string — including ``&``/``|`` composition — or a dict with a
    ``"name"`` key.
    """
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str) and ("&" in spec or "|" in spec):
        return parse_policy(spec)
    if isinstance(spec, (str, Mapping)):
        return POLICIES.create(spec, expect=SchedulingPolicy)
    return as_policy(spec)
