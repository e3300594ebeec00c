"""Scheduling policies: the general protocol behind barrier control.

The paper's barrier abstraction (Section 3, Listing 2) answers two
questions — "may a round proceed?" and "to which workers?". The STAT
table now carries richer signals (per-partition staleness and completion
times), and the interesting scheduling disciplines in the asynchronous
optimization literature are *policies over staleness and participation*,
not just barriers. :class:`SchedulingPolicy` generalizes the two-method
barrier (``ready``/``eligible``) into four orthogonal hooks:

===================  ========================================================
hook                 role
===================  ========================================================
``ready(stat)``      may a new submission round proceed *now*?
``select(stat, cs)`` which candidate targets (workers or partitions)
                     receive tasks this round — client sampling,
                     per-partition completion filters
``weight(rec, st)``  contribution weight of a collected result in [0, 1] —
                     staleness-discounted averaging (FedAsync-style)
``place(stat)``      desired partition -> worker reassignments, consulted
                     by the scheduler before building the round — migration
                     of hot partitions off chronically slow workers
===================  ========================================================

Every hook has a neutral default (`ready` = "anyone free", `select` =
"everything admitted by :meth:`eligible`", ``weight`` = 1.0, ``place`` =
no moves), so a policy overrides only the axes it cares about and the
classic barriers (Section 3 / Listing 2) are thin adapters: they
implement ``ready``/``eligible`` and inherit the rest.

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
to right — the intersection, for pure filters; weights multiply;
placements merge) and ``|`` (either ready; selections union; weights
max). The same grammar works in string form — ``"ssp:4 & sample:0.3"``
— so composed policies are JSON-addressable from specs and the CLI
(``&`` binds tighter than ``|``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

import numpy as np

from repro.api.registry import POLICIES, register_policy
from repro.core.stat import StatTable
from repro.errors import ApiError
from repro.utils.rng import spawn_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.records import TaskResultRecord

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
    "PartitionSSP",
    "PartitionCompletionFilter",
    "ClientSampling",
    "StalenessWeighting",
    "MigrateSlow",
    "as_policy",
    "parse_policy",
    "resolve_policy",
    "policy_hooks",
    "POLICY_HOOKS",
]

#: The four protocol hooks, in documentation order.
POLICY_HOOKS = ("ready", "select", "weight", "place")


class Target(NamedTuple):
    """One dispatchable unit offered to :meth:`SchedulingPolicy.select`.

    At worker granularity ``kind == "worker"`` and ``id == worker``; at
    partition granularity ``kind == "partition"``, ``id`` is the
    partition and ``worker`` the worker its task would run on (under the
    current placement). Policies filter/reorder the candidate list and
    return a subset; ids they did not receive are rejected by the
    scheduler.
    """

    kind: str
    id: int
    worker: int


class SchedulingPolicy:
    """Decides when, where, with what weight, and on which worker work runs.

    Subclasses override any combination of the four hooks. The default
    :meth:`select` routes through the :meth:`eligible` worker filter, so
    two-method barriers participate unchanged — including user
    ``eligible`` orders, which decide dispatch order.
    """

    # -- the four protocol hooks -------------------------------------------------
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

    def weight(self, record: "TaskResultRecord", stat: StatTable) -> float:
        """Contribution weight of one collected result (1.0 = full).

        Consumed by the server loop: gradient-step rules scale their step
        size by it, slot-averaging rules blend ``weight`` of the incoming
        model with ``1 - weight`` of the previous slot.
        """
        return 1.0

    def place(self, stat: StatTable) -> dict[int, int]:
        """Desired ``partition -> worker`` reassignments (may be empty).

        Consulted once per submission round before candidates are built;
        accepted moves persist until overridden. Only meaningful once
        partition rows exist (partition-granular dispatch).
        """
        return {}

    # -- the barrier-level worker filter ----------------------------------------
    def eligible(self, stat: StatTable) -> list[int]:
        """Workers to dispatch to; defaults to every available worker.

        The default :meth:`select` is defined in terms of it, so
        two-method barrier subclasses only state a worker filter.
        """
        return stat.available_workers()

    def describe(self) -> str:
        return type(self).__name__

    # -- checkpoint state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe mutable state (RNG positions, counters, cooldowns).

        Stateless policies — every classic barrier — return ``{}``.
        Stateful policies override both methods so a checkpointed run can
        resume its decision sequence instead of restarting it.
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Reinstate a :meth:`state_dict` (no-op for stateless policies)."""

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

    ``ready_fn(stat) -> bool`` is the Listing-2 predicate; the remaining
    hooks are optional keyword functions mirroring the protocol.
    """

    def __init__(
        self,
        ready_fn: Callable[[StatTable], bool] | None = None,
        eligible_fn: Callable[[StatTable], list[int]] | None = None,
        name: str = "LambdaPolicy",
        *,
        select_fn: Callable[[StatTable, list[Target]], list[Target]] | None = None,
        weight_fn: Callable[["TaskResultRecord", StatTable], float] | None = None,
        place_fn: Callable[[StatTable], dict[int, int]] | None = None,
    ) -> None:
        self._ready = ready_fn
        self._eligible = eligible_fn
        self._select = select_fn
        self._weight = weight_fn
        self._place = place_fn
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

    def weight(self, record: "TaskResultRecord", stat: StatTable) -> float:
        if self._weight is not None:
            return float(self._weight(record, stat))
        return 1.0

    def place(self, stat: StatTable) -> dict[int, int]:
        if self._place is not None:
            return dict(self._place(stat))
        return {}

    def describe(self) -> str:
        return self._name


class AndPolicy(SchedulingPolicy):
    """Both policies ready; selections chain; weights multiply.

    ``select`` pipes left to right: the right operand chooses from what
    the left admitted. For pure filters this is exactly the
    intersection; for stochastic selectors it is the useful reading —
    ``"ct_partition:1.5 & sample:0.3"`` samples *within* the filtered
    set (two independent draws intersected could come up empty and
    stall an idle cluster). Put filters left of samplers.
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

    def weight(self, record: "TaskResultRecord", stat: StatTable) -> float:
        return self.a.weight(record, stat) * self.b.weight(record, stat)

    def place(self, stat: StatTable) -> dict[int, int]:
        # The right operand wins conflicting moves (like dict merge).
        return {**self.a.place(stat), **self.b.place(stat)}

    def state_dict(self) -> dict:
        return _compose_state(self.a, self.b)

    def load_state(self, state: dict) -> None:
        _load_compose_state(self.a, self.b, state)

    def describe(self) -> str:
        return f"({self.a.describe()} & {self.b.describe()})"


class OrPolicy(SchedulingPolicy):
    """Either policy ready; selections union (stable order); weights max."""

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

    def weight(self, record: "TaskResultRecord", stat: StatTable) -> float:
        return max(self.a.weight(record, stat), self.b.weight(record, stat))

    def place(self, stat: StatTable) -> dict[int, int]:
        return {**self.a.place(stat), **self.b.place(stat)}

    def state_dict(self) -> dict:
        return _compose_state(self.a, self.b)

    def load_state(self, state: dict) -> None:
        _load_compose_state(self.a, self.b, state)

    def describe(self) -> str:
        return f"({self.a.describe()} | {self.b.describe()})"


def _compose_state(a: SchedulingPolicy, b: SchedulingPolicy) -> dict:
    """Child states of a composed policy, omitted when both are empty."""
    sa, sb = a.state_dict(), b.state_dict()
    if not sa and not sb:
        return {}
    return {"a": sa, "b": sb}


def _load_compose_state(
    a: SchedulingPolicy, b: SchedulingPolicy, state: dict
) -> None:
    if state.get("a"):
        a.load_state(state["a"])
    if state.get("b"):
        b.load_state(state["b"])


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
    """Algorithm 2's bounded-availability rule: need ⌊β·P⌋ free workers."""

    def __init__(self, beta: float) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.beta = beta

    def ready(self, stat: StatTable) -> bool:
        need = max(1, math.floor(self.beta * len(stat)))
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
# Policies exercising the select / weight / place hooks.
# ---------------------------------------------------------------------------

@register_policy("ssp_partition", aliases=("pssp",))
class PartitionSSP(SchedulingPolicy):
    """SSP over *partition* staleness (``ready`` hook).

    Worker-level SSP bounds the lag of whole-worker reductions; at
    partition granularity one slow partition can hide behind its worker's
    other tasks. This variant stalls dispatch while any in-flight
    partition-granular task is ``threshold`` or more model updates
    behind, bounding staleness at the grain federated/Hogwild rules
    consume.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = _staleness_bound(threshold, "PartitionSSP")

    def ready(self, stat: StatTable) -> bool:
        return (
            stat.num_available >= 1
            and stat.max_partition_staleness < self.threshold
        )

    def describe(self) -> str:
        return f"PartitionSSP(s={self.threshold})"


@register_policy("ct_partition", aliases=("completion_time_partition",))
class PartitionCompletionFilter(SchedulingPolicy):
    """Per-partition completion-time filtering (``select`` hook).

    Partition targets whose average task completion time exceeds
    ``ratio`` x the median over partitions *with history* are withheld
    from dispatch; partitions with no completed tasks yet are always
    admitted. Worker-granular targets pass through unfiltered (worker
    rows are the classic ``ct`` barrier's job).

    ``ratio`` must be >= 1: at-or-below-median partitions then always
    pass, so the filter can never empty an idle cluster's selection (a
    sub-1 ratio could withhold *every* historied partition and kill the
    run with a SchedulerError once nothing is in flight).
    """

    def __init__(self, ratio: float = 2.0) -> None:
        if not 1 <= ratio < math.inf:
            raise ValueError("ratio must be finite and >= 1")
        self.ratio = ratio

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        admitted = super().select(stat, candidates)
        median = stat.median_partition_completion_ms()
        if median <= 0:
            return admitted
        cutoff = self.ratio * median
        # One masked reduction over the partition columns; a partition is
        # withheld iff its row exists, has history, and exceeds the cutoff
        # (exactly the per-row test the loop form applied).
        cols = stat.partition_arrays()
        withheld = set(cols.ids[
            (cols.tasks_completed > 0) & (cols.avg_completion_ms > cutoff)
        ].tolist())
        if not withheld:
            return admitted
        return [
            t for t in admitted
            if t.kind != "partition" or t.id not in withheld
        ]

    def describe(self) -> str:
        return f"PartitionCompletionFilter(ratio={self.ratio})"


@register_policy("sample", aliases=("client_sampling",))
class ClientSampling(SchedulingPolicy):
    """FedAvg-style client sampling (``select`` hook).

    Each round dispatches to a random subset of the admissible targets —
    ``max(1, round(fraction * n))`` of them — instead of all. At
    partition granularity the targets are partitions-as-clients (the
    federated setting); at worker granularity it samples workers.

    ``mode="uniform"`` draws uniformly; ``mode="balance"`` weights each
    target inversely to how many tasks its STAT row has completed, so
    under-sampled clients catch up (a cheap proxy for weighted client
    sampling). Draws come from a private generator seeded by ``seed``
    (the spec layer injects the experiment's seed), so runs are
    reproducible.
    """

    def __init__(
        self, fraction: float, seed: int = 0, mode: str = "uniform"
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if mode not in ("uniform", "balance"):
            raise ValueError("mode must be 'uniform' or 'balance'")
        self.fraction = fraction
        self.seed = seed
        self.mode = mode
        self._rng = spawn_generator(seed, "client_sampling", mode)

    def _row(self, stat: StatTable, t: Target):
        if t.kind == "partition":
            return stat.partitions.get(t.id)
        return stat[t.worker]

    def select(self, stat: StatTable, candidates: list[Target]) -> list[Target]:
        admitted = super().select(stat, candidates)
        n = len(admitted)
        take = max(1, round(self.fraction * n))
        if n <= 1 or take >= n:
            return admitted
        probs = None
        if self.mode == "balance":
            counts = np.array([
                getattr(self._row(stat, t), "tasks_completed", 0) or 0
                for t in admitted
            ], dtype=np.float64)
            inv = 1.0 / (1.0 + counts)
            probs = inv / inv.sum()
        idx = self._rng.choice(n, size=take, replace=False, p=probs)
        idx.sort()  # keep dispatch order
        return [admitted[i] for i in idx]

    def state_dict(self) -> dict:
        # The BitGenerator state is a JSON-safe dict of named integers;
        # restoring it continues the draw sequence exactly where the
        # checkpointed run left off.
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        if "rng" in state:
            self._rng.bit_generator.state = state["rng"]

    def describe(self) -> str:
        return f"ClientSampling(fraction={self.fraction}, mode={self.mode})"


@register_policy("fedasync")
class StalenessWeighting(SchedulingPolicy):
    """Staleness-discounted contribution weighting (``weight`` hook).

    FedAsync-style discount functions of a result's staleness ``s``:

    - ``const`` — 1 (no discount),
    - ``poly`` — ``(1 + s) ** -a``,
    - ``hinge`` — 1 while ``s <= b``, then ``1 / (a * (s - b) + 1)``.

    ``mixing`` scales the whole weight (FedAsync's server mixing rate).
    Gradient-step rules multiply their step size by the weight; federated
    slot averaging blends ``weight`` of the incoming client model with
    ``1 - weight`` of the previous slot. Usually composed with an
    admission policy, e.g. ``"asp & fedasync:poly"`` — alone it admits
    like ASP.
    """

    def __init__(
        self,
        strategy: str = "poly",
        a: float = 0.5,
        b: float = 4.0,
        mixing: float = 1.0,
    ) -> None:
        if strategy not in ("const", "poly", "hinge"):
            raise ValueError("strategy must be 'const', 'poly' or 'hinge'")
        if not (0 <= a < math.inf and 0 <= b < math.inf):
            raise ValueError("a and b must be finite and non-negative")
        if not 0.0 < mixing <= 1.0:
            raise ValueError("mixing must be in (0, 1]")
        self.strategy = strategy
        self.a = a
        self.b = b
        self.mixing = mixing

    def weight(self, record: "TaskResultRecord", stat: StatTable) -> float:
        s = max(record.staleness, 0)
        if self.strategy == "poly":
            discount = (1.0 + s) ** (-self.a)
        elif self.strategy == "hinge":
            discount = 1.0 if s <= self.b else 1.0 / (self.a * (s - self.b) + 1.0)
        else:
            discount = 1.0
        return self.mixing * discount

    def describe(self) -> str:
        return f"StalenessWeighting({self.strategy}, a={self.a})"


@register_policy("migrate")
class MigrateSlow(SchedulingPolicy):
    """Partition migration off chronically slow workers (``place`` hook).

    A worker is *chronically slow* once it has at least ``min_history``
    completed tasks and its average completion time exceeds the
    threshold: a numeric ``threshold`` means ``threshold x`` the median
    over workers with history, the string form ``"pNN"`` means the NN-th
    percentile of those averages. Each round, up to ``max_moves`` of the
    hottest partitions (largest per-partition ``avg_completion_ms``)
    resident on slow workers are reassigned to the fastest acceptable
    worker; a moved partition is then left alone for ``cooldown``
    consecutive rounds so load shifts settle instead of thrashing.
    Requires partition-granular dispatch (partition rows carry the heat
    data); at worker granularity it never moves anything.
    """

    def __init__(
        self,
        threshold: float | str = 2.0,
        min_history: int = 3,
        max_moves: int = 1,
        cooldown: int = 8,
    ) -> None:
        self.percentile: float | None = None
        if isinstance(threshold, str):
            if not threshold.startswith("p"):
                raise ValueError(
                    "string threshold must look like 'p95' (a percentile)"
                )
            self.percentile = float(threshold[1:])
            if not 0.0 < self.percentile < 100.0:
                raise ValueError("percentile must be in (0, 100)")
        elif not 1.0 < threshold < math.inf:
            raise ValueError("ratio threshold must be finite and > 1")
        self.threshold = threshold
        if min_history < 1:
            raise ValueError("min_history must be >= 1")
        if max_moves < 1:
            raise ValueError("max_moves must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.min_history = min_history
        self.max_moves = max_moves
        self.cooldown = cooldown
        self._round = 0
        #: partition -> round of its last accepted-for-proposal move.
        self._moved_at: dict[int, int] = {}

    def place(self, stat: StatTable) -> dict[int, int]:
        self._round += 1
        wa = stat.worker_arrays()
        seasoned = np.flatnonzero(
            wa.alive & (wa.tasks_completed >= self.min_history)
        )
        if len(seasoned) < 2 or not stat.partitions:
            return {}
        avgs = wa.avg_completion_ms[seasoned]
        if self.percentile is not None:
            cutoff = float(np.percentile(avgs, self.percentile))
        else:
            cutoff = float(self.threshold) * float(np.median(avgs))
        slow = seasoned[avgs > cutoff]
        if slow.size == 0:
            return {}
        fast = seasoned[avgs <= cutoff]
        if fast.size == 0:
            return {}
        fast_avgs = avgs[avgs <= cutoff]
        # min over (avg_completion_ms, worker_id): lexsort keys are
        # listed minor-to-major, so ids break average ties.
        dest = int(fast[np.lexsort((fast, fast_avgs))[0]])
        pa = stat.partition_arrays()
        heat = np.flatnonzero(np.isin(pa.owner, slow) & (pa.tasks_completed > 0))
        hot = sorted(
            (
                (-float(pa.avg_completion_ms[i]), int(pa.ids[i]))
                for i in heat.tolist()
                if self._round - self._moved_at.get(int(pa.ids[i]), -10**9)
                > self.cooldown
            ),
        )
        moves = {pid: dest for _, pid in hot[: self.max_moves]}
        for p in moves:
            self._moved_at[p] = self._round
        return moves

    def state_dict(self) -> dict:
        return {
            "round": self._round,
            "moved_at": {str(p): r for p, r in self._moved_at.items()},
        }

    def load_state(self, state: dict) -> None:
        self._round = int(state.get("round", 0))
        self._moved_at = {
            int(p): int(r) for p, r in state.get("moved_at", {}).items()
        }

    def describe(self) -> str:
        return f"MigrateSlow(threshold={self.threshold})"


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


def parse_policy(
    text: str, *, defaults: Mapping[str, Any] | None = None
) -> SchedulingPolicy:
    """Parse the composed string form: ``"ssp:4 & sample:0.3 | bsp"``.

    Terms are registry spellings (``"name"`` / ``"name:arg"``); ``&``
    binds tighter than ``|``; there are no parentheses (compose in Python
    for anything deeper). A single term is exactly ``POLICIES.create``.
    """
    def term(token: str) -> SchedulingPolicy:
        token = token.strip()
        if not token:
            raise ApiError(f"empty term in policy expression {text!r}")
        return POLICIES.create(
            token, defaults=defaults, expect=SchedulingPolicy
        )

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


def resolve_policy(
    spec: Any, *, defaults: Mapping[str, Any] | None = None
) -> SchedulingPolicy:
    """Build a policy from any spec spelling the declarative layer allows.

    Accepts a built policy (pass-through), a bare predicate, a registry
    string — including ``&``/``|`` composition — or a dict with a
    ``"name"`` key. ``defaults`` are context values (``seed``,
    ``num_workers``) injected into factories that accept them.
    """
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str) and ("&" in spec or "|" in spec):
        return parse_policy(spec, defaults=defaults)
    if isinstance(spec, (str, Mapping)):
        return POLICIES.create(
            spec, defaults=defaults, expect=SchedulingPolicy
        )
    return as_policy(spec)
