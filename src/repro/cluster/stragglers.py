"""Straggler delay models.

The paper evaluates two regimes (Section 6.1):

- **Controlled Delay Straggler (CDS)**: one worker out of 8 is slowed by a
  delay intensity in {0%, 30%, 60%, 100%}; "a 100% delay means the worker
  is executing jobs at half speed", i.e. compute time is multiplied by
  ``1 + intensity``.
- **Production Cluster Stragglers (PCS)**: the empirical model from the
  Microsoft Bing / Google trace studies the paper cites: ~25% of machines
  are stragglers; of those, 80% are uniformly delayed to 150%-250% of the
  average task time and 20% are "long tail" workers delayed 250% up to
  10x. For 32 workers that is 6 uniform stragglers + 2 long-tail workers,
  exactly the counts the paper uses.

Delay factors multiply *compute* time only; communication is unaffected
(per the paper's observation about ASAGA's communication pattern).
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.api.registry import DELAY_MODELS, register_delay_model
from repro.errors import ApiError
from repro.utils.rng import RngFactory

__all__ = [
    "DelayModel",
    "NoDelay",
    "ControlledDelay",
    "ProductionCluster",
    "resolve_delay_model",
]


class DelayModel(ABC):
    """Multiplicative compute-time delay per (worker, task)."""

    @abstractmethod
    def factor(self, worker_id: int, task_seq: int) -> float:
        """Return the delay multiplier (>= 1.0) for a task on a worker."""

    def describe(self) -> str:
        return type(self).__name__


@register_delay_model("none")
class NoDelay(DelayModel):
    """Homogeneous cluster: every task runs at full speed."""

    def factor(self, worker_id: int, task_seq: int) -> float:
        return 1.0


@dataclass
class ControlledDelay(DelayModel):
    """CDS: fixed delay intensity applied to a designated set of workers.

    ``intensity`` follows the paper's convention: 1.0 ("100% delay") makes
    the worker run at half speed (factor 2.0).
    """

    intensity: float = 1.0
    workers: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        if not 0 <= self.intensity < math.inf:
            raise ValueError("intensity must be finite and >= 0")
        if not all(
            isinstance(w, numbers.Integral) and w >= 0 for w in self.workers
        ):
            raise ValueError(
                f"CDS workers must be whole numbers >= 0, got {self.workers!r}"
            )
        self._workers = frozenset(int(w) for w in self.workers)

    def factor(self, worker_id: int, task_seq: int) -> float:
        return 1.0 + self.intensity if worker_id in self._workers else 1.0

    def describe(self) -> str:
        return f"CDS(intensity={self.intensity:.0%}, workers={sorted(self._workers)})"


@register_delay_model("pcs")
@dataclass
class ProductionCluster(DelayModel):
    """PCS: production-cluster straggler mix.

    Which workers straggle is decided once at construction (seeded); each
    straggler task then samples its delay factor from the worker's band.
    The paper fixes the randomized delay seed across repetitions of the
    same experiment, which this reproduces via ``seed``.

    Parameters
    ----------
    num_workers: cluster size.
    seed: RNG seed fixing both the straggler assignment and per-task draws.
    straggler_fraction: fraction of machines that straggle (paper: 0.25).
    long_tail_fraction: fraction *of stragglers* that are long-tail (0.20).
    uniform_band: (lo, hi) delay factors for ordinary stragglers (1.5, 2.5).
    long_tail_band: (lo, hi) delay factors for long-tail workers (2.5, 10).
    """

    num_workers: int = 32
    seed: int = 0
    straggler_fraction: float = 0.25
    long_tail_fraction: float = 0.20
    uniform_band: tuple[float, float] = (1.5, 2.5)
    long_tail_band: tuple[float, float] = (2.5, 10.0)
    uniform_workers: frozenset[int] = field(init=False)
    long_tail_workers: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.num_workers < math.inf:
            raise ValueError("num_workers must be positive and finite")
        if not 0 <= self.straggler_fraction <= 1:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if not 0 <= self.long_tail_fraction <= 1:
            raise ValueError("long_tail_fraction must be in [0, 1]")
        self.uniform_band = _band("uniform_band", self.uniform_band)
        self.long_tail_band = _band("long_tail_band", self.long_tail_band)
        self._rngs = RngFactory(self.seed)
        assign_rng = self._rngs.get("pcs-assign")
        n_stragglers = int(round(self.straggler_fraction * self.num_workers))
        n_long = int(round(self.long_tail_fraction * n_stragglers))
        chosen = assign_rng.choice(
            self.num_workers, size=n_stragglers, replace=False
        )
        chosen = [int(w) for w in chosen]
        self.long_tail_workers = frozenset(chosen[:n_long])
        self.uniform_workers = frozenset(chosen[n_long:])

    def factor(self, worker_id: int, task_seq: int) -> float:
        if worker_id in self.long_tail_workers:
            lo, hi = self.long_tail_band
        elif worker_id in self.uniform_workers:
            lo, hi = self.uniform_band
        else:
            return 1.0
        rng = self._rngs.get("pcs-task", worker_id, task_seq)
        return float(rng.uniform(lo, hi))

    def describe(self) -> str:
        return (
            f"PCS(P={self.num_workers}, uniform={sorted(self.uniform_workers)}, "
            f"long_tail={sorted(self.long_tail_workers)})"
        )


def _band(name: str, band: object) -> tuple[float, float]:
    """A PCS ``(lo, hi)`` delay band: two finite numbers, 1 <= lo <= hi."""
    try:
        lo, hi = band  # type: ignore[misc]
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
            raise TypeError
        lo, hi = float(lo), float(hi)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not 1.0 <= lo <= hi < math.inf:
        raise ValueError(
            f"{name} must be two finite numbers with 1 <= lo <= hi, "
            f"got {band!r}"
        )
    return lo, hi


@register_delay_model("cds")
def _make_cds(intensity: float = 1.0, workers: Sequence[int] = (0,)) -> DelayModel:
    """Spec-layer CDS factory; zero intensity degenerates to ``NoDelay``
    (after the worker list is checked like any other)."""
    model = ControlledDelay(intensity, workers=tuple(workers))
    return NoDelay() if intensity == 0 else model


def resolve_delay_model(
    spec: object, *, num_workers: int, seed: int = 0
) -> DelayModel:
    """Resolve a spec's ``delay`` for a ``num_workers`` cluster.

    Names, ``name:arg`` tokens and dicts go through the ``DELAY_MODELS``
    registry with ``num_workers``/``seed`` injected where the model
    takes them; a CDS model may only slow workers the cluster has.
    """
    model = DELAY_MODELS.create(
        spec,
        defaults={"num_workers": num_workers, "seed": seed},
        expect=DelayModel,
    )
    if isinstance(model, ControlledDelay):
        missing = sorted(w for w in model._workers if w >= num_workers)
        if missing:
            raise ApiError(
                f"delay model slows worker(s) {missing}, which a "
                f"{num_workers}-worker cluster does not have"
            )
    return model


def delays_from_mapping(mapping: Mapping[int, float]) -> DelayModel:
    """Build a DelayModel from an explicit {worker: factor} mapping."""

    class _MappedDelay(DelayModel):
        def factor(self, worker_id: int, task_seq: int) -> float:
            return float(mapping.get(worker_id, 1.0))

        def describe(self) -> str:
            return f"Mapped({dict(mapping)})"

    return _MappedDelay()
