"""Step-size schedules, including staleness-adaptive modulation.

``alpha(t, staleness)`` is evaluated per model update. ``t`` starts at 1.
The MLlib-compatible schedule is ``a / sqrt(t)`` (Section 6.1: "the
initial step size is reduced by a factor of 1/sqrt(t) in iteration t");
the paper's asynchronous heuristic divides the synchronous initial step by
the number of workers (``scaled_for_async``); Listing 1's
staleness-dependent technique divides by the result's staleness.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.api.registry import STEPS, register_step
from repro.errors import OptimError

__all__ = [
    "StepSchedule",
    "ConstantStep",
    "InvSqrtDecay",
    "StalenessScaled",
]


class StepSchedule(ABC):
    """Learning-rate policy ``alpha(t, staleness)``."""

    @abstractmethod
    def alpha(self, t: int, staleness: int = 0) -> float:
        """Step size for update ``t`` (1-based)."""

    def scaled(self, factor: float) -> "StepSchedule":
        """A copy of this schedule with the base step multiplied."""
        return _Scaled(self, factor)

    def scaled_for_async(self, num_workers: int) -> "StepSchedule":
        """The paper's heuristic: divide the sync step by the worker count."""
        if num_workers <= 0:
            raise OptimError("num_workers must be positive")
        return self.scaled(1.0 / num_workers)

    def describe(self) -> str:
        return type(self).__name__


@register_step("constant")
class ConstantStep(StepSchedule):
    """Fixed step (the paper's SAGA tuning)."""

    def __init__(self, a: float) -> None:
        if not 0 < a < math.inf:
            raise OptimError("step size must be positive and finite")
        self.a = a

    def alpha(self, t: int, staleness: int = 0) -> float:
        return self.a

    def describe(self) -> str:
        return f"Constant(a={self.a})"


@register_step("inv_sqrt")
class InvSqrtDecay(StepSchedule):
    """MLlib's ``a / sqrt(t)`` decay (the paper's SGD tuning)."""

    def __init__(self, a: float) -> None:
        if not 0 < a < math.inf:
            raise OptimError("step size must be positive and finite")
        self.a = a

    def alpha(self, t: int, staleness: int = 0) -> float:
        if t < 1:
            raise OptimError("update index t must be >= 1")
        return self.a / math.sqrt(t)

    def describe(self) -> str:
        return f"InvSqrt(a={self.a})"


class StalenessScaled(StepSchedule):
    """Listing 1: weight each update by ``1 / max(1, staleness)``.

    Wraps any base schedule; the staleness-dependent learning-rate
    modulation of Zhang et al. [72] that the paper demonstrates.
    """

    def __init__(self, inner: StepSchedule) -> None:
        self.inner = inner

    def alpha(self, t: int, staleness: int = 0) -> float:
        if staleness < 0:
            raise OptimError("staleness must be >= 0")
        return self.inner.alpha(t, staleness) / max(1, staleness)

    def describe(self) -> str:
        return f"StalenessScaled({self.inner.describe()})"


class _Scaled(StepSchedule):
    def __init__(self, inner: StepSchedule, factor: float) -> None:
        if factor <= 0:
            raise OptimError("scale factor must be positive")
        self.inner = inner
        self.factor = factor

    def alpha(self, t: int, staleness: int = 0) -> float:
        return self.factor * self.inner.alpha(t, staleness)

    def describe(self) -> str:
        return f"{self.inner.describe()} x {self.factor:g}"


# -- spec-layer wrapper factories --------------------------------------------------
# Wrapper schedules compose: their ``inner`` parameter is itself a step
# spec ("inv_sqrt:0.5", {"name": "inv_sqrt", "a": 1.0}, or an instance), so
# JSON specs can nest modulations the way code chains methods. Every
# wrapper accepts ``num_workers`` so the registry's context injection
# reaches nested specs (an inner "scaled_for_async" needs it even when
# the outer wrapper does not).

def _resolve(inner, num_workers: int | None = None) -> StepSchedule:
    defaults = {} if num_workers is None else {"num_workers": num_workers}
    return STEPS.create(inner, defaults=defaults, expect=StepSchedule)


@register_step("staleness_scaled")
def _staleness_scaled(inner, num_workers: int | None = None) -> StepSchedule:
    return StalenessScaled(_resolve(inner, num_workers))


@register_step("scaled")
def _scaled(inner, factor: float, num_workers: int | None = None) -> StepSchedule:
    return _resolve(inner, num_workers).scaled(factor)


@register_step("scaled_for_async")
def _scaled_for_async(inner, num_workers: int) -> StepSchedule:
    return _resolve(inner, num_workers).scaled_for_async(num_workers)
