"""Convergence comparison: time-to-target errors and speedups.

The paper's headline numbers ("up to 2x with one controlled straggler,
up to 4x under production straggler patterns") are time-to-equal-error
ratios between synchronous and asynchronous runs. Given two traces, the
fair target is an error level *both* runs actually reach; the speedup is
the ratio of the first times they reach it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import OptimError

if TYPE_CHECKING:  # pragma: no cover
    from repro.optim.problems import Problem
    from repro.optim.trace import ConvergenceTrace

__all__ = ["speedup_at_target", "common_target"]


def common_target(
    a: "ConvergenceTrace",
    b: "ConvergenceTrace",
    problem: "Problem",
    slack: float = 1.05,
) -> float:
    """An error level both traces reach: the worse of the two best errors,
    relaxed by ``slack`` to absorb evaluation granularity."""
    best_a = a.best_error(problem)
    best_b = b.best_error(problem)
    target = max(best_a, best_b) * slack
    if not math.isfinite(target) or target <= 0:
        raise OptimError("traces never produced a positive finite error")
    return target


def speedup_at_target(
    sync_trace: "ConvergenceTrace",
    async_trace: "ConvergenceTrace",
    problem: "Problem",
    target: float | None = None,
) -> float:
    """``t_sync / t_async`` to reach the (common) target error.

    > 1 means the asynchronous run got there faster. Returns ``inf`` if
    only the async run reached the target, 0.0 if only the sync run did.
    """
    if target is None:
        target = common_target(sync_trace, async_trace, problem)
    t_sync = sync_trace.time_to_error(problem, target)
    t_async = async_trace.time_to_error(problem, target)
    if math.isinf(t_async) and math.isinf(t_sync):
        raise OptimError(f"neither trace reached error {target}")
    if math.isinf(t_async):
        return 0.0
    if math.isinf(t_sync):
        return math.inf
    if t_async <= 0:
        return math.inf
    return t_sync / t_async
