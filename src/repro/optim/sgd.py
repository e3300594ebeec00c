"""Synchronous mini-batch SGD (Algorithm 1): ASGD's rule in BSP rounds.

Each round: broadcast ``w``, run one gradient task per partition (sample
a ``b`` fraction of the partition's rows, return the gradient sum and
count), wait for all of them, sum in partition order, take one step.
This is the Spark/MLlib execution model: the iteration time is the
*slowest* worker's time, which is exactly why stragglers hurt (Figures
3-8, "Sync" lines). The mathematics is :class:`~repro.optim.asgd.
ASGDRule`'s; :class:`~repro.optim.loop.BulkSynchronous` supplies the
rounds.
"""

from __future__ import annotations

from repro.api.registry import register_optimizer
from repro.optim.asgd import ASGDRule
from repro.optim.loop import BulkSynchronous

__all__ = ["SGDRule"]


@register_optimizer("sgd")
class SGDRule(BulkSynchronous, ASGDRule):
    """Bulk-synchronous distributed mini-batch SGD."""
