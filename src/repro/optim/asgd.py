"""Asynchronous mini-batch SGD (Algorithm 2) via the ASYNC layer.

Per round: the barrier decides whether/where to dispatch (ASP by default);
every available worker gets a task that samples its local partitions and
returns a locally-reduced gradient. The server applies one update per
collected result — fast workers keep streaming updates while stragglers
catch up, and stale results simply apply late (optionally down-weighted by
a staleness-adaptive step size, Listing 1).

Matching the paper's tuning heuristic, callers usually pass
``step.scaled_for_async(num_workers)`` — each result updates the model
alone rather than as part of a P-way average.

The driver itself lives in :class:`repro.optim.loop.ServerLoop`; this
module contributes only :class:`ASGDRule`, registered as ``"asgd"`` — the
canonical example of how little an asynchronous algorithm needs to
specify.
"""

from __future__ import annotations

from repro.api.registry import register_optimizer
# Unused here: kept importable by name because the frozen benchmark's
# test_asyncbench.py::test_wrappers_record_nesting_and_are_removed
# asserts the tracer patches this module's reference too.
from repro.data.blocks import stack_blocks  # noqa: F401
from repro.optim.base import bc_value
from repro.optim.loop import UpdateRule
from repro.optim.reducers import add_pairs

__all__ = ["ASGDRule"]


@register_optimizer("asgd")
class ASGDRule(UpdateRule):
    """ASGD mathematics: gradient partials in, one SGD step per result."""

    def publish(self, w):
        return self.opt.ctx.broadcast(w)

    def sample_fraction(self):
        return self.opt.config.batch_fraction

    def kernel(self, block, handle, seed):
        problem = self.opt.problem
        return (
            problem.grad_sum(block.X, block.y, bc_value(handle)),
            block.rows,
        )

    reduce = staticmethod(add_pairs)

    def apply(self, w, record, alpha):
        g_sum, count = record.value
        if count == 0:
            return None
        problem = self.opt.problem
        g = (g_sum + problem.reg_grad(w, count)) / count
        return w - alpha * g

