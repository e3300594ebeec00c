"""Epoch-based variance reduction (SVRG), sync and async inner loops.

Listing 3 of the paper: each epoch takes a synchronous full-gradient pass
(``mu = grad F(w_tilde)``) using the engine's BSP path, then runs inner
mini-batch iterations with the variance-reduced direction

    g = (1/|S|) sum_s [grad f_s(w) - grad f_s(w_tilde)] + mu

— through the ASYNC layer (ASVRGRule, registered as ``"asvrg"``), where
asynchronous updates happen *between* the epoch barriers, or in
bulk-synchronous rounds (SVRGRule, ``"svrg"``: the same rule with
:class:`~repro.optim.loop.BulkSynchronous` mixed in). This is the class
of algorithms [29, 56, 71] the paper says ASYNC supports by mixing its
async primitives with Spark's synchronous reductions. The rule
demonstrates :class:`repro.optim.loop.ServerLoop`'s epoch hooks:
``begin_epoch`` drains in-flight work and takes the synchronous pass
(:func:`_full_gradient`). ``RunResult.rounds`` counts inner rounds;
``extras["epochs"]`` counts epochs.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_optimizer
from repro.core.history import require_like
from repro.data.blocks import MatrixBlock
from repro.engine.taskcontext import record_cost
from repro.errors import OptimError
from repro.optim.base import DistributedOptimizer, bc_value
from repro.optim.loop import BulkSynchronous, UpdateRule
from repro.optim.reducers import add_vr_pairs

__all__ = ["ASVRGRule", "SVRGRule"]


def _full_gradient(opt: DistributedOptimizer, w: np.ndarray) -> np.ndarray:
    """The epoch anchor's full gradient ``mu``: one synchronous pass."""
    problem = opt.problem
    w_br = opt.ctx.broadcast(np.array(w, copy=True))

    def task(split: int, data: list):
        block: MatrixBlock = data[0]
        record_cost(block.cost_units())
        return problem.grad_sum(block.X, block.y, bc_value(w_br))

    parts = opt.ctx.run_job(opt.points, task)
    mu = sum(parts) / opt.n_total
    if problem.lam:
        mu = mu + problem.lam * w
    return mu


@register_optimizer("asvrg")
class ASVRGRule(UpdateRule):
    """SVRG's inner loop as an update rule; epochs via ``begin_epoch``.

    The epoch anchor ``w_tilde`` and its full gradient ``mu`` live in
    bounded HIST channels (``svrg/anchor``, ``svrg/mu``; ``keep=
    "last:1"`` — only the current epoch's anchor is ever read), so epoch
    state shares the run's history accounting and checkpoint surface.
    """

    seed_offset = 1
    uses_history = True

    def __init__(self, inner_iterations: int = 10) -> None:
        if inner_iterations <= 0:
            raise OptimError("inner_iterations must be positive")
        self.epoch_length = inner_iterations
        self.epochs = 0

    def bind(self, loop):
        super().bind(loop)
        self.anchor_channel = self.history.channel("svrg/anchor", keep="last:1")
        self.mu_channel = self.history.channel("svrg/mu", keep="last:1")

    def setup(self, w):
        if self.loop.epoch_rounds_left:
            # Restored mid-epoch: the inner rounds continue around the
            # snapshot's anchor and full gradient, each like the model.
            for ch in (self.anchor_channel, self.mu_channel):
                where = f"snapshot channel '{ch.name}'"
                require_like(ch.latest(), w, where, "this run's model is")
            self.w_tilde = self.anchor_channel.latest()
            self.wt_br = self.opt.ctx.broadcast(self.w_tilde)

    def begin_epoch(self, w):
        # Epoch barrier: wait out in-flight inner tasks, then the
        # synchronous full-gradient reduction.
        opt, ac = self.opt, self.loop.ac
        ac.wait_all()
        ac.drain()
        self.anchor_channel.append(np.array(w, copy=True))
        self.w_tilde = self.anchor_channel.latest()
        self.mu_channel.append(_full_gradient(opt, self.w_tilde))
        self.wt_br = opt.ctx.broadcast(self.w_tilde)
        self.epochs += 1

    def publish(self, w):
        return self.opt.ctx.broadcast(w)

    def sample_fraction(self):
        return self.opt.config.batch_fraction

    def kernel(self, batch, handle, seed):
        # Second gradient pass (at w_tilde) costs another sweep over the
        # batch.
        problem = self.opt.problem
        record_cost(batch.cost_units())
        X, y, idx = batch.block.X, batch.block.y, batch.idx
        return (
            (
                problem.grad_sum(X, y, bc_value(handle), idx),
                problem.grad_sum(X, y, bc_value(self.wt_br), idx),
            ),
            batch.rows,
        )

    reduce = staticmethod(add_vr_pairs)

    def apply(self, w, record, alpha):
        (g_sum, h_sum), count = record.value
        if count == 0:
            return None
        # The variance-reduced direction around the anchor.
        g = (g_sum - h_sum) / count + self.mu_channel.latest()
        problem = self.opt.problem
        if problem.lam:
            # mu holds the regularizer gradient at w_tilde; correct it
            # to the current iterate.
            g = g + problem.lam * (w - self.w_tilde)
        return w - alpha * g

    def extras(self):
        return {"epochs": self.epochs}


@register_optimizer("svrg")
class SVRGRule(BulkSynchronous, ASVRGRule):
    """Synchronous SVRG (Johnson & Zhang): BSP inner rounds."""
