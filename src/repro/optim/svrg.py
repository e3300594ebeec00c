"""Epoch-based variance reduction (SVRG), sync and async inner loops.

Listing 3 of the paper: each epoch takes a synchronous full-gradient pass
(``mu = grad F(w_tilde)``) using the engine's BSP path, then runs inner
mini-batch iterations with the variance-reduced direction

    g = (1/|S|) sum_s [grad f_s(w) - grad f_s(w_tilde)] + mu

— synchronously (SyncSVRG) or through the ASYNC layer (ASVRGRule,
registered as ``"asvrg"``), where asynchronous updates happen *between*
the epoch barriers. This is the class of algorithms [29, 56, 71] the
paper says ASYNC supports by mixing its async primitives with Spark's
synchronous reductions. The async
variant demonstrates :class:`repro.optim.loop.ServerLoop`'s epoch hooks:
``begin_epoch`` drains in-flight work and takes the synchronous pass;
both variants share :func:`_full_gradient` and :func:`_vr_direction`.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_optimizer
from repro.data.blocks import MatrixBlock
from repro.engine.taskcontext import record_cost
from repro.errors import OptimError
from repro.optim.base import DistributedOptimizer, RunResult, bc_value
from repro.optim.loop import UpdateRule
from repro.optim.problems import Problem
from repro.optim.reducers import add_vr_pairs
from repro.optim.trace import ConvergenceTrace

__all__ = ["SyncSVRG", "ASVRGRule"]


def _checked_inner_iterations(inner_iterations: int) -> int:
    if inner_iterations <= 0:
        raise OptimError("inner_iterations must be positive")
    return inner_iterations


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


def _vr_direction(
    problem: Problem, g_new, g_old, count, mu, w, w_tilde,
    weight: float = 1.0,
):
    """The variance-reduced direction around the anchor ``w_tilde``."""
    innovation = (g_new - g_old) / count
    if weight != 1.0:
        # Weight-aware variance reduction: a discounted (stale)
        # result contributes less innovation; as weight -> 0 the
        # direction falls back to the trusted anchor gradient mu.
        innovation = weight * innovation
    g = innovation + mu
    # mu already contains the regularizer gradient at w_tilde; correct
    # it to the current iterate (deterministic, never discounted).
    if problem.lam:
        g = g + problem.lam * (w - w_tilde)
    return g


@register_optimizer("svrg")
class SyncSVRG(DistributedOptimizer):
    """Synchronous SVRG (Johnson & Zhang) on the BSP path."""

    name = "svrg"
    uses_history = True

    def __init__(self, *args, inner_iterations: int = 10, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.inner_iterations = _checked_inner_iterations(inner_iterations)

    def run(self) -> RunResult:
        cfg = self.config
        problem = self.problem
        w = problem.initial_point()
        trace = ConvergenceTrace()
        trace.record(self.ctx.now(), 0, w)
        metrics_start = len(self.ctx.dispatcher.metrics_log)

        updates = 0
        epoch = 0
        while not self._should_stop(updates):
            w_tilde = np.array(w, copy=True)
            mu = _full_gradient(self, w_tilde)
            wt_br = self.ctx.broadcast(w_tilde)
            epoch += 1
            for _ in range(self.inner_iterations):
                if self._should_stop(updates):
                    break
                w_br = self.ctx.broadcast(w)
                batch = self.points.sample(
                    cfg.batch_fraction, seed=self._round_seed(updates + 1)
                )

                def task(split: int, data: list, _w=w_br, _wt=wt_br):
                    g_sum = None
                    h_sum = None
                    count = 0
                    for block in data:
                        g = problem.grad_sum(block.X, block.y, bc_value(_w))
                        h = problem.grad_sum(block.X, block.y, bc_value(_wt))
                        record_cost(block.cost_units())
                        g_sum = g if g_sum is None else g_sum + g
                        h_sum = h if h_sum is None else h_sum + h
                        count += block.rows
                    return (g_sum, h_sum), count

                parts = self.ctx.run_job(batch, task)
                g_new = sum(p[0][0] for p in parts if p[0][0] is not None)
                g_old = sum(p[0][1] for p in parts if p[0][1] is not None)
                count = sum(p[1] for p in parts)
                updates += 1
                g = _vr_direction(problem, g_new, g_old, count, mu, w, w_tilde)
                w = w - self.step.alpha(updates) * g
                if updates % cfg.eval_every == 0:
                    trace.record(self.ctx.now(), updates, w)
                w_br.destroy()

        if trace.updates[-1] != updates:
            trace.record(self.ctx.now(), updates, w)
        return RunResult(
            w=w, trace=trace, updates=updates, elapsed_ms=self.ctx.now(),
            rounds=epoch, algorithm=self.name,
            metrics=self._metrics_window(metrics_start),
            extras={"epochs": epoch},
        )


@register_optimizer("asvrg")
class ASVRGRule(UpdateRule):
    """SVRG's inner loop as an update rule; epochs via ``begin_epoch``.

    The epoch anchor ``w_tilde`` and its full gradient ``mu`` live in
    bounded HIST channels (``svrg/anchor``, ``svrg/mu``; ``keep=
    "last:1"`` — only the current epoch's anchor is ever read), so epoch
    state shares the run's history accounting and checkpoint surface.
    The rule is weight-aware: a policy ``weight`` hook damps the
    variance-reduction innovation, not the whole step.
    """

    seed_offset = 1
    weight_aware = True
    uses_history = True

    def __init__(self, inner_iterations: int = 10) -> None:
        self.epoch_length = _checked_inner_iterations(inner_iterations)
        self.epochs = 0

    def bind(self, loop):
        super().bind(loop)
        self.anchor_channel = self.history.channel("svrg/anchor", keep="last:1")
        self.mu_channel = self.history.channel("svrg/mu", keep="last:1")

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

    def kernel(self, block, handle, seed):
        # Second gradient pass (at w_tilde) costs another sweep over the
        # batch.
        problem = self.opt.problem
        record_cost(block.cost_units())
        return (
            (
                problem.grad_sum(block.X, block.y, bc_value(handle)),
                problem.grad_sum(block.X, block.y, bc_value(self.wt_br)),
            ),
            block.rows,
        )

    reduce = staticmethod(add_vr_pairs)

    def apply(self, w, record, alpha):
        (g_sum, h_sum), count = record.value
        if count == 0:
            return None
        g = _vr_direction(
            self.opt.problem, g_sum, h_sum, count, self.mu_channel.latest(),
            w, self.w_tilde, weight=record.weight,
        )
        return w - alpha * g

    def extras(self):
        return {"epochs": self.epochs}

