"""Asynchronous L-BFGS: curvature history harvested from stale results.

The longest-open ROADMAP item, and the payoff of the HIST subsystem:
quasi-Newton methods need a *bounded server-side history* of curvature
pairs ``(s, y)`` — exactly what a :class:`~repro.core.history.
HistoryChannel` with ``keep="last:k"`` provides. The method follows the
async quasi-Newton recipe surveyed by Assran et al. (2020) and the
semi-stochastic treatment of Zhang et al. (2016):

- Workers compute plain mini-batch gradients (the ASGD kernel — the
  server, not the workers, owns all curvature bookkeeping).
- The server harvests a candidate pair per applied result from its own
  consecutive iterates: ``s = w_t - w_prev``, ``y = g_t - g_prev``
  (stochastic gradients at those iterates).
- **Staleness-gated admission**: results older than
  ``max_pair_staleness`` model updates still take a gradient step but
  contribute no pair — stale differences encode curvature of a model the
  server has long since left.
- **Powell damping**: with ``B0 = I / gamma`` (the standard diagonal
  initialization), a candidate with ``s·y < c * s·B0·s`` is blended,
  ``y <- theta y + (1 - theta) B0 s``, keeping every admitted pair
  safely positive-curvature even though ``g_t`` and ``g_prev`` come from
  different mini-batches.
- Admitted pairs append to the ``lbfgs/pairs`` HIST channel
  (``keep="last:history_depth"``); the classic **two-loop recursion**
  over the retained pairs (oldest to newest) turns each collected
  gradient into a quasi-Newton step.

With ``history_depth=0`` the method degrades exactly to ASGD (no pairs,
identity metric) — which is what the ``ablation_history_depth`` figure
driver sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_optimizer
from repro.errors import OptimError
from repro.optim.base import bc_value
from repro.optim.loop import UpdateRule
from repro.optim.reducers import add_pairs

__all__ = ["AsyncLBFGSRule"]


@register_optimizer("async_lbfgs", aliases=("albfgs",))
class AsyncLBFGSRule(UpdateRule):
    """L-BFGS mathematics on the async driver: two-loop over HIST pairs."""

    uses_history = True

    def __init__(
        self,
        history_depth: int = 10,
        max_pair_staleness: int | None = None,
        damping: float = 0.2,
        pair_every: int | None = None,
        direction_clip: float = 25.0,
        gamma_max: float = 1e6,
    ) -> None:
        if history_depth < 0:
            raise OptimError("history_depth must be >= 0")
        if max_pair_staleness is not None and max_pair_staleness < 0:
            raise OptimError("max_pair_staleness must be >= 0")
        if not 0.0 < damping < 1.0:
            raise OptimError("damping must be in (0, 1)")
        if pair_every is not None and pair_every < 1:
            raise OptimError("pair_every must be >= 1")
        if direction_clip <= 0:
            raise OptimError("direction_clip must be positive")
        self.history_depth = history_depth
        self.max_pair_staleness = max_pair_staleness
        self.damping = damping
        self.pair_every = pair_every
        self.direction_clip = direction_clip
        self.gamma_max = gamma_max
        self.pairs_admitted = 0
        self.pairs_damped = 0
        self.pairs_rejected_stale = 0
        self.pairs_rejected_curvature = 0

    def bind(self, loop):
        super().bind(loop)
        self.pairs = (
            self.history.channel(
                "lbfgs/pairs", keep=f"last:{self.history_depth}"
            )
            if self.history_depth > 0
            else None
        )
        if self.max_pair_staleness is None:
            # Default gate: one "pass" of lag — pairs from results no
            # older than the worker count still describe the current
            # neighborhood of the trajectory.
            self.max_pair_staleness = max(self.opt.ctx.num_workers, 1)
        if self.pair_every is None:
            # One pair per cluster-wide pass: spacing harvests apart
            # grows ||s|| (signal) while gradient averaging over the
            # interval shrinks the noise in y.
            self.pair_every = max(self.opt.ctx.num_workers, 1)
        self._prev: tuple[np.ndarray, np.ndarray] | None = None
        self._gamma = 1.0
        self._acc = np.zeros(self.opt.problem.dim)
        self._acc_n = 0

    # -- the ASGD transport: plain gradients in, curvature stays server-side --
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

    # -- curvature harvesting ----------------------------------------------------
    def _harvest(self, w, g, record) -> None:
        """Multi-batch pair harvesting from collected results.

        Admissible (fresh-enough) gradients accumulate into an interval
        average; every ``pair_every`` of them, one candidate pair is
        formed between the current and previous interval anchors:
        ``s`` spans the server's movement over the interval, ``y`` the
        change in the *averaged* stochastic gradient — the multi-batch
        construction that keeps curvature estimates above the mini-batch
        noise floor.
        """
        if self.pairs is None:
            return
        if record.staleness > self.max_pair_staleness:
            # Curvature of a model the server has long since left: no
            # contribution to the interval average.
            self.pairs_rejected_stale += 1
            return
        self._acc += g
        self._acc_n += 1
        if self._acc_n < self.pair_every:
            return
        g_avg = self._acc / self._acc_n
        self._acc = np.zeros_like(self._acc)
        self._acc_n = 0
        prev = self._prev
        self._prev = (w, g_avg)
        if prev is None:
            return
        s = w - prev[0]
        y = g_avg - prev[1]
        ss = float(s @ s)
        if ss <= 0.0 or not np.isfinite(ss):
            return
        sy = float(s @ y)
        # Powell damping against B0 = I / gamma.
        sBs = ss / self._gamma
        if sy < self.damping * sBs:
            theta = (1.0 - self.damping) * sBs / (sBs - sy)
            y = theta * y + (1.0 - theta) * (s / self._gamma)
            sy = float(s @ y)
            self.pairs_damped += 1
        if sy <= 1e-12 * ss or not np.isfinite(sy):
            self.pairs_rejected_curvature += 1
            return
        yy = float(y @ y)
        self._gamma = min(max(sy / yy, 1e-8), self.gamma_max)
        self.pairs.append((s, y, 1.0 / sy))
        self.pairs_admitted += 1

    def _direction(self, g: np.ndarray) -> np.ndarray:
        """Two-loop recursion: H @ g over the retained pairs.

        The result is trust-region capped at ``direction_clip`` gradient
        norms: noisy pairs on ill-conditioned (or unregularized, hence
        optimum-at-infinity) problems can legitimately amplify the
        gradient by orders of magnitude, and a constant-step server has
        no line search to absorb the overshoot.
        """
        pairs = self.pairs.values() if self.pairs is not None else []
        if not pairs:
            return g
        q = np.array(g, copy=True)
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        r = self._gamma * q
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(y @ r)
            r += (a - b) * s
        norm_r = float(np.linalg.norm(r))
        cap = self.direction_clip * float(np.linalg.norm(g))
        if norm_r > cap > 0.0:
            r *= cap / norm_r
        return r

    # -- server update -----------------------------------------------------------
    def apply(self, w, record, alpha):
        g_sum, count = record.value
        if count == 0:
            return None
        problem = self.opt.problem
        g = (g_sum + problem.reg_grad(w, count)) / count
        self._harvest(w, g, record)
        return w - alpha * self._direction(g)

    def algorithm_label(self):
        return f"{self.opt.name}[m={self.history_depth}]"

    def extras(self):
        return {
            "history_depth": self.history_depth,
            "max_pair_staleness": self.max_pair_staleness,
            "pair_every": self.pair_every,
            "pairs_admitted": self.pairs_admitted,
            "pairs_damped": self.pairs_damped,
            "pairs_rejected_stale": self.pairs_rejected_stale,
            "pairs_rejected_curvature": self.pairs_rejected_curvature,
            "pairs_retained": len(self.pairs) if self.pairs is not None else 0,
        }

