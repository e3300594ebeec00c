"""Consensus ADMM — synchronous and asynchronous variants.

The paper's related work singles out ADMM as "a well-known method for
distributed optimization ... extended to support asynchrony" [70, 8, 26].
This module implements consensus-form ADMM for the library's problems on
the same engine, demonstrating that ASYNC's primitives cover algorithm
families beyond stochastic gradients.

Consensus ADMM for ``min sum_i f_i(x)``:

    x_i <- argmin_x  f_i(x) + (rho/2) ||x - z + u_i||^2      (worker i)
    z   <- mean_i (x_i + u_i)                                 (server)
    u_i <- u_i + x_i - z                                      (worker i)

For least squares, each worker's x-update is a linear solve whose matrix
``(2 A_i^T A_i + rho I)`` never changes — workers factorize it once and
*cache the factorization in their block store*, a worker-local-state
pattern the ASYNC design makes natural (same mechanism as SAGA's version
tables).

The asynchronous variant (``aadmm``) applies the server update per
received worker result with a running partial consensus (Zhang & Kwok
[70] style): stale ``x_i + u_i`` contributions simply overwrite that
worker's slot. The synchronous one (``admm``) solves every partition
each round and sets ``z`` to the mean of all of them.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.api.registry import register_optimizer
from repro.core.ops import find_barrier
from repro.data.blocks import MatrixBlock
from repro.engine.taskcontext import current_env, record_cost, task_env
from repro.errors import OptimError
from repro.optim.base import bc_value
from repro.optim.loop import BulkSynchronous, UpdateRule
from repro.optim.problems import LeastSquaresProblem

__all__ = ["ADMMRule", "BulkADMMRule"]


def _solve_local(block: MatrixBlock, rho: float, rhs: np.ndarray,
                 cache_key: tuple) -> np.ndarray:
    """Solve ``(2 A_i^T A_i + rho I) x = 2 A_i^T b_i + rho * rhs``.

    The Cholesky factor is computed on first use and cached in the
    worker's block store; subsequent iterations only do triangular
    solves. ``rhs`` is ``z - u_i``.
    """
    # Only ADMM factorises: scipy.linalg stays out of ``import repro``.
    from scipy import linalg as sp_linalg

    env = current_env()
    cached = env.get(cache_key)
    if cached is None:
        A, b = block.X, block.y
        if sparse.issparse(A):
            gram = (2.0 * (A.T @ A)).toarray()
        else:
            gram = 2.0 * (A.T @ A)
        gram = gram + rho * np.eye(block.dim)
        chol = sp_linalg.cho_factor(gram)
        atb = 2.0 * np.asarray(A.T @ b).ravel()
        cached = (chol, atb)
        env.put(cache_key, cached)
        # Factorization is a d^3 event; charge it once.
        record_cost(block.dim * 2.0)
    chol, atb = cached
    record_cost(block.rows)
    return sp_linalg.cho_solve(chol, atb + rho * rhs)


def _admm_tasks(points, rho: float, z_br):
    """Task factory: one worker's x- and u-updates over ``splits``.

    Local duals u_i live in the worker's store; the task returns the
    sum of ``x_i + u_i`` contributions plus their count. It runs under
    ``task_env(env)``, so the local solver caches its factorization in
    that store and reports its cost. Worker-env keys carry a fixed
    ``"admm"`` tag, not an id()/counter: each run's backend owns fresh
    worker envs, so it cannot collide across runs, and a restored run in
    a new process derives the same keys.
    """

    def make_fn(worker_id: int, splits: list[int]):
        def fn(env):
            with task_env(env):
                z = bc_value(z_br)
                total = np.zeros_like(z)
                count = 0
                for split in splits:
                    block = points.iterator(split, env)[0]
                    u_key = ("admm_u", "admm", split)
                    u = env.get(u_key)
                    if u is None:
                        u = np.zeros_like(z)
                    x = _solve_local(
                        block, rho, z - u, ("admm_chol", "admm", split)
                    )
                    u = u + x - z
                    env.put(u_key, u)
                    total += x + u
                    count += 1
                return total, count

        return fn

    return make_fn


@register_optimizer("aadmm")
class ADMMRule(UpdateRule):
    """Asynchronous consensus ADMM: per-worker slot updates, no step schedule.

    The server keeps one slot per partition holding its latest
    ``x_i + u_i``; each received result overwrites its slots and refreshes
    ``z`` as the slot mean — stale contributions fade as workers resubmit.
    ADMM dispatches *worker-level* tasks (each worker solves its local
    subproblems and returns one summed contribution), so the rule replaces
    the default block-level ``dispatch`` with a direct scheduler round.
    """

    needs_alpha = False  # the z-update is a mean, not a gradient step

    def __init__(self, rho: float = 1.0) -> None:
        if rho <= 0:
            raise OptimError("rho must be positive")
        self.rho = rho

    def bind(self, loop):
        problem = loop.opt.problem
        if not isinstance(problem, LeastSquaresProblem):
            raise OptimError(
                "ADMM's closed-form local solver supports least squares; "
                f"got {type(problem).__name__}"
            )
        super().bind(loop)
        opt = self.opt
        self.num_parts = opt.points.num_partitions
        # Server-side slots: latest (x_i + u_i) per partition.
        self.slots = np.zeros((self.num_parts, opt.problem.dim))

    def publish(self, z):
        return self.opt.ctx.broadcast(np.array(z, copy=True))

    def dispatch(self, handle, seed):
        opt, ac, policy = self.opt, self.loop.ac, self.loop.policy
        gated = opt.points.async_barrier(policy, ac.stat)
        # Dispatch one locally-reducing ADMM task per eligible worker.
        ac.scheduler.submit_round(
            gated, _admm_tasks(opt.points, self.rho, handle),
            find_barrier(gated) or policy,
        )

    def apply(self, z, record, alpha):
        # The scheduler unpacks the task's (value, count) contract:
        # value is the summed x_i + u_i, batch_size the partitions.
        total = record.value
        count = record.batch_size
        if count == 0:
            return None
        my_parts = self.opt.ctx.partitions_of(record.worker_id, self.num_parts)
        # The task summed its partitions' contributions; spread the
        # mean into each owned slot (they share a worker anyway).
        self.slots[my_parts] = total / count
        return self.slots.mean(axis=0)

    def extras(self):
        return {"rho": self.rho}


@register_optimizer("admm")
class BulkADMMRule(BulkSynchronous, ADMMRule):
    """Bulk-synchronous consensus ADMM: every partition solves each
    round, then ``z`` is the mean of all ``x_i + u_i``."""

    def dispatch(self, handle, seed):
        self.loop.ac.scheduler.run_sync_round(
            self.num_parts, _admm_tasks(self.opt.points, self.rho, handle)
        )

    def apply_round(self, z, record):
        return record.value / record.batch_size
