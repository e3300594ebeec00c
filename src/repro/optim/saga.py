"""SAGA machinery shared by ``saga`` and ``asaga``: two broadcast strategies.

The paper's SAGA variant stores, for every sample, the *model parameter
version* at which its gradient was last evaluated; workers recompute
historical gradients on demand. That makes the broadcast strategy the
whole story:

- ``mode="history"`` — the ASYNCbroadcaster ships each model version once;
  tasks reference old versions by id and workers serve them from their
  local cache (Algorithm 4's mechanism, usable synchronously too —
  "applicable to both synchronous and asynchronous algorithms").
- ``mode="naive"`` — what plain Spark forces (Algorithm 3): every
  iteration re-broadcasts the entire table of stored parameters, whose
  size grows with the iteration count. This mode exists to reproduce the
  overhead the paper measures, not to be used.

Update rule (standard SAGA, which the paper's loose pseudocode intends):

    g      = (1/|S|) sum_{s in S} grad f_s(w)
    h      = (1/|S|) sum_{s in S} grad f_s(phi_s)
    w     <- w - alpha (g - h + A + lam w)
    A     <- A + (1/n) sum_{s in S} (grad f_s(w) - grad f_s(phi_s))

where ``A`` is the running average of stored per-sample gradients and
``phi_s`` the stored parameter version for sample ``s``. The two rules,
``ASAGARule`` and its bulk-synchronous ``SAGARule``, live in
:mod:`repro.optim.asaga`.
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np

from repro.core.broadcaster import AsyncBroadcaster
from repro.data.blocks import Batch, MatrixBlock, gather_rows
from repro.engine.taskcontext import current_env
from repro.errors import OptimError
from repro.optim.base import DistributedOptimizer
from repro.optim.problems import Problem
from repro.utils.sizeof import sizeof_bytes

__all__ = [
    "SagaState",
    "saga_partition_kernel",
    "initialize_history",
]

BroadcastMode = Literal["history", "naive"]


class _NaiveHandle:
    """Parameter resolver that ships the whole history table (expensive).

    The driver broadcasts a dict {version: w} containing *every* version
    so far; each worker's first read per iteration fetches the entire,
    ever-growing payload — Spark's cost model for Algorithm 3. It reads
    like a :class:`~repro.core.broadcaster.HistoryBroadcast`
    (``value``/``value_at``), so one kernel serves both modes.
    """

    def __init__(self, bc, version: int) -> None:
        self._bc = bc
        self.version = version

    def value(self, env) -> np.ndarray:
        return self._bc.value(env)[self.version]

    def value_at(self, version: int, env) -> np.ndarray:
        return self._bc.value(env)[int(version)]


class SagaState:
    """Driver-side SAGA state, shared by the sync and async variants.

    The server's own state lives here:

    - ``avg_hist`` — Algorithm 4 line 8's ``averageHistory`` (``A``), a
      plain array advanced by :meth:`apply_update`,
    - ``floors`` — per block, the lowest model version the block's rows
      may still read (``None`` when nothing prunes: naive mode, or a run
      without a COMM manager); :meth:`publish` prunes the model channel
      below their minimum.

    HIST keeps only what workers read by id, in the run's
    coordinator-owned :class:`~repro.core.history.HistoryStore`: the
    ``saga`` channel of broadcast model versions (``keep="all"``: a
    worker re-reads any ``phi_s`` version by id) and, in naive mode,
    ``saga/table``, the ever-growing parameter table. No run snapshot
    holds any HIST: a restore reruns the setup pass at the restored
    iterate (:func:`initialize_history`), which is an exact SAGA state.

    Channel names are *process-stable*: fixed, never derived from a
    per-process counter, so runs in two processes (e.g. two fabric
    workers) keep channels that match by name. Per-run isolation comes
    from each run owning its store (and its backend's worker envs), not
    from unique tags.
    """

    def __init__(
        self,
        ctx,
        problem: Problem,
        mode: BroadcastMode,
        broadcaster: AsyncBroadcaster,
    ) -> None:
        if mode not in ("history", "naive"):
            raise OptimError(f"unknown SAGA broadcast mode {mode!r}")
        self.ctx = ctx
        self.problem = problem
        self.mode = mode
        #: The run's broadcaster and the HIST store it serves; its COMM
        #: manager prices and delta-encodes the model channel.
        self.broadcaster = broadcaster
        self.channel = "saga"
        self.avg_hist = np.zeros(problem.dim)
        prunes = mode == "history" and broadcaster.comm is not None
        self.floors: dict[int, int] | None = {} if prunes else None
        self._naive = (
            broadcaster.store.channel(f"{self.channel}/table", keep="all")
            if mode == "naive" else None
        )
        self.naive_broadcast_bytes = 0

    def publish(self, w: np.ndarray):
        """Publish the current model; returns the handle kernels read it
        through (``value(env)`` / ``value_at(version, env)``)."""
        if self.mode == "history":
            hb = self.broadcaster.broadcast(np.array(w, copy=True), self.channel)
            if self.floors:
                # No block reads below its floor again.
                hb.channel.prune_below(min(self.floors.values()))
            return hb
        version = self._naive.append(np.array(w, copy=True))
        table = {v: self._naive.get(v) for v in self._naive.versions()}
        bc = self.ctx.broadcast(table)
        self.naive_broadcast_bytes += sizeof_bytes(table)
        return _NaiveHandle(bc, version)

    def versions_key(self, block_id: int) -> tuple:
        return ("saga_ver", self.channel, block_id)

    def apply_update(
        self, w: np.ndarray, alpha: float, g_new: np.ndarray,
        g_old: np.ndarray, count: int, n_total: int,
    ) -> np.ndarray:
        """One SAGA step; advances ``avg_hist`` and returns the new ``w``."""
        if count <= 0:
            return w
        lam = self.problem.lam
        diff = g_new - g_old
        innovation = diff / count
        delta = diff / n_total
        avg = self.avg_hist
        direction = innovation + avg
        if lam:
            direction = direction + lam * w
        w = w - alpha * direction
        self.avg_hist = avg + delta
        return w


def saga_partition_kernel(
    problem: Problem,
    block: MatrixBlock,
    handle: Any,
    state_key: tuple,
    floors: dict[int, int] | None,
    batch_fraction: float,
    sample_seed: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Worker-side SAGA kernel for one source partition.

    Samples a mini-batch, gathers it once, evaluates fresh gradients at
    the current model and historical gradients at each row's stored
    version (one :meth:`Problem.grad_sum_grouped` call over the batch,
    whatever the number of distinct versions), then advances the rows'
    stored versions and, when ``floors`` is kept, raises the block's
    prune floor to their minimum. Returns ``(grad_new_sum,
    grad_old_sum, batch_size)``.
    """
    env = current_env()
    versions = None if env is None else env.get(state_key)
    if versions is None:
        # First touch (or recovery after worker loss): everything is at
        # version 0 — the initial full pass pinned phi_j = w_0.
        versions = np.zeros(block.rows, dtype=np.int64)
        if env is not None:
            env.put(state_key, versions)

    idx = block.sample_indices(
        batch_fraction, sample_seed, "saga-batch", block.block_id
    )
    X, y = gather_rows(block.X, idx), block.y[idx]

    g_new = problem.grad_sum(X, y, handle.value(env))

    # Historical gradients: every row at its own stored version, fetched
    # in ascending version order, in one grouped pass over the batch.
    row_versions = versions[idx]
    # ``np.unique``, spelled without its lazy ``numpy.ma`` import.
    ordered = np.sort(row_versions)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    ws = [handle.value_at(v, env) for v in distinct]
    group = distinct.searchsorted(row_versions)  # return_inverse, 2x cheaper
    g_old = problem.grad_sum_grouped(X, y, ws, group)

    versions[idx] = handle.version
    if floors is not None:
        # This block never again reads a version below its rows' minimum.
        floors[block.block_id] = max(floors[block.block_id], int(versions.min()))
    if env is not None:  # two passes over the batch: fresh + historical
        env.pending_cost_units += 2.0 * Batch(block, idx).cost_units()
    return g_new, g_old, len(idx)


def initialize_history(
    opt: DistributedOptimizer, state: SagaState, w: np.ndarray
) -> None:
    """Full synchronous pass pinning phi_j = w and A = grad F(w).

    This is Algorithm 3's line 2 ("store w in table"): every sample's
    stored version becomes version 0, and the running average of stored
    gradients is the full gradient at ``w`` — ``w_0`` on a fresh run,
    the restored iterate on a resumed one. Shared by SAGA and ASAGA.
    """
    problem = opt.problem
    floors = state.floors
    handle = state.publish(w)  # version 0: a restore keeps no SAGA channel

    def full_grad(split: int, data: list):
        block = data[0]
        env = current_env()
        key = state.versions_key(block.block_id)
        env.put(key, np.zeros(block.rows, dtype=np.int64))
        if floors is not None:
            # Every block holds a floor before any rises: the prune floor
            # is their minimum, so a block without one could have its
            # phi-versions pruned out from under it.
            floors[block.block_id] = 0
        env.pending_cost_units += block.cost_units()
        return problem.grad_sum(block.X, block.y, handle.value(env))

    parts = opt.ctx.run_job(opt.points, full_grad)
    state.avg_hist = sum(parts) / opt.n_total
