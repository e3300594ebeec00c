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


class _HistoryHandle:
    """Parameter resolver backed by the ASYNCbroadcaster (cheap): its
    ``current(env)``/``at(version, env)`` are the broadcast handle's own
    ``value``/``value_at``, bound, so a read makes no frame of its own."""

    def __init__(self, hb) -> None:
        self._hb = hb
        self.version = hb.version
        self.current = hb.value
        self.at = hb.value_at

    def report_watermark(self, scope: Any, version: int) -> None:
        """Feed COMM's HIST watermark (no-op without a comm manager)."""
        self._hb.report_watermark(scope, version)


class _NaiveHandle:
    """Parameter resolver that ships the whole history table (expensive).

    The driver broadcasts a dict {version: w} containing *every* version
    so far; each worker's first read per iteration fetches the entire,
    ever-growing payload — Spark's cost model for Algorithm 3.
    """

    def __init__(self, bc, version: int) -> None:
        self._bc = bc
        self.version = version

    def current(self, env) -> np.ndarray:
        return self._bc.value(env)[self.version]

    def at(self, version: int, env) -> np.ndarray:
        return self._bc.value(env)[int(version)]

    def report_watermark(self, scope: Any, version: int) -> None:
        """Naive mode ships the whole table anyway; nothing to prune."""


class SagaState:
    """Driver-side SAGA bookkeeping shared by the sync and async variants.

    All server-side history lives in HIST channels of the run's
    coordinator-owned :class:`~repro.core.history.HistoryStore`:

    - ``saga`` — the broadcast model versions (``keep="all"``:
      workers re-reference any ``phi_s`` version by id),
    - ``saga/avg_hist`` — Algorithm 4 line 8's ``averageHistory``
      (``keep="last:1"``: only the current running average matters),
    - ``saga/table`` — naive mode's ever-growing parameter table.

    Channel names are *process-stable*: fixed, never derived from a
    per-process counter, so a run snapshot's HIST channels restore into a
    fresh process — e.g. a fabric worker resuming another host's run —
    with channels that match by name. Per-run isolation comes from each
    run owning its store (and its backend's worker envs), not from
    unique tags.
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
        #: manager prices, delta-encodes and prunes the model channel.
        self.broadcaster = broadcaster
        self.store = broadcaster.store
        self.channel = "saga"
        self._avg = self.store.channel(f"{self.channel}/avg_hist", keep="last:1")
        self._avg.append(np.zeros(problem.dim))
        self._naive = (
            self.store.channel(f"{self.channel}/table", keep="all")
            if mode == "naive" else None
        )
        self.naive_broadcast_bytes = 0

    @property
    def avg_hist(self) -> np.ndarray:
        """The running average of stored per-sample gradients (``A``)."""
        return self._avg.latest()

    @avg_hist.setter
    def avg_hist(self, value: np.ndarray) -> None:
        self._avg.append(np.asarray(value, dtype=np.float64))

    def publish(self, w: np.ndarray):
        """Publish the current model; returns a resolver handle."""
        if self.mode == "history":
            hb = self.broadcaster.broadcast(np.array(w, copy=True), self.channel)
            return _HistoryHandle(hb)
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
    batch_fraction: float,
    sample_seed: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Worker-side SAGA kernel for one source partition.

    Samples a mini-batch, gathers it once, evaluates fresh gradients at
    the current model and historical gradients at each row's stored
    version (one :meth:`Problem.grad_sum_grouped` call over the batch,
    whatever the number of distinct versions), then advances the rows'
    stored versions. Returns ``(grad_new_sum, grad_old_sum, batch_size)``.
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

    g_new = problem.grad_sum(X, y, handle.current(env))

    # Historical gradients: every row at its own stored version, fetched
    # in ascending version order, in one grouped pass over the batch.
    row_versions = versions[idx]
    # ``np.unique``, spelled without its lazy ``numpy.ma`` import.
    ordered = np.sort(row_versions)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    ws = [handle.at(v, env) for v in distinct]
    group = distinct.searchsorted(row_versions)  # return_inverse, 2x cheaper
    g_old = problem.grad_sum_grouped(X, y, ws, group)

    versions[idx] = handle.version
    # This block will never again reference a version below its stored
    # minimum: report it so COMM can prune the keep="all" model channel
    # up to the floor across all blocks.
    handle.report_watermark(block.block_id, int(versions.min()))
    if env is not None:  # two passes over the batch: fresh + historical
        env.pending_cost_units += 2.0 * Batch(block, idx).cost_units()
    return g_new, g_old, len(idx)


def initialize_history(
    opt: DistributedOptimizer, state: SagaState, w: np.ndarray
) -> None:
    """Full synchronous pass pinning phi_j = w_0 and A = grad F(w_0).

    This is Algorithm 3's line 2 ("store w in table"): every sample's
    stored version becomes version 0, and the running average of stored
    gradients is the full gradient at w_0. Shared by SAGA and ASAGA.
    """
    problem = opt.problem
    comm = state.broadcaster.comm
    handle = state.publish(w)
    if handle.version != 0:
        raise OptimError("history must start at version 0")

    def full_grad(split: int, data: list):
        block = data[0]
        env = current_env()
        key = state.versions_key(block.block_id)
        env.put(key, np.zeros(block.rows, dtype=np.int64))
        if comm is not None:
            # Declare every block as a reader scope at version 0 before
            # any watermark advances: the prune floor is a min over
            # *registered* scopes, so an unregistered block could have
            # its phi-versions pruned out from under it.
            comm.register_scope(state.channel, block.block_id, 0)
        env.pending_cost_units += block.cost_units()
        return problem.grad_sum(block.X, block.y, handle.current(env))

    parts = opt.ctx.run_job(opt.points, full_grad)
    state.avg_hist = sum(parts) / opt.n_total
