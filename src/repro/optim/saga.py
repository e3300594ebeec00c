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
from repro.core.history import HistoryStore
from repro.data.blocks import MatrixBlock
from repro.engine.taskcontext import current_env, record_cost
from repro.errors import OptimError
from repro.optim.base import DistributedOptimizer
from repro.optim.problems import Problem
from repro.utils.rng import spawn_generator
from repro.utils.sizeof import sizeof_bytes

__all__ = [
    "SagaState",
    "saga_partition_kernel",
    "initialize_history",
]

BroadcastMode = Literal["history", "naive"]


class _HistoryHandle:
    """Parameter resolver backed by the ASYNCbroadcaster (cheap)."""

    def __init__(self, hb) -> None:
        self._hb = hb
        self.version = hb.version

    def current(self) -> np.ndarray:
        return self._hb.value(current_env())

    def at(self, version: int) -> np.ndarray:
        return self._hb.value_at(version, current_env())

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

    def _table(self) -> dict[int, np.ndarray]:
        return self._bc.value(current_env())

    def current(self) -> np.ndarray:
        return self._table()[self.version]

    def at(self, version: int) -> np.ndarray:
        return self._table()[version]

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
    per-process counter, so a checkpointed ``run_state`` restores into a
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
        store: HistoryStore,
        comm=None,
    ) -> None:
        if mode not in ("history", "naive"):
            raise OptimError(f"unknown SAGA broadcast mode {mode!r}")
        self.ctx = ctx
        self.problem = problem
        self.mode = mode
        self.store = store
        self.channel = "saga"
        self._avg = self.store.channel(f"{self.channel}/avg_hist", keep="last:1")
        self._avg.append(np.zeros(problem.dim))
        self.broadcaster = AsyncBroadcaster(ctx, store=self.store)
        #: The run's CommManager: SAGA owns a private broadcaster (not
        #: the ASYNCContext's), so the ledger / delta / watermark-prune
        #: hooks must be threaded through explicitly.
        self.comm = comm
        self.broadcaster.comm = comm
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
        g_old: np.ndarray, count: int, n_total: int, weight: float = 1.0,
    ) -> np.ndarray:
        """One SAGA step; advances ``avg_hist`` and returns the new ``w``.

        ``weight`` (a scheduling policy's per-result contribution weight)
        damps the *innovation* — the fresh-minus-stored gradient
        difference — in both the step direction and the running-average
        update, while the historical average itself stays fully trusted.
        ``weight=1.0`` is bit-identical to unweighted SAGA.
        """
        if count <= 0:
            return w
        lam = self.problem.lam
        innovation = (g_new - g_old) / count
        if weight != 1.0:
            innovation = weight * innovation
        direction = innovation + self.avg_hist
        if lam:
            direction = direction + lam * w
        w = w - alpha * direction
        delta = (g_new - g_old) / n_total
        if weight != 1.0:
            delta = weight * delta
        self.avg_hist = self.avg_hist + delta
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

    Samples a mini-batch, evaluates fresh gradients at the current model
    and historical gradients at each row's stored version (vectorized per
    distinct version), then advances the rows' stored versions. Returns
    ``(grad_new_sum, grad_old_sum, batch_size)``.
    """
    env = current_env()
    versions = None if env is None else env.get(state_key)
    if versions is None:
        # First touch (or recovery after worker loss): everything is at
        # version 0 — the initial full pass pinned phi_j = w_0.
        versions = np.zeros(block.rows, dtype=np.int64)
        if env is not None:
            env.put(state_key, versions)

    rng = spawn_generator(sample_seed, "saga-batch", block.block_id)
    idx = block.sample_indices(batch_fraction, rng)
    idx = np.sort(idx)
    sub = block.take_rows(idx)

    w_cur = handle.current()
    g_new = problem.grad_sum(sub.X, sub.y, w_cur)

    # Historical gradients, one per distinct stored version, each over
    # its rows of the batch gathered above.
    g_old = np.zeros(problem.dim)
    row_versions = versions[idx]
    for v in np.unique(row_versions):
        part = sub.take_rows(np.flatnonzero(row_versions == v))
        w_v = handle.at(int(v))
        g_old = g_old + problem.grad_sum(part.X, part.y, w_v)

    versions[idx] = handle.version
    # This block will never again reference a version below its stored
    # minimum: report it so COMM can prune the keep="all" model channel
    # up to the floor across all blocks.
    handle.report_watermark(block.block_id, int(versions.min()))
    # SAGA does two gradient passes over the batch (fresh + historical).
    record_cost(2.0 * sub.cost_units())
    return g_new, g_old, int(len(idx))


def initialize_history(
    opt: DistributedOptimizer, state: SagaState, w: np.ndarray
) -> None:
    """Full synchronous pass pinning phi_j = w_0 and A = grad F(w_0).

    This is Algorithm 3's line 2 ("store w in table"): every sample's
    stored version becomes version 0, and the running average of stored
    gradients is the full gradient at w_0. Shared by SAGA and ASAGA.
    """
    problem = opt.problem
    handle = state.publish(w)
    if handle.version != 0:
        raise OptimError("history must start at version 0")

    def full_grad(split: int, data: list):
        block = data[0]
        env = current_env()
        if env is not None:
            env.put(
                state.versions_key(block.block_id),
                np.zeros(block.rows, dtype=np.int64),
            )
        if state.comm is not None:
            # Declare every block as a reader scope at version 0 before
            # any watermark advances: the prune floor is a min over
            # *registered* scopes, so an unregistered block could have
            # its phi-versions pruned out from under it.
            state.comm.register_scope(state.channel, block.block_id, 0)
        record_cost(block.cost_units())
        return problem.grad_sum(block.X, block.y, handle.current())

    parts = opt.ctx.run_job(opt.points, full_grad)
    state.avg_hist = sum(parts) / opt.n_total
