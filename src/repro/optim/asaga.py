"""SAGA's two rules: ASAGA (Algorithm 4) and synchronous SAGA (Algorithm 3).

Both run the machinery of :mod:`repro.optim.saga`. In ASAGA each
available worker independently samples its local partitions, recomputes
historical gradients at the model versions its task names by id (the
ASYNCbroadcaster means only ids travel), and the server applies one SAGA
update per collected result. ``averageHistory`` and the table of stored
versions are maintained server-side, as in the paper's Algorithm 4.

The driver is the shared :class:`repro.optim.loop.ServerLoop`:
:class:`ASAGARule`, registered as ``"asaga"``, contributes SAGA's
history bookkeeping, and :class:`SAGARule` (``"saga"``) runs the same
rule in bulk-synchronous rounds — every partition, then one update.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_optimizer
from repro.errors import OptimError
from repro.optim.loop import BulkSynchronous, UpdateRule
from repro.optim.reducers import add_triples
from repro.optim.saga import (
    BroadcastMode,
    SagaState,
    initialize_history,
    saga_partition_kernel,
)

__all__ = ["ASAGARule", "SAGARule"]


@register_optimizer("asaga")
class ASAGARule(UpdateRule):
    """SAGA mathematics on the async driver: history handles + avg table.

    The server state (``averageHistory`` and the per-row table of stored
    versions) lives in :class:`~repro.optim.saga.SagaState`; HIST holds
    the model versions workers read by id. The table is addressed by
    global row, so ``bind`` refuses blocks that do not tile the rows in
    partition order (as :func:`~repro.data.blocks.split_matrix` does).
    """

    #: Historical convention: ASAGA's first sampling round used seed index 1.
    seed_offset = 1
    uses_history = True

    def __init__(self, mode: BroadcastMode = "history") -> None:
        self.mode = mode

    def bind(self, loop):
        super().bind(loop)
        points, rows = self.opt.points, 0
        for split in range(points.num_partitions):
            block = points.block(split)
            if block.offset != rows:
                raise OptimError(
                    f"partition {split} starts at row offset {block.offset}"
                    f", not {rows}: SAGA's version table needs blocks that "
                    "tile the rows in order (split_matrix builds them)"
                )
            rows += block.rows
        # SAGA publishes through the run's broadcaster: its channels live
        # in the run's HIST store (accounting), and COMM prices its
        # model channel.
        self.state = SagaState(
            self.opt.ctx, self.opt.problem, self.mode, loop.ac.broadcaster
        )

    def setup(self, w):
        # Synchronous initialization pass (phi_j = w), shared with SAGA;
        # on a restored run ``w`` is the restored iterate.
        initialize_history(self.opt, self.state, w)

    def publish(self, w):
        return self.state.publish(w)

    def kernel(self, block, handle, seed):
        return saga_partition_kernel(
            self.opt.problem,
            block,
            handle,
            self.state.versions,
            self.opt.config.batch_fraction,
            seed,
        )

    reduce = staticmethod(add_triples)

    def apply(self, w, record, alpha):
        g_new, g_old, count = record.value
        if count == 0:
            return None
        return self.state.apply_update(
            w, alpha, g_new, g_old, count, self.opt.n_total
        )

    def algorithm_label(self):
        return f"{self.opt.name}[{self.mode}]"

    def extras(self):
        return {
            "mode": self.mode,
            "naive_broadcast_bytes": self.state.naive_broadcast_bytes,
            "avg_hist_norm": float(np.linalg.norm(self.state.avg_hist)),
        }


@register_optimizer("saga")
class SAGARule(BulkSynchronous, ASAGARule):
    """Bulk-synchronous SAGA with pluggable broadcast strategy."""
