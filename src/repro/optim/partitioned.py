"""Partition-granular update rules: Hogwild-style SGD and federated averaging.

Both methods are only expressible when the schedulable/collectible unit
is a *data partition* rather than a whole worker reduction (ASAP-style
partial aggregation; see Kadav & Kruus, and the taxonomy of Assran et
al.): the server must see each partition's contribution individually,
tagged with its identity.

- :class:`HogwildRule` — lock-free-style SGD: every partition's gradient
  is applied to the model the moment it streams in, with staleness
  tracked per partition. At one partition per worker this coincides with
  ASGD; with more partitions than workers it interleaves finer-grained
  updates from the same machine.
- :class:`LocalSGDRule` — local SGD / federated averaging: each
  partition acts as a *client* that takes ``local_steps`` mini-batch SGD
  steps from the broadcast model on its own shard, ships its locally
  updated model back, and the server keeps one slot per partition,
  refreshing the global model as the row-weighted average of the latest
  local models ("average on collect", FedAvg-style with asynchronous
  client arrival).

Both plug into the shared :class:`repro.optim.loop.ServerLoop` and are
registered as rules with the declarative API (``"hogwild"``, ``"fedavg"``
/ ``"localsgd"``), so they are reachable from JSON specs and the CLI.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_optimizer
from repro.data.blocks import MatrixBlock
from repro.engine.taskcontext import record_cost
from repro.errors import OptimError
from repro.optim.asgd import ASGDRule
from repro.optim.base import bc_value
from repro.optim.loop import UpdateRule
from repro.utils.rng import spawn_generator

__all__ = ["HogwildRule", "LocalSGDRule"]


@register_optimizer("hogwild")
class HogwildRule(ASGDRule):
    """ASGD mathematics at partition granularity.

    Identical server update to ASGD — one gradient step per collected
    result — but each result is a single partition's gradient, applied
    immediately on arrival (no worker-local combine), so a fast partition
    never waits for a slow sibling on the same worker.
    """

    granularity = "partition"


@register_optimizer("fedavg", aliases=("localsgd",))
class LocalSGDRule(UpdateRule):
    """Federated averaging: ``local_steps`` of SGD per partition, slot
    average on collect.

    Server state is one model slot per partition, initialized at ``w0``.
    Each collected result overwrites its partition's slot with the
    client's locally updated model, and the new global model is the
    row-count-weighted average of all slots — partitions that have not
    reported yet contribute their last known model, so the average is
    always over the full data distribution.
    """

    granularity = "partition"
    needs_alpha = False  # the server update is an average, not a step

    def __init__(
        self,
        local_steps: int = 4,
        local_alpha: float | None = None,
    ) -> None:
        if local_steps < 1:
            raise OptimError("local_steps must be >= 1")
        self.local_steps = local_steps
        self.local_alpha = local_alpha

    def bind(self, loop):
        super().bind(loop)
        opt = self.opt
        points = opt.points
        self.num_parts = points.num_partitions
        self.row_weights = np.array(
            [points.block(p).rows for p in range(self.num_parts)],
            dtype=np.float64,
        )
        self.total_rows = float(self.row_weights.sum())
        # Client learning rate: explicit, or the schedule's initial value
        # (federated clients use a fixed step within a round).
        self._alpha_local = (
            self.local_alpha
            if self.local_alpha is not None
            else opt.step.alpha(1, 0)
        )
        self.slots: np.ndarray | None = None

    def setup(self, w):
        self.slots = np.tile(np.asarray(w, dtype=np.float64), (self.num_parts, 1))

    def publish(self, w):
        return self.opt.ctx.broadcast(np.array(w, copy=True))

    def sample_fraction(self):
        return None  # the kernel samples its own mini-batches locally

    def kernel(self, block: MatrixBlock, handle, seed: int):
        problem = self.opt.problem
        steps = self.local_steps
        alpha = self._alpha_local
        frac = self.opt.config.batch_fraction
        w_local = np.array(bc_value(handle), copy=True)
        n = block.rows
        if n == 0:
            return w_local, 0
        batch = max(1, int(round(frac * n)))
        rng = spawn_generator(seed, "localsgd", block.block_id)
        for _ in range(steps):
            idx = rng.choice(n, size=min(batch, n), replace=False)
            sub = block.take_rows(idx)
            g = (
                problem.grad_sum(sub.X, sub.y, w_local)
                + problem.reg_grad(w_local, len(idx))
            ) / len(idx)
            w_local -= alpha * g
        record_cost(steps * batch)
        return w_local, n

    def reduce(self, a, b):  # pragma: no cover - partition tasks never combine
        raise OptimError(
            "LocalSGDRule results are per-partition models and cannot be "
            "reduced; this rule requires granularity='partition'"
        )

    def apply(self, w, record, alpha):
        w_local, count = record.value
        if count == 0:
            return None
        if record.partition is None:
            raise OptimError(
                "LocalSGDRule received a worker-granular result; federated "
                "averaging requires granularity='partition'"
            )
        # Staleness-discounted slot averaging (FedAsync-style): a policy
        # ``weight`` hook < 1 blends the incoming client model with the
        # partition's previous slot instead of overwriting it, damping
        # stale client contributions. weight == 1.0 is the exact FedAvg
        # overwrite (bit-identical to the pre-policy behavior).
        wgt = min(record.weight, 1.0)
        if wgt >= 1.0:
            self.slots[record.partition] = w_local
        else:
            self.slots[record.partition] = (
                (1.0 - wgt) * self.slots[record.partition] + wgt * w_local
            )
        return (self.row_weights[:, None] * self.slots).sum(axis=0) / self.total_rows

    def algorithm_label(self):
        return f"{self.opt.name}[k={self.local_steps}]"

    def extras(self):
        return {
            "local_steps": self.local_steps,
            "local_alpha": float(self._alpha_local),
        }

