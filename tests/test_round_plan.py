"""The compiled round plan: parity with the RDD verbs, liveness, call budget.

Every optimizer round is ``points.async_barrier(policy).sample(b, seed)
.map(kernel).async_reduce(reduce)``. The server loop no longer builds
that chain per round; it submits the rule's :class:`~repro.core.ops.
RoundPlan`, resolved once per run at ``UpdateRule.bind``. These tests
pin that the two are the same computation (bit for bit), that a worker
task holds about one chunk of rows at a time, that a kernel error still
fails the run loudly, and that the per-update interpreter work stays
under a ceiling.
"""

import cProfile
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.core.policies import ASP
from repro.core.context import ASYNCContext
from repro.core.ops import RoundPlan
from repro.data.blocks import STREAM_CHUNK_BYTES, Batch
from repro.data.registry import get_dataset
from repro.engine.context import ClusterContext
from repro.errors import TaskError
from repro.optim import build_optimizer
from repro.optim.asgd import ASGDRule
from repro.optim.base import OptimizerConfig
from repro.optim.loop import ServerLoop
from repro.optim.problems import LeastSquaresProblem, LogisticRegressionProblem
from repro.optim.stepsize import InvSqrtDecay

BASE_SPEC = {
    "algorithm": "asgd",
    "dataset": "synth_logistic",
    "problem": "logistic",
    "num_workers": 8,
    "num_partitions": 8,
    "max_updates": 400,
    "eval_every": 100,
    "seed": 0,
}

# Final models of BASE_SPEC under ASP and BSP (seed 0): sha1 of ``w``'s
# bytes and ``F(w)``. Unchanged from before per-round lineage construction
# was replaced by the plan until TRAJECTORY_EPOCH 2's mini-batch draw,
# where they were re-recorded. The trajectory only; ``F(w) - F*`` would
# also pin the last bits of the reference optimum's solver.
ASP_DIGEST = ("e02205c6c4399ce706563cbe95f8ac746b78089e", 0.5602980038163021)
BSP_DIGEST = ("85065e5619cc1cf4b646897ad325bc47557e4cfe", 0.5598939356312318)


PLAN_SUBMIT = RoundPlan.submit


def verb_chain_submit(self, handle, seed):
    """A sampling ``RoundPlan.submit`` spelled with the public RDD verbs.

    ``sample`` gathers each mini-batch; the kernel reads it as a
    :class:`Batch` of all its rows, which streams the same chunks of the
    same rows as the plan's selection of the source block. The chain
    ends in ``async_reduce``, itself a plan that does not sample, which
    runs as it is."""
    if self.fraction is None:
        return PLAN_SUBMIT(self, handle, seed)
    return (
        self.source.async_barrier(self.policy, self.ac.stat)
        .sample(self.fraction, seed=seed)
        .map(lambda sub: self.kernel(
            Batch(sub, np.arange(sub.rows)), handle, seed
        ))
        .async_reduce(self.reduce, self.ac, self.granularity)
    )


def fingerprint(result) -> dict:
    """Everything a run leaves behind, whole ``TaskMetrics`` rows
    included: a run reads no wall clock."""
    return {
        "w": hashlib.sha1(np.ascontiguousarray(result.w).tobytes()).hexdigest(),
        "snapshots": [s.tobytes() for s in result.trace.snapshots],
        "times_ms": result.trace.times_ms,
        "trace_updates": result.trace.updates,
        "updates": result.updates,
        "rounds": result.rounds,
        "elapsed_ms": result.elapsed_ms,
        "metrics": list(result.metrics),
        "extras": json.dumps(result.extras, sort_keys=True, default=repr),
    }


def run_spec(spec):
    prep = prepare_experiment(spec)
    return prep, prep.execute()


# -- (a) parity with the verb chain ------------------------------------------

SIM_CASES = {
    "asp-worker": {},
    "bsp-worker": {"policy": "bsp"},
    "bsp-partition": {
        "policy": "bsp", "granularity": "partition", "num_partitions": 16,
    },
    "ssp-two-partitions-per-worker": {
        "policy": "ssp:3", "num_partitions": 16, "delay": "cds:0.6",
    },
    "topk-worker": {"policy": "bsp", "compressor": "topk:0.1"},
    "topk-partition": {
        "compressor": {"name": "topk", "fraction": 0.1},
        "granularity": "partition", "num_partitions": 16,
    },
    "ct-partition": {
        "policy": "ct:1.5", "granularity": "partition",
        "num_workers": 4, "delay": "cds:1.0",
    },
    "kill-revive": {
        "policy": "bsp", "num_partitions": 16,
        "fault_plan": "kill:w2@10ms,revive:w2@20ms",
    },
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_plan_matches_verb_chain_sim(case, monkeypatch):
    spec = dict(BASE_SPEC, max_updates=160, eval_every=40, **SIM_CASES[case])
    _, planned = run_spec(spec)
    monkeypatch.setattr(RoundPlan, "submit", verb_chain_submit)
    _, chained = run_spec(spec)
    assert fingerprint(planned) == fingerprint(chained)
    if case == "kill-revive":
        # The kill dropped w2's cached blocks mid-run and lost in-flight
        # work; after the revive its partitions recompute from lineage.
        assert planned.extras["lost_tasks"] > 0
        assert planned.extras["fault_events"] == 2
        assert any(m.worker_id == 2 and m.finished_ms > 20.0
                   for m in planned.metrics)


def model_digest(prep, result) -> tuple[str, float]:
    w = np.ascontiguousarray(result.w)
    return hashlib.sha1(w.tobytes()).hexdigest(), prep.problem.objective(w)


def test_plan_lands_on_the_pinned_digests():
    assert model_digest(*run_spec(BASE_SPEC)) == ASP_DIGEST
    assert model_digest(*run_spec(dict(BASE_SPEC, policy="bsp"))) == BSP_DIGEST


# -- loud failure --------------------------------------------------------------

class BrokenKernel(ASGDRule):
    def kernel(self, block, handle, seed):
        raise ZeroDivisionError("kernel exploded")


def test_kernel_error_reaches_the_driver_as_task_error():
    X, y, _ = get_dataset("synth_logistic", seed=0)
    problem = LogisticRegressionProblem(X, y)
    with ClusterContext(2) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        opt = build_optimizer(
            "asgd", ctx, points, problem, InvSqrtDecay(0.5),
            OptimizerConfig(max_updates=10, seed=0),
        )
        with pytest.raises(TaskError) as raised:
            ServerLoop(opt, BrokenKernel()).run()
    assert isinstance(raised.value.cause, ZeroDivisionError)
    assert "kernel exploded" in str(raised.value)


# -- (b) liveness --------------------------------------------------------------

def test_worker_task_holds_one_gathered_sub_block_at_a_time():
    """A worker task over two partitions holds about one chunk of rows
    at a time: the kernel streams each mini-batch through the gradient
    ``STREAM_CHUNK_BYTES`` at a time instead of gathering a 1 MiB
    sub-block. (When tasks gathered whole batches, keeping one alive
    across the next gather doubled wall time on wide matrices: fresh
    pages faulted in instead of warm ones reused.)"""
    rows, dim, fraction = 4096, 256, 0.5
    rng = np.random.default_rng(0)
    X = rng.standard_normal((rows, dim))
    y = rng.standard_normal(rows)
    problem = LeastSquaresProblem(X, y)
    w = np.zeros(dim)
    seen = []

    def kernel(batch, handle, seed):
        seen.append(batch.rows)
        block = batch.block
        return (problem.grad_sum(block.X, block.y, w, batch.idx), batch.rows)

    with ClusterContext(1) as ctx:
        points = ctx.matrix(X, y, 2).cache()
        ac = ASYNCContext(ctx)
        plan = RoundPlan(
            points, ASP(), fraction, kernel,
            lambda a, b: (a[0] + b[0], a[1] + b[1]), ac,
        )
        plan.submit(None, 1)  # warm-up: fills the block cache
        ac.collect_all()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            plan.submit(None, 2)
            record = ac.collect_all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    sub_block_bytes = int(fraction * (rows // 2)) * (dim + 1) * 8
    assert seen == [rows // 4] * 4 and record.batch_size == 2
    assert sub_block_bytes > 4 * STREAM_CHUNK_BYTES
    assert peak - before < 1.5 * STREAM_CHUNK_BYTES


# -- (c) call budget -----------------------------------------------------------

#: Profile events (Python calls + C calls) per applied update on the runs
#: below. Dense: measured 317 when the plan landed (455 with per-round
#: lineage construction). Sparse (ASAGA on ``rcv1_like``, four CSR
#: mini-batches per worker task): measured 1186 with array-level
#: mini-batches, 4666 when every mini-batch, stored-version group and
#: product built scipy matrices. The lean task hop (heap entries ordered
#: in C, no closure or unused RNG stream per event, lock-free collect
#: fast path, one shared continuation) took them from 307.8 to 240.5
#: (dense) and from 1183.3 to 1065.2 (sparse). The ceilings are those
#: counts plus under 5%: room for numpy-version drift inside
#: ``Generator.choice`` and friends, not for new plumbing.
CALL_BUDGETS = {
    "dense": (BASE_SPEC, 250),
    "sparse": (dict(BASE_SPEC, algorithm="asaga", dataset="rcv1_like",
                    problem="least_squares", num_partitions=32), 1110),
}


@pytest.mark.parametrize("name", sorted(CALL_BUDGETS))
def test_interpreter_work_per_update_stays_under_the_ceiling(name):
    spec, ceiling = CALL_BUDGETS[name]
    prep = prepare_experiment(dict(spec, max_updates=200, eval_every=100))
    with prep.make_context() as ctx:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = prep.run_in(ctx)
        finally:
            profiler.disable()
    assert result.updates == 200
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls / result.updates <= ceiling
