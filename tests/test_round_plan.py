"""The compiled round plan: parity with the RDD verbs, liveness, call budget.

Every optimizer round is ``points.async_barrier(policy).sample(b, seed)
.map(kernel).async_reduce(reduce)``. ``UpdateRule.dispatch`` no longer
builds that chain per round; it submits a :class:`~repro.core.ops.
RoundPlan` resolved once per run. These tests pin that the two are the
same computation (bit for bit, on both backends), that a worker task
holds one gathered sub-block at a time, that a kernel error still fails
the run loudly, and that the per-update interpreter work stays under a
ceiling.
"""

import cProfile
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.cluster.threadbackend import ThreadBackend
from repro.core.policies import ASP
from repro.core.context import ASYNCContext
from repro.core.ops import RoundPlan
from repro.data.registry import get_dataset
from repro.engine.context import ClusterContext
from repro.errors import TaskError
from repro.optim import build_optimizer
from repro.optim.asgd import ASGDRule
from repro.optim.base import OptimizerConfig
from repro.optim.loop import ServerLoop
from repro.optim.problems import LogisticRegressionProblem
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

# Final errors of BASE_SPEC under ASP and BSP (seed 0), unchanged since
# before per-round lineage construction was replaced by the plan.
ASP_DIGEST = 0.08400468212181117
BSP_DIGEST = 0.08207986613239232


def verb_chain_dispatch(self, handle, seed):
    """``UpdateRule.dispatch`` spelled with the public RDD verbs."""
    loop = self.loop
    (
        self.opt.points.async_barrier(loop.policy, loop.ac.stat)
        .sample(self.sample_fraction(), seed=seed)
        .map(lambda block: self.kernel(block, handle, seed))
        .async_reduce(self.reduce, loop.ac, self.effective_granularity())
    )


def fingerprint(result) -> dict:
    """Everything deterministic a run leaves behind (host wall-clock
    fields excluded)."""
    rows = [
        {k: v for k, v in dataclasses.asdict(m).items() if k != "measured_ms"}
        for m in result.metrics
    ]
    return {
        "w": hashlib.sha1(np.ascontiguousarray(result.w).tobytes()).hexdigest(),
        "snapshots": [s.tobytes() for s in result.trace.snapshots],
        "times_ms": result.trace.times_ms,
        "trace_updates": result.trace.updates,
        "updates": result.updates,
        "rounds": result.rounds,
        "elapsed_ms": result.elapsed_ms,
        "metrics": rows,
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
    "migrate": {
        "policy": "migrate:1.5", "granularity": "partition",
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
    monkeypatch.setattr(ASGDRule, "dispatch", verb_chain_dispatch)
    _, chained = run_spec(spec)
    assert fingerprint(planned) == fingerprint(chained)
    if case == "migrate":
        assert planned.extras["migrations"] > 0
    if case == "kill-revive":
        # The kill dropped w2's cached blocks mid-run and lost in-flight
        # work; after the revive its partitions recompute from lineage.
        assert planned.extras["lost_tasks"] > 0
        assert planned.extras["fault_events"] == 2
        assert any(m.worker_id == 2 and m.finished_ms > 20.0
                   for m in planned.metrics)


def test_plan_lands_on_the_pinned_digests():
    prep, asp = run_spec(BASE_SPEC)
    assert asp.final_error(prep.problem) == ASP_DIGEST
    prep, bsp = run_spec(dict(BASE_SPEC, policy="bsp"))
    assert bsp.final_error(prep.problem) == BSP_DIGEST


def thread_run(granularity, num_partitions):
    """One worker thread with one task in flight at a time: wall-clock
    timing cannot reorder anything, so the run is deterministic."""
    X, y, _ = get_dataset("synth_logistic", seed=0)
    problem = LogisticRegressionProblem(X, y)
    with ClusterContext(1, backend=ThreadBackend(num_workers=1)) as ctx:
        points = ctx.matrix(X, y, num_partitions).cache()
        config = OptimizerConfig(
            batch_fraction=0.1, max_updates=40, eval_every=10, seed=0,
            granularity=granularity,
        )
        return build_optimizer(
            "asgd", ctx, points, problem, InvSqrtDecay(0.5), config, policy=ASP()
        ).run()


@pytest.mark.parametrize(
    "granularity, num_partitions", [("worker", 2), ("partition", 1)]
)
def test_plan_matches_verb_chain_thread(granularity, num_partitions, monkeypatch):
    planned = thread_run(granularity, num_partitions)
    monkeypatch.setattr(ASGDRule, "dispatch", verb_chain_dispatch)
    chained = thread_run(granularity, num_partitions)
    assert planned.updates == chained.updates == 40
    assert np.array_equal(planned.w, chained.w)
    assert planned.trace.updates == chained.trace.updates
    assert all(
        np.array_equal(a, b)
        for a, b in zip(planned.trace.snapshots, chained.trace.snapshots)
    )
    assert [m.out_bytes for m in planned.metrics] == [
        m.out_bytes for m in chained.metrics
    ]


# -- loud failure --------------------------------------------------------------

class BrokenKernel(ASGDRule):
    def kernel(self, block, handle, seed):
        raise ZeroDivisionError("kernel exploded")


@pytest.mark.parametrize("backend", ["sim", "thread"])
def test_kernel_error_reaches_the_driver_as_task_error(backend):
    X, y, _ = get_dataset("synth_logistic", seed=0)
    problem = LogisticRegressionProblem(X, y)
    chosen = ThreadBackend(num_workers=2) if backend == "thread" else None
    with ClusterContext(2, backend=chosen) as ctx:
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
    """A worker task over two partitions gathers, uses and drops each
    mini-batch before gathering the next. Keeping the previous sub-block
    alive across the next ``take_rows`` doubled wall time on wide
    matrices (fresh pages faulted in instead of warm ones reused)."""
    rows, dim, fraction = 4096, 256, 0.5
    rng = np.random.default_rng(0)
    X = rng.standard_normal((rows, dim))
    y = rng.standard_normal(rows)
    sub_block_bytes = int(fraction * (rows // 2)) * (dim + 1) * 8
    seen = []

    def kernel(block, handle, seed):
        seen.append(block.rows)
        return (block.X[0] * 1.0, block.rows)

    with ClusterContext(1, seed=0) as ctx:
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
    assert seen == [rows // 4] * 4 and record.batch_size == 2
    assert peak - before < 1.5 * sub_block_bytes


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
