"""Engine micro-benchmarks: substrate overheads in host time.

Unlike the figure benchmarks (which assert virtual-time shapes), these
measure the real Python cost of the engine's hot paths — useful to keep
the simulator fast enough for paper-scale sweeps.

Besides the pytest-benchmark cases, the module runs standalone and
writes a ``BENCH_engine.json`` record::

    PYTHONPATH=src python benchmarks/bench_engine_micro.py --out BENCH_engine.json

The standalone run measures events/sec, async tasks/sec, STAT aggregate
passes/sec against an embedded pre-columnar (row-loop) reference, and
the server's update-application rate per-record versus batched — each
"before" baseline is re-measured in the same run, so the recorded
speedups compare like with like on the current host. The ``e2e``
section is the gate: warm repeats of the pinned ``asgd`` spec, recorded
as median, quartiles and minimum (``benchmarks/asyncbench`` is where
the engine's numbers are tracked; this record feeds CI's floor and
ratchet).
"""

import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.cluster.events import EventQueue
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext


def test_event_queue_throughput(benchmark):
    def churn():
        q = EventQueue()
        for i in range(2000):
            q.push(float(i % 97), lambda: None)
        n = 0
        while q:
            q.pop()
            n += 1
        return n

    assert benchmark(churn) == 2000


def test_bsp_job_roundtrip_cost(benchmark):
    """Driver-side cost of one 32-task BSP job on 8 simulated workers."""
    with ClusterContext(8, seed=0) as ctx:
        rdd = ctx.parallelize(list(range(3200)), 32).cache()
        rdd.collect()  # warm cache

        def job():
            return sum(ctx.run_job(rdd, lambda s, d: sum(d)))

        total = benchmark(job)
        assert total == sum(range(3200))


def test_async_round_cost(benchmark):
    """One async submission round + drain on 8 simulated workers."""
    from repro.core import ASYNCContext

    with ClusterContext(8, seed=0) as ctx:
        rdd = ctx.parallelize(list(range(3200)), 32).cache()
        rdd.collect()
        ac = ASYNCContext(ctx)

        def round_trip():
            rdd.async_reduce(lambda a, b: a + b, ac)
            ac.wait_all()
            return sum(r.value for r in ac.drain())

        total = benchmark(round_trip)
        assert total == sum(range(3200))


def test_minibatch_gradient_task(benchmark):
    """Vectorized block-gradient kernel cost (the per-task payload)."""
    X, y, _ = make_dense_regression(4096, 96, seed=0)
    w = np.zeros(96)

    def grad():
        return X.T @ (X @ w - y)

    g = benchmark(grad)
    assert g.shape == (96,)


# ---------------------------------------------------------------------------
# Standalone mode: measure rates and write BENCH_engine.json
# ---------------------------------------------------------------------------

def _rate(fn, units_per_call: int, min_seconds: float = 0.25) -> float:
    """Units processed per second, timed over at least ``min_seconds``."""
    fn()  # warm caches / JIT-able paths out of the measurement
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return units_per_call * calls / elapsed


def bench_events(n: int = 2000) -> dict:
    """Simulator event-queue throughput (push+pop pairs per second)."""
    def churn():
        q = EventQueue()
        for i in range(n):
            q.push(float(i % 97), lambda: None)
        while q:
            q.pop()

    return {"events_per_s": _rate(churn, n)}


def bench_async_round(workers: int = 8, partitions: int = 32) -> dict:
    """Dispatch + drain rate of one async round (tasks per second)."""
    from repro.core import ASYNCContext

    with ClusterContext(workers, seed=0) as ctx:
        rdd = ctx.parallelize(list(range(100 * partitions)), partitions).cache()
        rdd.collect()
        ac = ASYNCContext(ctx)

        def round_trip():
            rdd.async_reduce(lambda a, b: a + b, ac)
            ac.wait_all()
            return sum(r.value for r in ac.drain())

        return {"tasks_per_s": _rate(round_trip, partitions)}


class _LegacyWorkerRow:
    """Pre-columnar STAT worker row: plain attributes, loop aggregates."""

    __slots__ = ("alive", "available", "computing_version")

    def __init__(self):
        self.alive = True
        self.available = True
        self.computing_version = None


class _LegacyPartitionRow:
    __slots__ = ("tasks_completed", "comp_count", "comp_mean")

    def __init__(self):
        self.tasks_completed = 0
        self.comp_count = 0
        self.comp_mean = 0.0

    def add_completion(self, value: float) -> None:
        self.tasks_completed += 1
        self.comp_count += 1
        self.comp_mean += (value - self.comp_mean) / self.comp_count

    @property
    def avg_completion_ms(self) -> float:
        return self.comp_mean if self.comp_count else 0.0


def _legacy_max_staleness(rows, current: int) -> int:
    worst = 0
    for row in rows:
        if row.alive and not row.available and row.computing_version is not None:
            worst = max(worst, current - row.computing_version)
    return worst


def _legacy_available_workers(rows) -> list:
    return [w for w, row in enumerate(rows) if row.alive and row.available]


def _legacy_median_partition_ms(rows) -> float:
    values = [r.avg_completion_ms for r in rows if r.tasks_completed > 0]
    if not values:
        return 0.0
    return float(statistics.median(values))


def bench_stat(workers: int = 256, partitions: int = 512) -> dict:
    """Columnar STAT aggregates vs the pre-columnar row-loop reference.

    One "pass" is the aggregate trio every policy round pays:
    ``max_staleness`` + ``available_workers`` +
    ``median_partition_completion_ms``.
    """
    from repro.core.stat import StatTable

    rng = np.random.default_rng(0)
    stat = StatTable(workers)
    stat.current_version = 10_000
    legacy_w = [_LegacyWorkerRow() for _ in range(workers)]
    for w in range(workers):
        if rng.integers(0, 2):
            version = int(rng.integers(0, 10_000))
            stat[w].available = False
            stat[w].note_assigned(version)
            legacy_w[w].available = False
            legacy_w[w].computing_version = version
    legacy_p = [_LegacyPartitionRow() for _ in range(partitions)]
    for p in range(partitions):
        row = stat.partition_row(p, owner=p % workers)
        for _ in range(3):
            submitted = float(rng.uniform(0.0, 50.0))
            delivered = submitted + float(rng.uniform(1.0, 100.0))
            row.note_completion(0, submitted, delivered)
            legacy_p[p].add_completion(delivered - submitted)

    def columnar():
        return (
            stat.max_staleness,
            stat.available_workers(),
            stat.median_partition_completion_ms(),
        )

    def legacy():
        return (
            _legacy_max_staleness(legacy_w, stat.current_version),
            _legacy_available_workers(legacy_w),
            _legacy_median_partition_ms(legacy_p),
        )

    assert columnar() == legacy(), "columnar STAT diverged from reference"
    after = _rate(columnar, 1)
    before = _rate(legacy, 1)
    return {
        "workers": workers,
        "partitions": partitions,
        "passes_per_s_before": before,
        "passes_per_s_after": after,
        "speedup": after / before,
    }


def _asgd_rule():
    from repro.optim.asgd import ASGDRule

    rule = ASGDRule()
    # The apply path only touches opt.problem; a zero-regularizer shim
    # matches the logistic problem (lam defaults to 0.0).
    rule.opt = SimpleNamespace(
        problem=SimpleNamespace(
            lam=0.0, reg_grad=lambda w, count: np.zeros_like(w)
        )
    )
    return rule


def bench_apply(
    dim: int = 16, records: int = 4096, drain: int = 16
) -> dict:
    """Server update application: per-record loop vs ``apply_batch``.

    ``dim`` matches the logistic ``synth_logistic`` spec; ``drain`` is
    the records-per-flush a busy async server sees (~2x the worker
    count). The baseline re-measures the pre-batching path (one
    ``rule.apply`` per record) in the same process, and both paths must
    produce the bit-identical final iterate.
    """
    from repro.core.records import TaskResultRecord

    rng = np.random.default_rng(0)
    batch = [
        TaskResultRecord(
            value=(rng.standard_normal(dim), 64),
            worker_id=i % 8,
            task_id=i,
            version=i,
            staleness=0,
            batch_size=64,
            submitted_ms=0.0,
            delivered_ms=0.0,
            compute_ms=0.0,
        )
        for i in range(records)
    ]
    alphas = [0.05] * records
    w0 = rng.standard_normal(dim)
    rule = _asgd_rule()

    def per_record():
        w = w0
        for record, alpha in zip(batch, alphas):
            w = rule.apply(w, record, alpha)
        return w

    def batched():
        w = w0
        for i in range(0, records, drain):
            w = rule.apply_batch(w, batch[i:i + drain], alphas[i:i + drain])
        return w

    assert np.array_equal(per_record(), batched()), (
        "apply_batch diverged from the sequential fold"
    )
    before = _rate(per_record, records)
    after = _rate(batched, records)
    return {
        "dim": dim,
        "drain": drain,
        "updates_per_s_before": before,
        "updates_per_s_after": after,
        "speedup": after / before,
    }


def bench_e2e(max_updates: int = 3000, repeats: int = 5) -> dict:
    """Full logistic ``asgd`` runs: the pinned end-to-end gate spec.

    One untimed warm-up, then ``repeats`` timed runs (each a fresh
    ``prepare_experiment``, timing ``execute`` only). A single shot on a
    shared runner swings far more than any change worth gating on, so
    the record carries the median, the quartiles and the minimum; every
    repeat must land on the same final error.
    """
    from repro.api.runner import prepare_experiment, summarize

    spec = {
        "dataset": "synth_logistic",
        "problem": "logistic",
        "algorithm": "asgd",
        "num_workers": 8,
        "num_partitions": 8,
        "max_updates": max_updates,
        "eval_every": 500,
        "seed": 0,
    }
    rates = []
    errors = set()
    for repeat in range(repeats + 1):
        prep = prepare_experiment(spec)
        start = time.perf_counter()
        result = prep.execute()
        elapsed = time.perf_counter() - start
        summary = summarize(prep, result)
        errors.add(summary["final_error"])
        if repeat:  # repeat 0 is the warm-up
            rates.append(summary["updates"] / elapsed)
    assert len(errors) == 1, f"repeats disagree on the trajectory: {errors}"
    q1, median, q3 = statistics.quantiles(rates, n=4)
    return {
        "spec": spec,
        "repeats": repeats,
        "updates_per_s": rates,
        "updates_per_s_median": median,
        "updates_per_s_iqr": [q1, q3],
        "updates_per_s_min": min(rates),
        "final_error": errors.pop(),
    }


def main(argv=None) -> int:
    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="where to write the rate record")
    parser.add_argument("--updates", type=int, default=3000,
                        help="e2e run length in applied updates")
    parser.add_argument("--min-apply-speedup", type=float, default=None,
                        help="fail unless the apply-stage speedup reaches "
                             "this factor (e.g. 2.0)")
    parser.add_argument("--min-e2e-updates-per-s", type=float, default=None,
                        help="hard gate: fail (exit 2) unless the median "
                             "e2e updates/s reaches this absolute rate")
    args = parser.parse_args(argv)

    record = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "events": bench_events(),
        "async_round": bench_async_round(),
        "stat": bench_stat(),
        "apply": bench_apply(),
        "e2e": bench_e2e(args.updates),
    }
    print(f"event queue      : {record['events']['events_per_s']:12,.0f} events/s")
    print(f"async round      : {record['async_round']['tasks_per_s']:12,.0f} tasks/s")
    print(
        f"STAT aggregates  : {record['stat']['passes_per_s_after']:12,.0f} passes/s"
        f"  ({record['stat']['speedup']:.2f}x vs row loops)"
    )
    print(
        f"update apply     : {record['apply']['updates_per_s_after']:12,.0f} updates/s"
        f"  ({record['apply']['speedup']:.2f}x vs per-record)"
    )
    e2e = record["e2e"]
    print(
        f"e2e logistic asgd: {e2e['updates_per_s_median']:12,.0f} updates/s"
        f"  (median of {e2e['repeats']}; IQR "
        f"{e2e['updates_per_s_iqr'][0]:,.0f}-{e2e['updates_per_s_iqr'][1]:,.0f}"
        f", min {e2e['updates_per_s_min']:,.0f})"
    )
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if (
        args.min_e2e_updates_per_s is not None
        and e2e["updates_per_s_median"] < args.min_e2e_updates_per_s
    ):
        # Hard gate, unlike the advisory apply-speedup check: the e2e
        # rate is the number the engine work is accountable to.
        print(
            f"FAIL: median e2e rate {e2e['updates_per_s_median']:,.0f} "
            f"updates/s < required {args.min_e2e_updates_per_s:,.0f}"
        )
        return 2
    if (
        args.min_apply_speedup is not None
        and record["apply"]["speedup"] < args.min_apply_speedup
    ):
        print(
            f"FAIL: apply-stage speedup {record['apply']['speedup']:.2f}x "
            f"< required {args.min_apply_speedup:.2f}x"
        )
        return 3  # distinct from crash/parity failures so CI can advise
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
