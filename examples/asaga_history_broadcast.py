"""SAGA / ASAGA and the history broadcast (Algorithms 3 & 4, Section 4.3).

Three acts:

1. Run SAGA the way plain Spark forces you to — re-broadcasting the whole
   table of stored model parameters every iteration — and with the
   ASYNCbroadcaster, and compare communication volume (same math, wildly
   different bytes).
2. Run asynchronous ASAGA under a straggler and compare against SAGA.
3. Peek at a worker's local version cache to see the mechanism.

Run:  python examples/asaga_history_broadcast.py
"""

from repro import (
    ClusterContext,
    ConstantStep,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.cluster import ControlledDelay
from repro.data import make_dense_regression
from repro.metrics import speedup_at_target
from repro.utils.tables import format_table


def build(sc, n=8192, d=64):
    X, y, _ = make_dense_regression(n, d, seed=0)
    return sc.matrix(X, y, 32).cache(), LeastSquaresProblem(X, y)


def act1_broadcast_cost():
    rows = []
    for mode in ("naive", "history"):
        with ClusterContext(8, seed=0) as sc:
            points, problem = build(sc)
            res = build_optimizer(
                "saga", sc, points, problem, ConstantStep(0.02),
                OptimizerConfig(batch_fraction=0.05, max_updates=40, seed=0),
                mode=mode,
            ).run()
            rows.append([
                mode,
                sc.dispatcher.total_fetch_bytes,
                problem.error(res.w),
            ])
    print(format_table(
        ["broadcast mode", "bytes shipped", "final error"], rows,
        title="Act 1 - what ASYNCbroadcast saves (40 SAGA iterations)",
    ))
    print()


def act2_asaga_vs_saga():
    delay = ControlledDelay(1.0, workers=(0,))
    with ClusterContext(8, seed=0, delay_model=delay) as sc:
        points, problem = build(sc)
        saga = build_optimizer(
            "saga", sc, points, problem, ConstantStep(0.02),
            OptimizerConfig(batch_fraction=0.05, max_updates=60, seed=0,
                            eval_every=4),
        ).run()
    with ClusterContext(8, seed=0, delay_model=delay) as sc:
        points, problem = build(sc)
        asaga = build_optimizer(
            "asaga", sc, points, problem, ConstantStep(0.02 / 8),
            OptimizerConfig(batch_fraction=0.05, max_updates=480, seed=0,
                            eval_every=32),
        ).run()
    print("Act 2 - straggler robustness (one worker at half speed)")
    print(f"  SAGA : err={problem.error(saga.w):.4g} in {saga.elapsed_ms:7.1f} ms")
    print(f"  ASAGA: err={problem.error(asaga.w):.4g} in {asaga.elapsed_ms:7.1f} ms")
    print(f"  time-to-equal-error speedup: "
          f"{speedup_at_target(saga.trace, asaga.trace, problem):.2f}x")
    print()


def act3_peek_at_version_cache():
    with ClusterContext(4, seed=0) as sc:
        points, problem = build(sc, n=1024, d=8)
        build_optimizer(
            "asaga", sc, points, problem, ConstantStep(0.02 / 4),
            OptimizerConfig(batch_fraction=0.25, max_updates=40, seed=0),
        ).run()
        env = sc.backend.worker_env(0)
        version_keys = [k for k in env.keys()
                        if isinstance(k, tuple) and k[0] == "saga_ver"]
        cache_keys = [k for k in env.keys()
                      if isinstance(k, tuple) and k[0] == "hbc"]
        print("Act 3 - worker 0's local state after 40 async updates")
        print(f"  per-partition version tables: {len(version_keys)}")
        for k in version_keys:
            versions = env.get(k)
            print(f"    partition {k[2]}: rows={len(versions)}, "
                  f"distinct stored versions={len(set(versions.tolist()))}")
        print(f"  locally cached model versions: {len(cache_keys)} "
              "(fetched once each, then re-referenced by id)")


if __name__ == "__main__":
    act1_broadcast_cost()
    act2_asaga_vs_saga()
    act3_peek_at_version_cache()
