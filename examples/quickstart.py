"""Quickstart: asynchronous SGD on a simulated cluster with a straggler.

Builds a small least-squares problem, runs the paper's Algorithm 1 (sync
SGD) and Algorithm 2 (ASGD) on an 8-worker simulated cluster where one
worker runs at half speed, and reports the time each took to reach the
same error — the paper's headline comparison at toy scale.

Run:  python examples/quickstart.py
"""

from repro import (
    ClusterContext,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.cluster import ControlledDelay
from repro.data import make_dense_regression
from repro.metrics import average_wait_ms, speedup_at_target
from repro.utils import ascii_lineplot

NUM_WORKERS = 8
NUM_PARTITIONS = 32
DELAY = ControlledDelay(1.0, workers=(0,))  # worker 0 at half speed


def run(algorithm, step, max_updates):
    with ClusterContext(NUM_WORKERS, seed=0, delay_model=DELAY) as sc:
        X, y, _ = make_dense_regression(8192, 32, seed=0)
        points = sc.matrix(X, y, NUM_PARTITIONS).cache()
        problem = LeastSquaresProblem(X, y)
        result = build_optimizer(
            algorithm, sc, points, problem, step,
            OptimizerConfig(batch_fraction=0.1, max_updates=max_updates,
                            seed=1, eval_every=4),
        ).run()
        return problem, result


def main():
    problem, sync = run("sgd", InvSqrtDecay(0.5), max_updates=80)
    problem, asyn = run(
        "asgd", InvSqrtDecay(0.5).scaled_for_async(NUM_WORKERS),
        max_updates=640,
    )

    print(ascii_lineplot(
        {
            "SGD (sync)": sync.trace.error_series(problem),
            "ASGD (async)": asyn.trace.error_series(problem),
        },
        title="error vs cluster time (one worker at half speed)",
        width=60, height=12,
    ))
    print()
    print("sync  SGD : err=%.4g  cluster-time=%7.1f ms  avg-wait=%.2f ms"
          % (problem.error(sync.w), sync.elapsed_ms,
             average_wait_ms(sync.metrics)))
    print("async ASGD: err=%.4g  cluster-time=%7.1f ms  avg-wait=%.2f ms"
          % (problem.error(asyn.w), asyn.elapsed_ms,
             average_wait_ms(asyn.metrics)))
    speedup = speedup_at_target(sync.trace, asyn.trace, problem)
    print(f"time-to-equal-error speedup (async over sync): {speedup:.2f}x")


if __name__ == "__main__":
    main()
