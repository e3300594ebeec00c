"""Real asynchrony: the same programs on OS threads with sleep stragglers.

Everything else in this repo uses the deterministic simulation backend.
This example swaps in :class:`ThreadBackend` — every worker is a real
thread, stragglers really sleep (the paper's own CDS methodology), and
wall-clock time replaces virtual time. The ASGD driver code is unchanged:
backends are interchangeable behind the same API.

Run:  python examples/thread_backend_demo.py
"""

import time

from repro import (
    ClusterContext,
    InvSqrtDecay,
    LeastSquaresProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.cluster import ControlledDelay, ThreadBackend
from repro.data import make_dense_regression

WORKERS = 4
# Give every task a 3 ms floor so the 3x straggler visibly dominates.
MIN_TASK_S = 0.003
DELAY = ControlledDelay(2.0, workers=(0,))  # worker 0 runs 3x slower


def run(algorithm, step, max_updates):
    X, y, _ = make_dense_regression(4096, 32, seed=0)
    problem = LeastSquaresProblem(X, y)
    backend = ThreadBackend(
        WORKERS, delay_model=DELAY, min_task_s=MIN_TASK_S
    )
    t0 = time.perf_counter()
    with ClusterContext(backend=backend) as sc:
        points = sc.matrix(X, y, 8).cache()
        result = build_optimizer(
            algorithm, sc, points, problem, step,
            OptimizerConfig(batch_fraction=0.1, max_updates=max_updates,
                            seed=0),
        ).run()
    wall_s = time.perf_counter() - t0
    return problem, result, wall_s


def main():
    problem, sync, sync_s = run("sgd", InvSqrtDecay(0.5), 30)
    problem, asyn, async_s = run(
        "asgd", InvSqrtDecay(0.5).scaled_for_async(WORKERS), 120
    )
    print(f"{WORKERS} worker threads, worker 0 sleeping 3x per task")
    print(f"  sync  SGD : 30 updates,  err={problem.error(sync.w):.4g}, "
          f"wall {sync_s:.2f}s")
    print(f"  async ASGD: 120 updates, err={problem.error(asyn.w):.4g}, "
          f"wall {async_s:.2f}s")
    print("  (equal data touched per run; async overlaps the straggler)")
    if async_s < sync_s:
        print(f"  async finished {sync_s / async_s:.2f}x faster in wall time")


if __name__ == "__main__":
    main()
