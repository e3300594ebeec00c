"""Consensus ADMM, synchronous and asynchronous (related-work extension).

The paper's related work highlights asynchronous ADMM [70, 8, 26] as a
family ASYNC-style frameworks should support. Each worker solves its local
least-squares subproblem in closed form (Cholesky factor cached in its
block store — the same worker-local-state mechanism SAGA uses for version
tables) and the server maintains the consensus variable. The async variant
updates consensus per received worker result.

Run:  python examples/admm_consensus.py
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
from repro.utils import ascii_lineplot

WORKERS = 8
DELAY = ControlledDelay(1.0, workers=(0,))


def run(algorithm, updates, eval_every):
    X, y, _ = make_dense_regression(8192, 48, seed=0)
    problem = LeastSquaresProblem(X, y)
    with ClusterContext(WORKERS, seed=0, delay_model=DELAY) as sc:
        points = sc.matrix(X, y, 32).cache()
        res = build_optimizer(
            algorithm, sc, points, problem, ConstantStep(1.0),
            OptimizerConfig(batch_fraction=1.0, max_updates=updates,
                            eval_every=eval_every, seed=0),
            rho=1.0,
        ).run()
    return problem, res


def main():
    problem, sync = run("admm", updates=25, eval_every=1)
    problem, asyn = run("aadmm", updates=200, eval_every=8)

    print(ascii_lineplot(
        {
            "ADMM (sync)": sync.trace.error_series(problem),
            "ADMM (async)": asyn.trace.error_series(problem),
        },
        title="consensus ADMM under a half-speed straggler",
        width=60, height=12,
    ))
    print()
    print(f"sync  ADMM : err={problem.error(sync.w):.3g} "
          f"in {sync.elapsed_ms:7.1f} ms ({sync.updates} z-updates)")
    print(f"async ADMM : err={problem.error(asyn.w):.3g} "
          f"in {asyn.elapsed_ms:7.1f} ms ({asyn.updates} z-updates)")
    print("\nWorkers cache their Cholesky factorizations in the block "
          "store\n(computed once; every later iteration is two triangular "
          "solves).")


if __name__ == "__main__":
    main()
