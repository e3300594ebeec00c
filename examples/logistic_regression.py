"""Beyond least squares: asynchronous logistic regression.

The paper evaluates on least squares, but ASYNC's API is problem-agnostic
(Section 2's general empirical-risk setting). This example trains an
L2-regularized logistic classifier with sgd / asgd / asvrg on
a simulated cluster with production stragglers and reports suboptimality
and test accuracy.

Run:  python examples/logistic_regression.py
"""

import numpy as np

from repro import (
    ClusterContext,
    ConstantStep,
    InvSqrtDecay,
    LogisticRegressionProblem,
    OptimizerConfig,
    build_optimizer,
)
from repro.cluster import ProductionCluster
from repro.data import make_classification

P = 8


def accuracy(problem, w, X, y):
    return float(np.mean(np.sign(X @ w) == y))


def main():
    # One generator call -> one ground-truth model; hold out a test split.
    X_all, y_all, _ = make_classification(
        10240, 32, margin=1.5, flip=0.05, seed=0
    )
    X, y = X_all[:8192], y_all[:8192]
    X_test, y_test = X_all[8192:], y_all[8192:]
    problem = LogisticRegressionProblem(X, y, lam=1e-3)
    delay = ProductionCluster(num_workers=P, seed=0)

    runs = [
        ("sgd", InvSqrtDecay(2.0), 60, {}),
        ("asgd", InvSqrtDecay(2.0).scaled_for_async(P), 480, {}),
        ("asvrg", ConstantStep(1.0 / P), 480, {"inner_iterations": 10}),
    ]
    print(f"L2 logistic regression, {P} workers, production stragglers")
    print(f"  optimum F* = {problem.f_star:.6f}")
    for name, step, updates, kwargs in runs:
        with ClusterContext(P, seed=0, delay_model=delay) as sc:
            points = sc.matrix(X, y, 32).cache()
            res = build_optimizer(
                name, sc, points, problem, step,
                OptimizerConfig(batch_fraction=0.1, max_updates=updates,
                                seed=2),
                **kwargs,
            ).run()
        acc = accuracy(problem, res.w, X_test, y_test)
        print(f"  {name:9s}: suboptimality={problem.error(res.w):.5f}  "
              f"test-acc={acc:.3f}  cluster-time={res.elapsed_ms:7.1f} ms")


if __name__ == "__main__":
    main()
