"""Single-process reference implementations (the "MLlib" baseline).

Figure 2 of the paper establishes that ASYNC's synchronous SGD matches
MLlib's. We cannot run Spark/MLlib here, so the comparison target is an
independent, straight-line NumPy implementation of the *identical*
algorithm (MLlib's ``GradientDescent``: mini-batch fraction sampling,
``a / sqrt(t)`` decay, average-of-batch gradient). If the engine's
``sgd`` — ASGD's rule run in bulk-synchronous rounds under the same
server loop every asynchronous method uses — and this reference produce
matching trajectories, the engine adds no algorithmic distortion, which
is the claim Figure 2 makes.

``reference_saga`` plays the same role for the SAGA family.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OptimError
from repro.optim.problems import Problem
from repro.utils.rng import spawn_generator

__all__ = ["reference_sgd", "reference_saga"]


def reference_sgd(
    problem: Problem,
    *,
    alpha0: float,
    batch_fraction: float,
    iterations: int,
    seed: int = 0,
    record_every: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """MLlib-style mini-batch SGD; returns ``(w, [(iter, error), ...])``."""
    if not 0 < batch_fraction <= 1:
        raise OptimError("batch_fraction must be in (0, 1]")
    if iterations <= 0:
        raise OptimError("iterations must be positive")
    X, y, n = problem.X, problem.y, problem.n
    rng = spawn_generator(seed, "ref-sgd")
    w = problem.initial_point()
    batch = max(1, int(round(batch_fraction * n)))
    history = [(0, problem.error(w))]
    for t in range(1, iterations + 1):
        idx = rng.choice(n, size=batch, replace=False)
        g = problem.grad_sum(X[idx], y[idx], w) / batch
        if problem.lam:
            g = g + problem.lam * w
        w = w - (alpha0 / np.sqrt(t)) * g
        if t % record_every == 0:
            history.append((t, problem.error(w)))
    return w, history


def reference_saga(
    problem: Problem,
    *,
    alpha: float,
    batch_fraction: float,
    iterations: int,
    seed: int = 0,
    record_every: int = 1,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Mini-batch SAGA with an explicit per-sample gradient table.

    Unlike the distributed variant (which stores parameter *versions* and
    recomputes), the reference stores gradients directly — the classic
    formulation — making it an independent check of the distributed
    implementation's mathematics.
    """
    if not 0 < batch_fraction <= 1:
        raise OptimError("batch_fraction must be in (0, 1]")
    X, y, n = problem.X, problem.y, problem.n
    d = problem.dim
    rng = spawn_generator(seed, "ref-saga")
    w = problem.initial_point()
    batch = max(1, int(round(batch_fraction * n)))

    # Initialize the gradient table at w_0 (one full pass), like line 2 of
    # Algorithm 3.
    table = np.empty((n, d))
    for j in range(0, n, 4096):
        rows = slice(j, min(j + 4096, n))
        table[rows] = _per_sample_grads(problem, X[rows], y[rows], w)
    avg = table.mean(axis=0)

    history = [(0, problem.error(w))]
    for t in range(1, iterations + 1):
        idx = rng.choice(n, size=batch, replace=False)
        fresh = _per_sample_grads(problem, X[idx], y[idx], w)
        old = table[idx]
        g = fresh.mean(axis=0) - old.mean(axis=0) + avg
        if problem.lam:
            g = g + problem.lam * w
        w = w - alpha * g
        avg = avg + (fresh.sum(axis=0) - old.sum(axis=0)) / n
        table[idx] = fresh
        if t % record_every == 0:
            history.append((t, problem.error(w)))
    return w, history


def _per_sample_grads(problem: Problem, Xb, yb, w) -> np.ndarray:
    """Per-sample gradient rows for a block (dense output)."""
    from scipy import sparse

    from repro.optim.problems import (
        LeastSquaresProblem,
        LogisticRegressionProblem,
    )

    if isinstance(problem, LeastSquaresProblem):
        r = Xb @ w - yb
        coef = 2.0 * r
    elif isinstance(problem, LogisticRegressionProblem):
        margins = -yb * (Xb @ w)
        coef = -yb * LogisticRegressionProblem._sigmoid(margins)
    else:  # pragma: no cover - extension point
        raise OptimError(
            f"no per-sample gradient rule for {type(problem).__name__}"
        )
    if sparse.issparse(Xb):
        return np.asarray(Xb.multiply(coef[:, None]).todense())
    return Xb * coef[:, None]
