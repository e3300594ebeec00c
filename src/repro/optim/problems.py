"""Optimization problems: empirical risk objectives with exact optima.

All objectives have the finite-sum form of the paper's Eq. (1)/(2):

    F(w) = (1/n) sum_j f_j(w)  [+ (lam/2) ||w||^2]

with per-sample losses f_j. The distributed algorithms only ever call the
vectorized block kernel ``grad_sum(X, y, w)`` (sum of per-sample gradients
over a block), which is a single BLAS / sparse matvec pair per task — no
per-row Python, per the HPC guides. ``X`` is whatever a block holds (dense
array, scipy CSR matrix, or a small row subset's
:class:`~repro.data.blocks.CsrRows`); :mod:`repro.data.blocks` owns how
each of them multiplies.

Exact optima (via normal equations or high-precision batch optimization)
give the error curves ``F(w) - F*`` that every figure of the paper plots.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.api.registry import register_problem
from repro.data.blocks import matvec, rmatvec
from repro.errors import OptimError

__all__ = [
    "Problem",
    "LeastSquaresProblem",
    "RidgeProblem",
    "LogisticRegressionProblem",
]


def _as_dense_rowmajor(X) -> np.ndarray | sparse.csr_matrix:
    if sparse.issparse(X):
        return X.tocsr()
    return np.ascontiguousarray(X)


class Problem(ABC):
    """A finite-sum objective over a fixed training set."""

    def __init__(self, X, y: np.ndarray, lam: float = 0.0) -> None:
        if X.shape[0] != y.shape[0]:
            raise OptimError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]}"
            )
        if lam < 0:
            raise OptimError("lam must be >= 0")
        self.X = _as_dense_rowmajor(X)
        self.y = np.asarray(y, dtype=np.float64)
        self.lam = float(lam)

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def dim(self) -> int:
        return int(self.X.shape[1])

    def initial_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    # -- per-block kernels (what tasks execute) ---------------------------------
    @abstractmethod
    def loss_sum(self, X, y: np.ndarray, w: np.ndarray) -> float:
        """``sum_j f_j(w)`` over the block (without regularization)."""

    @abstractmethod
    def grad_sum(self, X, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``sum_j grad f_j(w)`` over the block (without regularization)."""

    # -- full-objective helpers (driver-side evaluation) ---------------------------
    def objective(self, w: np.ndarray) -> float:
        base = self.loss_sum(self.X, self.y, w) / self.n
        if self.lam:
            base += 0.5 * self.lam * float(w @ w)
        return float(base)

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        g = self.grad_sum(self.X, self.y, w) / self.n
        if self.lam:
            g = g + self.lam * w
        return g

    def reg_grad(self, w: np.ndarray, count: int) -> np.ndarray:
        """Regularizer gradient contribution for a batch of ``count`` rows.

        The ridge term is distributed across samples (each sample carries
        ``lam/n`` of it) so that mini-batch estimates stay unbiased.
        """
        if not self.lam:
            return np.zeros_like(w)
        return self.lam * count * w

    @abstractmethod
    def solve_optimum(self) -> np.ndarray:
        """Compute the exact (or high-precision) minimizer."""

    @cached_property
    def w_star(self) -> np.ndarray:
        return self.solve_optimum()

    @cached_property
    def f_star(self) -> float:
        return self.objective(self.w_star)

    @cached_property
    def f_initial(self) -> float:
        """``F(w0)`` at the canonical initial point, cached alongside
        ``f_star`` — sweep cells sharing a problem pay the full-dataset
        pass once instead of once per cell."""
        return self.objective(self.initial_point())

    def error(self, w: np.ndarray) -> float:
        """Suboptimality ``F(w) - F*`` (the paper's y-axis)."""
        return max(self.objective(w) - self.f_star, 0.0)

    def initial_error(self) -> float:
        """``F(w0) - F*`` from the cached endpoints (summary fast path)."""
        return max(self.f_initial - self.f_star, 0.0)


@register_problem("least_squares", aliases=("ls",))
class LeastSquaresProblem(Problem):
    """``f_j(w) = (x_j^T w - y_j)^2`` — the paper's evaluation problem.

    ``F(w) = (1/n) ||Xw - y||^2 (+ ridge)``; per-sample gradient
    ``2 (x_j^T w - y_j) x_j``.
    """

    def loss_sum(self, X, y, w):
        r = matvec(X, w) - y
        return float(r @ r)

    def grad_sum(self, X, y, w):
        r = matvec(X, w) - y
        return 2.0 * rmatvec(X, r)

    def solve_optimum(self) -> np.ndarray:
        # Normal equations: ((2/n) X^T X + lam I) w = (2/n) X^T y.
        d = self.dim
        if sparse.issparse(self.X):
            gram = (2.0 / self.n) * (self.X.T @ self.X).toarray()
        else:
            gram = (2.0 / self.n) * (self.X.T @ self.X)
        gram = gram + (self.lam + 1e-12) * np.eye(d)
        rhs = (2.0 / self.n) * np.asarray(self.X.T @ self.y).ravel()
        try:
            return np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, rhs, rcond=None)[0]


@register_problem("ridge")
class RidgeProblem(LeastSquaresProblem):
    """Least squares with an explicit ridge term (lam > 0 required)."""

    def __init__(self, X, y, lam: float = 1e-3) -> None:
        if lam <= 0:
            raise OptimError("RidgeProblem requires lam > 0")
        super().__init__(X, y, lam=lam)


@register_problem("logistic")
class LogisticRegressionProblem(Problem):
    """``f_j(w) = log(1 + exp(-y_j x_j^T w))`` with labels in {-1, +1}."""

    def __init__(self, X, y, lam: float = 0.0) -> None:
        y = np.asarray(y, dtype=np.float64)
        uniq = np.unique(y)
        if not np.all(np.isin(uniq, (-1.0, 1.0))):
            raise OptimError(
                f"logistic labels must be in {{-1, +1}}, got {uniq[:5]}"
            )
        super().__init__(X, y, lam=lam)

    @staticmethod
    def _log1pexp(z: np.ndarray) -> np.ndarray:
        # Numerically stable log(1 + exp(z)).
        out = np.empty_like(z)
        pos = z > 0
        out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
        out[~pos] = np.log1p(np.exp(z[~pos]))
        return out

    def loss_sum(self, X, y, w):
        margins = -y * matvec(X, w)
        return float(np.sum(self._log1pexp(margins)))

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        """Numerically stable logistic function, in one pass.

        ``e = exp(-|z|)`` never overflows; ``z >= 0`` takes
        ``1 / (1 + e)``, the rest ``e / (1 + e)``. Every element goes
        through the IEEE operations of the piecewise form
        (``1 / (1 + exp(-z))`` / ``exp(z) / (1 + exp(z))``), so results
        are bit-equal to it. ``minimum(z, -z)`` spells ``-|z|`` because
        it passes a NaN through with its own sign and payload.
        """
        e = np.exp(np.minimum(z, -z))
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)

    def grad_sum(self, X, y, w):
        margins = -y * matvec(X, w)
        coef = -y * self._sigmoid(margins)
        return rmatvec(X, coef)

    def solve_optimum(self) -> np.ndarray:
        # The one user of scipy.optimize: imported here so ``import
        # repro`` (every exec'd worker and CLI start) does not pay for it.
        from scipy import optimize as sp_optimize

        w0 = self.initial_point()
        res = sp_optimize.minimize(
            fun=lambda w: self.objective(w),
            x0=w0,
            jac=lambda w: self.full_gradient(w),
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
        )
        if not res.success and res.status not in (0, 2):
            raise OptimError(f"logistic optimum solve failed: {res.message}")
        return np.asarray(res.x)
