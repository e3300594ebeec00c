"""Optimization problems: empirical risk objectives with exact optima.

All objectives have the finite-sum form of the paper's Eq. (1)/(2):

    F(w) = (1/n) sum_j f_j(w)  [+ (lam/2) ||w||^2]

with per-sample losses f_j. The distributed algorithms only ever call the
vectorized block kernel ``grad_sum(X, y, w)`` (sum of per-sample gradients
over a block), which is a single BLAS / sparse matvec pair per task — no
per-row Python, per the HPC guides — and SAGA's ``grad_sum_grouped``,
the same sum with every row at its own stored model version, one
grouped product pair for a sparse batch. ``X`` is whatever a block holds
(a dense array or a :class:`~repro.data.blocks.Csr`; a scipy CSR training
set is adopted as one); :mod:`repro.data.blocks` owns how each of them
multiplies.

Exact optima give the error curves ``F(w) - F*`` that every figure of
the paper plots: normal equations for least squares; for logistic
regression a matrix-free Newton–CG with Armijo backtracking, which stops
at ``||grad F||_inf <= 1e-12`` or once no step can lower ``F``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from repro.api.registry import register_problem
from repro.data.blocks import (
    Csr, MatrixBlock, as_matrix, gram, grouped_products, matvec, rmatvec,
)
from repro.errors import OptimError

__all__ = [
    "Problem",
    "LeastSquaresProblem",
    "RidgeProblem",
    "LogisticRegressionProblem",
]


def _as_dense_rowmajor(X):
    X = as_matrix(X)
    return X if type(X) is Csr else np.ascontiguousarray(X)


def _sum_groups(G: np.ndarray) -> np.ndarray:
    """Rows of ``G`` added into ``zeros`` in order (never pairwise)."""
    g = np.zeros(G.shape[1])
    for row in G:
        g += row
    return g


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

    def grad_sum_grouped(
        self, X, y: np.ndarray, ws: "list[np.ndarray]", group: np.ndarray
    ) -> np.ndarray:
        """``sum_j grad f_j(ws[group[j]])``: every row at its own model.

        What SAGA's historical gradients need, one group per stored
        version. Defined as :meth:`grad_sum` of each group's rows at its
        model, added into ``zeros(dim)`` in group order; this loop is
        that definition, and a problem with a single grouped product
        overrides it bit for bit.
        """
        batch = MatrixBlock(X, y)
        g = np.zeros(X.shape[1])
        for k, w in enumerate(ws):
            part = batch.take_rows(np.flatnonzero(group == k))
            g = g + self.grad_sum(part.X, part.y, w)
        return g

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

    def grad_sum_grouped(self, X, y, ws, group):
        return _sum_groups(2.0 * grouped_products(X, y, ws, group, np.subtract))

    def solve_optimum(self) -> np.ndarray:
        # Normal equations: ((2/n) X^T X + lam I) w = (2/n) X^T y.
        G = (2.0 / self.n) * gram(self.X)
        G = G + (self.lam + 1e-12) * np.eye(self.dim)
        rhs = (2.0 / self.n) * rmatvec(self.X, self.y)
        try:
            return np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(G, rhs, rcond=None)[0]


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
        if not (np.abs(y) == 1.0).all():  # np.unique would load numpy.ma
            raise OptimError(
                "logistic labels must be in {-1, +1}, got "
                f"{np.unique(y)[:5]}"
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

    @classmethod
    def _coef(cls, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`grad_sum`'s ``coef`` from the row products ``m``."""
        return -y * cls._sigmoid(-y * m)

    def grad_sum_grouped(self, X, y, ws, group):
        return _sum_groups(grouped_products(X, y, ws, group, self._coef))

    def solve_optimum(self) -> np.ndarray:
        """Newton–CG from ``w0`` (stopping rule: module docstring).

        CG stops at a residual of ``min(0.5, ||g|| / F) ||g||``: quadratic
        near a minimum, loose on separable data, where ``F`` and ``g``
        shrink together while ``H`` grows ever more ill-conditioned.
        """
        X, n, lam = self.X, self.n, self.lam
        w = self.initial_point()
        f, g = self.objective(w), self.full_gradient(w)
        for _ in range(_NEWTON_MAX_ITER):
            if not (np.isfinite(f) and np.isfinite(g).all()):
                raise OptimError(f"logistic F*: F={f} or grad F non-finite")
            if np.abs(g).max() <= 1e-12:
                return w
            # Row curvatures sigma(m) (1 - sigma(m)) / n, written
            # e / (1 + e)^2 with e = exp(-|m|) so nothing cancels.
            e = np.exp(-np.abs(matvec(X, w)))
            h = e / (n * (1.0 + e) ** 2)
            g_norm = np.sqrt(g @ g)
            p = _conjugate_gradient(
                lambda v: rmatvec(X, h * matvec(X, v)) + lam * v, -g,
                min(0.5, g_norm / f) * g_norm,
            )
            slope, t = float(g @ p), 1.0
            if not slope < 0.0:
                return w  # no Newton decrement left
            while (f_new := self.objective(w + t * p)) > f + 1e-4 * t * slope:
                t *= 0.5
                if t < 1e-10:
                    return w  # the line search cannot lower F
            w = w + t * p
            if not f_new < f:
                return w  # F has reached its rounding floor
            f, g = f_new, self.full_gradient(w)
        raise OptimError(
            f"logistic F*: no convergence in {_NEWTON_MAX_ITER} Newton "
            f"steps (||grad F||_inf = {np.abs(g).max():.3g})"
        )


#: Newton-step cap of the logistic solve (separable data takes the most).
_NEWTON_MAX_ITER = 200


def _conjugate_gradient(hvp, b: np.ndarray, tol: float) -> np.ndarray:
    """``x`` with ``||H x - b|| <= tol`` for a PSD ``H`` given as ``hvp``,
    or the last iterate once a search direction has no curvature."""
    x, r, d, rr = np.zeros_like(b), b.copy(), b.copy(), float(b @ b)
    for _ in range(20 * len(b)):
        Hd = hvp(d)
        dHd = float(d @ Hd)
        if not dHd > 0.0:
            break
        x += (rr / dHd) * d
        r -= (rr / dHd) * Hd
        rr, rr_old = float(r @ r), rr
        if rr <= tol * tol:
            break
        d = r + (rr / rr_old) * d
    return x
