"""Objectives: gradient correctness (finite differences), exact optima."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from test_blocks import csr_block_and_idx, to_scipy

from repro.data.blocks import Csr, MatrixBlock
from repro.data.registry import get_dataset
from repro.data.synthetic import make_classification, make_dense_regression
from repro.errors import OptimError
from repro.optim import problems
from repro.optim.problems import (
    LeastSquaresProblem,
    LogisticRegressionProblem,
    RidgeProblem,
)


def fd_gradient(f, w, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = eps
        g[i] = (f(w + e) - f(w - e)) / (2 * eps)
    return g


@pytest.fixture
def ls_problem():
    X, y, _ = make_dense_regression(128, 6, cond=3.0, seed=1)
    return LeastSquaresProblem(X, y)


def test_ls_gradient_matches_finite_diff(ls_problem, rng):
    w = rng.standard_normal(ls_problem.dim)
    g = ls_problem.full_gradient(w)
    g_fd = fd_gradient(ls_problem.objective, w)
    assert np.allclose(g, g_fd, atol=1e-4)


def test_ls_grad_sum_additive_over_blocks(ls_problem, rng):
    w = rng.standard_normal(ls_problem.dim)
    X, y = ls_problem.X, ls_problem.y
    whole = ls_problem.grad_sum(X, y, w)
    parts = ls_problem.grad_sum(X[:50], y[:50], w) + ls_problem.grad_sum(
        X[50:], y[50:], w
    )
    assert np.allclose(whole, parts)


def test_ls_optimum_is_stationary(ls_problem):
    g = ls_problem.full_gradient(ls_problem.w_star)
    assert np.linalg.norm(g) < 1e-8
    assert ls_problem.f_star <= ls_problem.objective(
        ls_problem.initial_point()
    )


def test_ls_error_nonnegative_and_zero_at_optimum(ls_problem, rng):
    assert ls_problem.error(ls_problem.w_star) == 0.0
    w = rng.standard_normal(ls_problem.dim)
    assert ls_problem.error(w) >= 0.0


def _sparse_design(rng, n=80, d=7):
    X = rng.standard_normal((n, d))
    X[X < 0.3] = 0.0
    return sparse.csr_matrix(X), rng.standard_normal(n)


def _quadratic_cases():
    rng = np.random.default_rng(5)
    X, y, _ = make_dense_regression(96, 6, cond=3.0, seed=4)
    Xs, ys = _sparse_design(rng)
    return {
        "dense": LeastSquaresProblem(X, y),
        "csr": LeastSquaresProblem(Xs, ys),
        "ridge": RidgeProblem(X, y, lam=0.3),
    }


@pytest.mark.parametrize("case", ["dense", "csr", "ridge"])
def test_ls_error_is_the_objective_gap(case, rng):
    """The quadratic form means ``F(w) - F*``, on dense, ``Csr`` and
    ridge problems, from near the optimum out to far from it; right at
    the optimum, where rounding in ``g*`` can tip it below zero, the
    clamp keeps it >= 0."""
    p = _quadratic_cases()[case]
    if case == "csr":
        assert type(p.X) is Csr
    tol = 1e-9 * max(1.0, p.f_star)
    for scale in (1e-16, 1e-12, 1e-8, 1e-3, 0.1, 1.0, 10.0):
        for _ in range(10):
            w = p.w_star + scale * rng.standard_normal(p.dim)
            assert abs(p.error(w) - (p.objective(w) - p.f_star)) <= tol
            assert p.error(w) >= 0.0
    assert p.error(p.w_star) == 0.0
    assert p.initial_error() == p.error(p.initial_point())


def _exact_lstsq(X, y):
    """``w*`` and ``F`` of ``(1/n) ||Xw - y||^2`` in exact rationals."""
    from fractions import Fraction

    n, d = X.shape
    Xf = [[Fraction(v) for v in row] for row in X]
    yf = [Fraction(v) for v in y]
    A = [[sum(Xf[k][i] * Xf[k][j] for k in range(n)) for j in range(d)]
         + [sum(Xf[k][i] * yf[k] for k in range(n))] for i in range(d)]
    for c in range(d):  # Gauss-Jordan, exact
        piv = next(r for r in range(c, d) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(d):
            if r != c and A[r][c] != 0:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    w_star = [A[i][d] for i in range(d)]

    def F(w):
        w = [Fraction(v) for v in w]
        return sum(
            (sum(a * b for a, b in zip(row, w)) - t) ** 2
            for row, t in zip(Xf, yf)
        ) / n

    return w_star, F


def test_ls_error_beats_the_direct_difference_near_the_optimum():
    """On an 8 x 3 problem solved in exact rationals, ``||e|| ~ 1e-7``
    away from ``w*`` the quadratic form is at least as close to the exact
    ``F(w) - F*`` as ``objective(w) - f_star``, whose two nearly equal
    terms cancel."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(8)
    p = LeastSquaresProblem(X, y)
    w_exact, F = _exact_lstsq(X, y)
    f_exact = F(w_exact)
    for _ in range(10):
        step = rng.standard_normal(3)
        w = p.w_star + 1e-7 * step / np.linalg.norm(step)
        exact = F(w) - f_exact
        quad = abs(p.error(w) - exact)
        direct = abs((p.objective(w) - p.f_star) - exact)
        assert quad <= direct
        assert quad <= 1e-6 * exact


def test_ls_sparse_matches_dense(rng):
    Xd = rng.standard_normal((60, 8))
    Xd[Xd < 0.5] = 0.0
    y = rng.standard_normal(60)
    w = rng.standard_normal(8)
    dense = LeastSquaresProblem(Xd, y)
    sp = LeastSquaresProblem(sparse.csr_matrix(Xd), y)
    assert np.allclose(
        dense.grad_sum(dense.X, y, w), sp.grad_sum(sp.X, y, w)
    )
    assert np.isclose(dense.objective(w), sp.objective(w))
    assert np.allclose(dense.w_star, sp.w_star, atol=1e-8)


def test_ridge_requires_positive_lam(rng):
    X, y = rng.standard_normal((10, 2)), rng.standard_normal(10)
    with pytest.raises(OptimError):
        RidgeProblem(X, y, lam=0.0)


def test_ridge_gradient_includes_regularizer(rng):
    X, y, _ = make_dense_regression(64, 4, seed=2)
    p = RidgeProblem(X, y, lam=0.5)
    w = rng.standard_normal(4)
    g_fd = fd_gradient(p.objective, w)
    assert np.allclose(p.full_gradient(w), g_fd, atol=1e-4)


def test_ridge_optimum_stationary():
    X, y, _ = make_dense_regression(64, 4, seed=2)
    p = RidgeProblem(X, y, lam=0.1)
    assert np.linalg.norm(p.full_gradient(p.w_star)) < 1e-8


def test_ridge_shrinks_solution():
    X, y, _ = make_dense_regression(64, 4, seed=2)
    plain = LeastSquaresProblem(X, y)
    ridge = RidgeProblem(X, y, lam=10.0)
    assert np.linalg.norm(ridge.w_star) < np.linalg.norm(plain.w_star)


def test_logistic_gradient_matches_finite_diff(rng):
    X, y, _ = make_classification(100, 5, seed=3)
    p = LogisticRegressionProblem(X, y, lam=0.01)
    w = rng.standard_normal(5) * 0.5
    g_fd = fd_gradient(p.objective, w)
    assert np.allclose(p.full_gradient(w), g_fd, atol=1e-5)


def test_logistic_labels_validated(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(OptimError):
        LogisticRegressionProblem(X, np.zeros(10))


def test_logistic_optimum_beats_zero():
    X, y, _ = make_classification(400, 6, seed=4)
    p = LogisticRegressionProblem(X, y, lam=0.01)
    assert p.f_star < p.objective(p.initial_point())
    assert np.linalg.norm(p.full_gradient(p.w_star)) < 1e-5


def _lbfgs_reference(problem):
    """What the optimum used to be: scipy's L-BFGS-B, here only as the
    yardstick for the NumPy Newton–CG solve."""
    from scipy import optimize

    res = optimize.minimize(
        problem.objective, problem.initial_point(),
        jac=problem.full_gradient, method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
    )
    assert res.status in (0, 2), res.message
    return problem.objective(res.x)


def _sparsified_classification(n, d, seed):
    X, y, _ = make_classification(n, d, seed=seed)
    keep = np.random.default_rng(seed).random(X.shape) < 0.2
    return sparse.csr_matrix(X * keep), y


OPTIMUM_CASES = {
    **{
        f"synth_logistic-seed{seed}": (
            lambda seed=seed: get_dataset("synth_logistic", seed=seed)[:2], 0.0
        )
        for seed in range(5)
    },
    **{
        f"classification-{n}x{d}": (
            lambda n=n, d=d: make_classification(n, d, seed=1)[:2], 0.0
        )
        for n, d in [(64, 4), (300, 20), (2000, 50)]
    },
    "classification-lam": (
        lambda: make_classification(300, 20, seed=2)[:2], 0.01
    ),
    "csr": (lambda: _sparsified_classification(1500, 40, seed=3), 0.0),
    "csr-lam": (lambda: _sparsified_classification(1500, 40, seed=4), 1e-3),
}


@pytest.mark.parametrize("case", sorted(OPTIMUM_CASES))
def test_logistic_optimum_matches_lbfgs(case):
    make, lam = OPTIMUM_CASES[case]
    X, y = make()
    problem = LogisticRegressionProblem(X, y, lam=lam)
    f_star = problem.f_star
    reference = _lbfgs_reference(problem)
    assert abs(f_star - reference) <= 1e-10 * max(1.0, abs(f_star))
    assert np.abs(problem.full_gradient(problem.w_star)).max() <= 1e-8


@pytest.mark.parametrize("sparse_X", [False, True])
def test_logistic_optimum_on_separable_data_is_finite(sparse_X):
    """No minimiser exists (``F -> 0`` as ``||w|| -> inf``): the solve
    stops on its gradient tolerance with a finite ``w`` and no warning."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 5))
    y = np.where(X @ np.arange(1.0, 6.0) > 0, 1.0, -1.0)
    problem = LogisticRegressionProblem(
        sparse.csr_matrix(X) if sparse_X else X, y
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = problem.w_star
    assert np.isfinite(w).all()
    assert problem.f_star <= 1e-8


def test_logistic_optimum_fails_loudly(monkeypatch):
    X, y, _ = make_classification(64, 4, seed=0)
    X[3, 1] = np.nan
    with pytest.raises(OptimError, match="non-finite"):
        LogisticRegressionProblem(X, y).solve_optimum()
    X[3, 1] = 0.0
    monkeypatch.setattr(problems, "_NEWTON_MAX_ITER", 2)
    with pytest.raises(OptimError, match="no convergence in 2 Newton steps"):
        LogisticRegressionProblem(X, y).solve_optimum()


def test_logistic_loss_stable_for_large_margins():
    X = np.array([[1000.0], [-1000.0]])
    y = np.array([1.0, -1.0])
    p = LogisticRegressionProblem(X, y)
    val = p.objective(np.array([1.0]))
    assert np.isfinite(val)
    g = p.full_gradient(np.array([1.0]))
    assert np.all(np.isfinite(g))


def piecewise_sigmoid(z):
    """The two-branch form ``LogisticRegressionProblem._sigmoid`` replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_SIGMOID_SPECIALS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, -1e-310, 709.8, -745.2, 800.0, -800.0,
    *np.array([0x7FF8000000000001, 0xFFF4000000000123], dtype=np.uint64)
    .view(np.float64).tolist(),  # NaNs with a payload, quiet and signalling
]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from(_SIGMOID_SPECIALS),
    ),
    min_size=0, max_size=300,
))
def test_sigmoid_is_bit_equal_to_the_piecewise_form(values):
    z = np.array(values, dtype=np.float64)
    got = LogisticRegressionProblem._sigmoid(z)
    assert got.dtype == z.dtype and got.shape == z.shape
    assert np.array_equal(
        got.view(np.uint64), piecewise_sigmoid(z).view(np.uint64)
    )


def test_dim_mismatch_rejected(rng):
    with pytest.raises(OptimError):
        LeastSquaresProblem(rng.standard_normal((5, 2)), np.zeros(4))


def test_negative_lam_rejected(rng):
    with pytest.raises(OptimError):
        LeastSquaresProblem(
            rng.standard_normal((5, 2)), np.zeros(5), lam=-1.0
        )


def test_reg_grad_scales_with_count(rng):
    X, y, _ = make_dense_regression(32, 4, seed=0)
    p = LeastSquaresProblem(X, y, lam=0.1)
    w = rng.standard_normal(4)
    assert np.allclose(p.reg_grad(w, 10), 10 * 0.1 * w)
    p0 = LeastSquaresProblem(X, y)
    assert np.allclose(p0.reg_grad(w, 10), 0.0)


# -- sparse mini-batches: bincount products against scipy's operators ---------

@settings(max_examples=300, deadline=None)
@given(csr_block_and_idx(), st.integers(0, 2**32 - 1))
@pytest.mark.parametrize(
    "cls", [LeastSquaresProblem, LogisticRegressionProblem]
)
def test_sparse_minibatch_kernels_equal_the_scipy_operators(cls, case, seed):
    """``Csr`` products accumulate in scipy's loop order: same bits."""
    block, idx = case
    problem = cls(np.zeros((1, block.dim)), np.ones(1))
    w = np.random.default_rng(seed).standard_normal(block.dim)
    sub = block.take_rows(idx)
    X_ref, y_ref = to_scipy(block.X)[idx], block.y[idx]
    assert sparse.issparse(X_ref) and type(sub.X) is Csr
    assert np.array_equal(
        problem.grad_sum(sub.X, sub.y, w), problem.grad_sum(X_ref, y_ref, w)
    )
    assert problem.loss_sum(sub.X, sub.y, w) == problem.loss_sum(X_ref, y_ref, w)


@pytest.mark.parametrize(
    "cls", [LeastSquaresProblem, LogisticRegressionProblem]
)
def test_both_sparse_forms_agree_on_a_large_batch(cls):
    """rcv1-shaped batch (500 rows x ~75 nonzeros, far past the 4096
    nonzeros where the array path used to hand over to scipy): the
    problem's kernels on the ``Csr`` gather and on scipy's ``X[idx]`` of
    the same rows give the same bits."""
    X = sparse.random(2000, 5000, density=0.015, format="csr", random_state=1)
    rng = np.random.default_rng(1)
    block = MatrixBlock(X=X, y=np.where(rng.random(2000) < 0.5, -1.0, 1.0))
    idx = np.sort(rng.choice(2000, 500, replace=False))
    w = rng.standard_normal(5000)
    problem = cls(np.zeros((1, 5000)), np.ones(1))
    by_arrays, by_scipy, y = block.take_rows(idx), X[idx], block.y[idx]
    assert type(by_arrays.X) is Csr and by_arrays.X.nnz > 4096
    assert np.array_equal(
        problem.grad_sum(by_arrays.X, by_arrays.y, w),
        problem.grad_sum(by_scipy, y, w),
    )
    assert problem.loss_sum(by_arrays.X, by_arrays.y, w) == problem.loss_sum(
        by_scipy, y, w
    )
