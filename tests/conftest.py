"""Shared fixtures: small deterministic datasets and cluster contexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cost import AnalyticCostModel
from repro.cluster.network import NetworkModel
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.optim.problems import LeastSquaresProblem


@pytest.fixture
def small_data():
    """A small, well-conditioned dense regression instance."""
    X, y, w_true = make_dense_regression(256, 8, cond=4.0, seed=7)
    return X, y, w_true


@pytest.fixture
def small_problem(small_data):
    X, y, _ = small_data
    return LeastSquaresProblem(X, y)


@pytest.fixture
def ctx():
    """A 4-worker simulated cluster, torn down after the test."""
    c = ClusterContext(
        num_workers=4,
        cost_model=AnalyticCostModel(overhead_ms=1.0, ms_per_unit=0.01),
        network=NetworkModel(),
    )
    yield c
    c.stop()


@pytest.fixture
def ctx8():
    """An 8-worker simulated cluster."""
    c = ClusterContext(num_workers=8)
    yield c
    c.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(123)
