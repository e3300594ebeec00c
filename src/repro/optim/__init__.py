"""Optimization algorithms: the paper's case studies plus extensions.

Synchronous (Spark-style BSP) and asynchronous (ASYNC) variants of:

- mini-batch SGD (Algorithms 1 & 2),
- SAGA (Algorithms 3 & 4), with both the naive full-table broadcast the
  paper criticizes and the history broadcast it contributes,
- SVRG-style epoch-based variance reduction (Listing 3),

plus asynchronous L-BFGS, staleness-adaptive step sizes (Listing 1) and
single-process reference implementations used for the MLlib comparison
(Figure 2).

Every variant, synchronous or asynchronous, shares one driver —
:class:`repro.optim.loop.ServerLoop` — and each is only an
:class:`repro.optim.loop.UpdateRule` with its mathematics, registered
under its algorithm name; a synchronous variant is its asynchronous rule
with :class:`repro.optim.loop.BulkSynchronous` mixed in. All components
self-register with :mod:`repro.api.registry`; :func:`build_optimizer`
turns a name into a runnable optimizer (sync or async) for the object
API, and ``repro.api.run_experiment`` does the same from a spec.
"""

from repro.optim.asaga import ASAGARule, SAGARule
from repro.optim.asgd import ASGDRule
from repro.optim.base import (
    DistributedOptimizer,
    OptimizerConfig,
    RunResult,
    build_optimizer,
)
from repro.optim.lbfgs import AsyncLBFGSRule
from repro.optim.loop import BulkSynchronous, ServerLoop, UpdateRule
from repro.optim.problems import (
    LeastSquaresProblem,
    LogisticRegressionProblem,
    Problem,
    RidgeProblem,
)
from repro.optim.reference import reference_saga, reference_sgd
from repro.optim.sgd import SGDRule
from repro.optim.stepsize import (
    ConstantStep,
    InvSqrtDecay,
    StalenessScaled,
    StepSchedule,
)
from repro.optim.svrg import ASVRGRule, SVRGRule
from repro.optim.trace import ConvergenceTrace

__all__ = [
    "Problem",
    "LeastSquaresProblem",
    "RidgeProblem",
    "LogisticRegressionProblem",
    "StepSchedule",
    "ConstantStep",
    "InvSqrtDecay",
    "StalenessScaled",
    "OptimizerConfig",
    "RunResult",
    "ConvergenceTrace",
    "DistributedOptimizer",
    "build_optimizer",
    "ServerLoop",
    "UpdateRule",
    "BulkSynchronous",
    "SGDRule",
    "ASGDRule",
    "SAGARule",
    "ASAGARule",
    "SVRGRule",
    "ASVRGRule",
    "AsyncLBFGSRule",
    "reference_sgd",
    "reference_saga",
]
