"""repro — a full reproduction of ASYNC (IPDPS 2020).

ASYNC is a cloud engine extending a Spark-like dataflow system with the
three capabilities asynchronous optimization needs: worker bookkeeping
(STAT), barrier-controlled asynchronous scheduling, and history-aware
broadcast for variance-reduced methods.

Experiments are data first: a JSON-serializable spec resolved through
string-keyed component registries (see :mod:`repro.api`), runnable from
Python or the ``python -m repro`` CLI::

    from repro import run_experiment

    result = run_experiment({
        "algorithm": "asgd",           # any registered optimizer
        "dataset": "mnist8m_like",
        "num_workers": 8,
        "delay": "cds:1.0",            # one worker at half speed
        "policy": "ssp:4",             # stale-synchronous, s=4
        "max_updates": 200,
    })
    print(result.updates, result.extras["max_staleness_seen"])

The object API underneath remains fully available — the same run,
hand-wired::

    from repro import (
        ClusterContext, LeastSquaresProblem, OptimizerConfig,
        InvSqrtDecay, SSP, build_optimizer,
    )
    from repro.cluster import ControlledDelay
    from repro.data import make_dense_regression

    X, y, _ = make_dense_regression(4096, 32, seed=0)
    with ClusterContext(num_workers=8,
                        delay_model=ControlledDelay(1.0, workers=(0,))) as sc:
        points = sc.matrix(X, y, 32).cache()
        problem = LeastSquaresProblem(X, y)
        result = build_optimizer(
            "asgd", sc, points, problem,
            InvSqrtDecay(0.5).scaled_for_async(8),
            OptimizerConfig(batch_fraction=0.1, max_updates=200),
            policy=SSP(4),
        ).run()
        print(result.final_error(problem))

Every optimizer, synchronous or asynchronous, shares one driver,
:class:`repro.optim.loop.ServerLoop`; an algorithm is just an
:class:`repro.optim.loop.UpdateRule` (publish / kernel / reduce / apply)
registered under its name, and its synchronous variant is the same rule
with :class:`repro.optim.loop.BulkSynchronous` mixed in — which is what
makes the paper's "sync -> async in a few extra lines" literal here.
"""

from repro.api.spec import ExperimentSpec, GridSpec
from repro.core.context import ASYNCContext
from repro.core.history import HistoryChannel, HistoryStore, RetentionPolicy
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    MinAvailableFraction,
    SchedulingPolicy,
)
from repro.engine.context import ClusterContext
from repro.optim.asaga import ASAGARule
from repro.optim.asgd import ASGDRule
from repro.optim.base import (
    DistributedOptimizer,
    OptimizerConfig,
    RunResult,
    build_optimizer,
)
from repro.optim.lbfgs import AsyncLBFGSRule
from repro.optim.problems import (
    LeastSquaresProblem,
    LogisticRegressionProblem,
    Problem,
    RidgeProblem,
)
from repro.optim.stepsize import (
    ConstantStep,
    InvSqrtDecay,
    StalenessScaled,
)
from repro.optim.loop import BulkSynchronous, ServerLoop, UpdateRule
from repro.optim.svrg import ASVRGRule


def __getattr__(name: str):
    # The spec runner pulls in the whole library; it loads on first use
    # and is exported as is, so there is one signature to keep.
    if name in ("run_experiment", "run_grid"):
        from repro.api import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.1.0"

__all__ = [
    "ClusterContext",
    "ASYNCContext",
    "HistoryStore",
    "HistoryChannel",
    "RetentionPolicy",
    "SchedulingPolicy",
    "ASP",
    "BSP",
    "SSP",
    "MinAvailableFraction",
    "CompletionTimeBarrier",
    "Problem",
    "LeastSquaresProblem",
    "RidgeProblem",
    "LogisticRegressionProblem",
    "ConstantStep",
    "InvSqrtDecay",
    "StalenessScaled",
    "OptimizerConfig",
    "RunResult",
    "DistributedOptimizer",
    "build_optimizer",
    "ASGDRule",
    "ASAGARule",
    "ASVRGRule",
    "AsyncLBFGSRule",
    "ServerLoop",
    "UpdateRule",
    "BulkSynchronous",
    "ExperimentSpec",
    "GridSpec",
    "run_experiment",
    "run_grid",
    "__version__",
]
