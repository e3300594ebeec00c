"""Table 1 parity: every operation the paper's API lists exists here.

=====================  ==========================================
Paper (Table 1)        repro
=====================  ==========================================
ASYNCreduce            RDD.async_reduce(f, AC)
ASYNCaggregate         RDD.async_aggregate(zero, seqOp, combOp, AC)
ASYNCbarrier           RDD.async_barrier(f, AC.stat)
ASYNCcollect()         AC.collect()
ASYNCcollectAll()      AC.collect_all()
ASYNCbroadcast(T)      AC.async_broadcast(value)
AC.STAT                AC.stat / AC.stat.snapshot()
AC.hasNext()           AC.has_next()
=====================  ==========================================
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import (
    ASP,
    BSP,
    SSP,
    ASAGARule,
    ASGDRule,
    ASVRGRule,
    ASYNCContext,
    BulkSynchronous,
    ClusterContext,
    DistributedOptimizer,
    ConstantStep,
    InvSqrtDecay,
    LeastSquaresProblem,
    LogisticRegressionProblem,
    MinAvailableFraction,
    OptimizerConfig,
    PolyDecay,
    RidgeProblem,
    StalenessScaled,
    UpdateRule,
)
from repro.engine.dispatch import Dispatcher
from repro.engine.rdd import RDD


def test_table1_actions_exist():
    assert callable(RDD.async_reduce)
    assert callable(RDD.async_aggregate)
    sig = inspect.signature(RDD.async_aggregate)
    assert list(sig.parameters) == [
        "self", "zero", "seq_op", "comb_op", "ac", "granularity",
    ]
    assert sig.parameters["granularity"].default == "worker"
    sig = inspect.signature(RDD.async_reduce)
    assert list(sig.parameters) == ["self", "f", "ac", "granularity"]
    assert sig.parameters["granularity"].default == "worker"


def test_table1_transformations_exist():
    assert callable(RDD.async_barrier)
    sig = inspect.signature(RDD.async_barrier)
    assert list(sig.parameters) == ["self", "predicate", "stat"]


def test_table1_methods_exist():
    for name in ("collect", "collect_all", "async_broadcast", "has_next"):
        assert callable(getattr(ASYNCContext, name))
    assert isinstance(
        inspect.getattr_static(ASYNCContext, "version"), property
    )


def test_ac_stat_exposes_worker_status(ctx):
    ac = ASYNCContext(ctx)
    snap = ac.stat.snapshot()
    assert len(snap) == ctx.num_workers
    for row in snap:
        for key in ("worker_id", "available", "last_staleness",
                    "avg_completion_ms"):
            assert key in row


def test_top_level_exports_constructible(ctx):
    X = np.random.default_rng(0).standard_normal((32, 4))
    y = X @ np.ones(4)
    for P in (LeastSquaresProblem, RidgeProblem):
        P(X, y) if P is LeastSquaresProblem else P(X, y, lam=0.1)
    LogisticRegressionProblem(X, np.where(y > 0, 1.0, -1.0))
    for s in (ConstantStep(0.1), InvSqrtDecay(0.1), PolyDecay(0.1),
              StalenessScaled(ConstantStep(0.1))):
        assert s.alpha(1, 0) > 0
    for b in (ASP(), BSP(), SSP(2), MinAvailableFraction(0.5)):
        assert hasattr(b, "ready")
    assert issubclass(ClusterContext, object)
    assert hasattr(DistributedOptimizer, "run")
    for rule in (ASGDRule, ASAGARule, ASVRGRule, BulkSynchronous):
        assert issubclass(rule, UpdateRule)
    OptimizerConfig()


def test_top_level_run_grid_is_the_api_function():
    """``repro.run_grid`` used to re-declare the signature and had fallen
    behind it (no ``fabric=``)."""
    import repro
    import repro.api

    assert inspect.signature(repro.run_grid) == inspect.signature(
        repro.api.run_grid
    )
    assert "fabric" in inspect.signature(repro.run_grid).parameters
    assert repro.run_experiment is repro.api.run_experiment


def test_version_string():
    import repro

    assert repro.__version__ == "1.1.0"


def test_design_scoreboard_only_goes_down():
    """ROADMAP's quality-of-design numbers, as a ratchet: lower a bound
    when a PR shrinks the surface, never raise one."""
    import importlib
    import importlib.util
    import pkgutil
    from dataclasses import fields

    import repro
    from repro.api import OPTIMIZERS
    from repro.optim.loop import ServerLoop

    assert len(fields(repro.ExperimentSpec)) <= 24
    assert len(fields(OptimizerConfig)) <= 8
    # The metrics log is a list: nothing sizes or windows it.
    for cls in (ClusterContext, Dispatcher):
        assert "metrics_retention" not in inspect.signature(cls).parameters
    # The engine reaches as far as the optimizers and Table 1 use it.
    retired = {
        "filter", "flat_map", "map_partitions", "map_partitions_with_index",
        "union", "glom", "zip_with_index", "reduce", "fold", "take", "first",
        "foreach_partition", "unpersist", "persist", "partitions",
    }
    assert not retired & set(dir(RDD))
    assert importlib.util.find_spec("repro.engine.dag") is None
    setup_py = Path(__file__).resolve().parents[1] / "setup.py"
    assert "networkx" not in setup_py.read_text()
    assert "networkx" not in _SET_UP_ONLY
    public = {
        name: attr for name, attr in vars(UpdateRule).items()
        if not name.startswith("_")
    }
    methods = [
        name for name, attr in public.items()
        if callable(attr) or isinstance(attr, property)
    ]
    flags = sorted(set(public) - set(methods))
    assert len(methods) <= 13, methods
    assert len(flags) <= 5, flags
    # One construction path: everything else a run is configured by is
    # read off the host optimizer.
    params = inspect.signature(ServerLoop.__init__).parameters
    assert list(params) == ["self", "opt", "rule", "restore_state"]
    assert params["restore_state"].default is None
    # One optimizer host and one loop: every algorithm, sync or async,
    # is its registered UpdateRule, not a flag on a wrapper class or a
    # host subclass with its own run().
    assert not hasattr(DistributedOptimizer, "is_async")
    assert DistributedOptimizer.__subclasses__() == []
    names = OPTIMIZERS.names()
    aliases = sorted(OPTIMIZERS._aliases)
    assert {"albfgs", "localsgd"} <= set(aliases)
    for name in (*names, *aliases):
        assert issubclass(OPTIMIZERS.get(name), UpdateRule), name
    synchronous = {
        name for name in names
        if issubclass(OPTIMIZERS.get(name), BulkSynchronous)
    }
    assert {"sgd", "saga", "svrg", "admm"} <= synchronous
    # One parallel sweep path: nothing to lend a pool to or switch
    # shared memory off for, and no pool to shut down.
    from repro.api import parallel

    assert list(inspect.signature(parallel.run_cells).parameters) == [
        "specs", "runner", "jobs",
    ]
    assert list(inspect.signature(parallel.run_sweep_cells).parameters) == [
        "specs", "progress", "runner", "decode", "jobs", "checkpoint",
        "resume", "fabric",
    ]
    # The paper's claims are one registry run by one function: no figure
    # drivers, no module-global setters, no per-claim pytest scripts.
    import repro.bench
    from repro.bench.claims import run_claims

    assert importlib.util.find_spec("repro.bench.figures") is None
    assert not [name for name in dir(repro.bench) if name.startswith("set_")]
    assert list(inspect.signature(run_claims).parameters) == [
        "names", "jobs", "checkpoint",
    ]
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    assert not [
        path.name for pattern in ("fig", "table", "ablation")
        for path in benchmarks.glob(f"bench_{pattern}*.py")
    ]
    # One spec type: every ``ExperimentSpec`` importable under ``repro``
    # is the same class.
    specs = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        found = getattr(importlib.import_module(info.name), "ExperimentSpec", None)
        if isinstance(found, type):
            specs.add(found)
    assert specs == {repro.ExperimentSpec}
    # One partition job with retry: no scheduler class, no job knobs on
    # the context, no broadcast registry.
    import repro.engine.scheduler as engine_scheduler
    from repro.core.scheduler import AsyncScheduler
    from repro.engine.broadcast import Broadcast

    assert not [
        name for name, attr in vars(engine_scheduler).items()
        if isinstance(attr, type)
        and attr.__module__ == engine_scheduler.__name__
    ]
    with ClusterContext(num_workers=2) as ctx:
        assert not hasattr(ctx, "scheduler")
        assert not hasattr(ctx, "broadcast_manager")
    assert list(inspect.signature(ClusterContext.run_job).parameters) == [
        "self", "rdd", "func",
    ]
    assert not hasattr(Broadcast, "destroy")
    assert not hasattr(AsyncScheduler, "_dispatch_partition")


# ---------------------------------------------------------------------------
# Import diet: what every exec'd worker and CLI start pays before work
# ---------------------------------------------------------------------------

def _fresh_interpreter(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120.0,
    )
    assert proc.returncode == 0, proc.stderr


_SET_UP_ONLY = ("scipy.optimize", "scipy.linalg.interpolative")


def test_import_repro_leaves_set_up_only_libraries_unloaded():
    """Module names, never wall-clock: ``scipy.optimize`` serves one
    reference-optimum solve."""
    _fresh_interpreter(f"""
import sys
import repro
loaded = [m for m in {_SET_UP_ONLY!r} if m in sys.modules]
assert not loaded, ("import repro", loaded)
import repro.fabric.worker
loaded = [m for m in {_SET_UP_ONLY!r} if m in sys.modules]
assert not loaded, ("import repro.fabric.worker", loaded)
import repro.api.parallel
import repro.bench.claims
assert "concurrent.futures.process" not in sys.modules  # no pool tier
""")


def test_lazy_scipy_imports_fire_where_they_are_used():
    _fresh_interpreter("""
import sys
import numpy as np
import repro
from repro.data.synthetic import make_classification

assert "scipy.linalg" not in sys.modules
result = repro.run_experiment({
    "algorithm": "aadmm", "dataset": "tiny_dense", "num_workers": 2,
    "num_partitions": 4, "max_updates": 8, "seed": 0,
})
assert result.updates == 8 and np.isfinite(result.w).all()
assert "scipy.linalg" in sys.modules

X, y, _ = make_classification(64, 4, seed=0)
problem = repro.LogisticRegressionProblem(X, y)
assert "scipy.optimize" not in sys.modules
assert np.isfinite(problem.w_star).all()
assert "scipy.optimize" in sys.modules
""")
