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

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    for s in (ConstantStep(0.1), InvSqrtDecay(0.1),
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
    assert importlib.util.find_spec("repro.metrics.tracing") is None
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
    assert len(methods) <= 9, methods
    assert len(flags) <= 1, flags
    # The round, its epochs and its step belong to the loop and the plan:
    # the retired driver hooks stay gone, the loop keeps no epoch state
    # and a plan's submit takes no per-call sync switch.
    from repro.core.ops import RoundPlan

    for gone in ("dispatch", "effective_granularity", "begin_epoch",
                 "history", "epoch_length", "needs_alpha", "granularity"):
        assert gone not in vars(UpdateRule), gone
    assert "apply_round" not in vars(BulkSynchronous)
    assert "epoch_left" not in inspect.getsource(ServerLoop)
    assert list(inspect.signature(RoundPlan.submit).parameters) == [
        "self", "handle", "seed",
    ]
    # Two policy hooks: when a round may go, and to which workers; no
    # target selection and no composition.
    import repro.core
    from repro.core.history import HistoryStore
    from repro.core.policies import POLICY_HOOKS, SchedulingPolicy

    assert POLICY_HOOKS == ("ready", "eligible")
    for gone in ("select", "__and__", "__or__"):
        assert gone not in vars(SchedulingPolicy), gone
    for gone in ("Target", "AndPolicy", "OrPolicy", "parse_policy"):
        assert not hasattr(repro.core, gone), gone
    # One construction path: everything a run is configured by — its
    # restore state included — is read off the host optimizer.
    params = inspect.signature(ServerLoop.__init__).parameters
    assert list(params) == ["self", "opt", "rule"]
    # HIST is never serialized: a run snapshot is the iterate and its
    # counters, and each rule rebuilds its server state at a restore.
    from repro.core.history import HistoryChannel

    for cls in (HistoryStore, HistoryChannel, ServerLoop):
        for gone in ("snapshot", "restore", "state_dict", "_restore"):
            assert not hasattr(cls, gone), (cls.__name__, gone)
    # One optimizer host and one loop: every algorithm, sync or async,
    # is its registered UpdateRule, not a flag on a wrapper class or a
    # host subclass with its own run().
    assert not hasattr(DistributedOptimizer, "is_async")
    assert DistributedOptimizer.__subclasses__() == []
    names = OPTIMIZERS.names()
    aliases = sorted(OPTIMIZERS._aliases)
    assert "albfgs" in aliases
    for name in (*names, *aliases):
        assert issubclass(OPTIMIZERS.get(name), UpdateRule), name
    synchronous = {
        name for name in names
        if issubclass(OPTIMIZERS.get(name), BulkSynchronous)
    }
    assert {"sgd", "saga", "svrg"} <= synchronous
    # One parallel sweep path: nothing to lend a pool to or switch
    # shared memory off for, and no pool to shut down.
    from repro.api import parallel

    assert list(inspect.signature(parallel.run_sweep_cells).parameters) == [
        "specs", "progress", "jobs", "checkpoint", "resume", "fabric",
    ]
    # One cell function and one record: no runner names, no decoder,
    # no second cell body or bench-only run path.
    import repro.api
    import repro.bench.harness

    assert not hasattr(parallel, "run_cells")
    assert not hasattr(repro.api, "run_cells")
    for name in ("resolve_runner", "_bench_cell", "_summary_cell"):
        assert not hasattr(parallel, name), name
    assert not hasattr(repro.bench.harness, "run_api_experiment")
    assert not hasattr(repro.bench.harness.ExperimentResult, "to_dict")
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


#: Registered components nothing uses yet, each with why it stays. An
#: optimizer, policy or compressor is used when a ``CLAIMS`` cell names
#: it; any other component when a ``CLAIMS`` cell, a shipped spec
#: (``examples/specs/*.json``), an example script or a default does.
#: This dict may only shrink: a name leaves it when something starts
#: using it, or when the component is deleted.
PENDING_ROW = {
    "svrg": "SVRG's claim row: a speedup over SGD, or its deletion",
    "asvrg": "the asynchronous half of SVRG's pending claim row",
    "ct": "the completion-time barrier's pending claim row",
    "ridge": "the regularized objective SVRG's pending claim row runs on",
    "random_kill": "the seeded kills SAGA's worker-loss claim row runs on",
    "tiny_sparse": "the sparse test fixture, resolved by name in test "
                   "workers started with exec rather than fork",
}

REPO = Path(__file__).resolve().parents[1]

#: Spec fields (at any depth: a grid's base and axes included) that name
#: a registered component; ``barrier`` is ``policy``'s old spelling.
_COMPONENT_FIELDS = {
    "algorithm": "optimizer", "policy": "policy", "barrier": "policy",
    "compressor": "compressor", "problem": "problem",
    "step": "step schedule", "delay": "delay model",
    "fault_plan": "fault plan", "dataset": "dataset",
}


def _registries() -> dict:
    """Registry kind -> ``(names, canonical, get)``: the seven component
    registries and the dataset table."""
    import repro.api.runner  # noqa: F401  (populates every registry)
    from repro.api.registry import (
        COMPRESSORS, DELAY_MODELS, FAULT_PLANS, OPTIMIZERS, POLICIES,
        PROBLEMS, STEPS,
    )
    from repro.data.registry import REGISTRY

    out = {
        r.kind: (r.names(), r.canonical, r.get)
        for r in (OPTIMIZERS, POLICIES, COMPRESSORS, PROBLEMS, STEPS,
                  DELAY_MODELS, FAULT_PLANS)
    }
    out["dataset"] = (sorted(REGISTRY), str, REGISTRY.get)
    return out


def _component_names(value):
    """Registry names a component value spells: a name or ``name:arg``
    token, a dict with ``name`` (a wrapper step's ``inner`` too), or a
    list of them (a grid axis)."""
    if isinstance(value, str):
        yield value.strip().split(":", 1)[0]
    elif isinstance(value, dict) and isinstance(value.get("name"), str):
        yield value["name"]
        yield from _component_names(value.get("inner"))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _component_names(item)


def _spec_uses(data, used: dict) -> None:
    """Add every component a spec-shaped value names to ``used``."""
    if isinstance(data, dict):
        for key, value in data.items():
            kind = _COMPONENT_FIELDS.get(key)
            if kind is not None:
                used.setdefault(kind, set()).update(_component_names(value))
            _spec_uses(value, used)
    elif isinstance(data, (list, tuple)):
        for item in data:
            _spec_uses(item, used)


def _example_uses(used: dict, registries: dict) -> None:
    """Components the example scripts use: spec dicts written as
    literals, and registered classes or factories referenced by name."""
    referenced = set()
    for path in sorted((REPO / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Dict):
                literal = {}
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant):
                        try:
                            literal[key.value] = ast.literal_eval(value)
                        except ValueError:
                            continue
                _spec_uses(literal, used)
    for kind, (names, _, get) in registries.items():
        used.setdefault(kind, set()).update(
            name for name in names
            if getattr(get(name), "__name__", None) in referenced
        )


def _default_uses(used: dict) -> None:
    """What a default builds: ``ExperimentSpec()``'s component fields,
    the null fault plan an unset ``fault_plan`` stands for, and every
    step schedule ``default_step`` builds for a registered optimizer."""
    from repro.api import OPTIMIZERS
    from repro.api.runner import default_step
    from repro.api.spec import ExperimentSpec
    from repro.optim.stepsize import (
        ConstantStep, InvSqrtDecay, StalenessScaled, _Scaled,
    )

    _spec_uses(ExperimentSpec().to_dict(), used)
    used.setdefault("fault plan", set()).add("none")
    # A built schedule counts for every registered name that builds its
    # class: ``scaled`` and ``scaled_for_async`` both make a ``_Scaled``.
    by_class = {
        ConstantStep: {"constant"}, InvSqrtDecay: {"inv_sqrt"},
        StalenessScaled: {"staleness_scaled"},
        _Scaled: {"scaled", "scaled_for_async"},
    }
    steps = used.setdefault("step schedule", set())
    for algorithm in OPTIMIZERS.names():
        for adaptive in (False, True):
            step = default_step(algorithm, 0.1, 4, adaptive)
            while step is not None:
                steps.update(by_class[type(step)])
                step = getattr(step, "inner", None)


def _used_components(registries: dict) -> tuple[dict, dict]:
    """``(claimed, used)``: canonical names per registry kind over every
    ``CLAIMS`` cell, and over every use the rule above counts."""
    from repro.api.spec import GridSpec
    from repro.bench.claims import CLAIMS

    claimed: dict = {}
    for claim in CLAIMS.values():
        for cell in claim.cells.values():
            _spec_uses(cell.to_dict(), claimed)
    used = {kind: set(names) for kind, names in claimed.items()}
    for path in sorted((REPO / "examples" / "specs").glob("*.json")):
        data = json.loads(path.read_text())
        GridSpec.coerce(data)  # a shipped spec loads
        _spec_uses(data, used)
    _example_uses(used, registries)
    _default_uses(used)
    return tuple(
        {kind: {registries[kind][1](n) for n in names}
         for kind, names in found.items()}
        for found in (claimed, used)
    )


def test_every_component_has_a_claim_or_is_pending():
    """No use, no registration: a registered optimizer, policy or
    compressor appears in some ``CLAIMS`` cell, and any other component
    in a claim cell, a shipped spec, an example or a default, or the
    name is pending with a reason."""
    registries = _registries()
    claimed, used = _used_components(registries)
    claims_only = {"optimizer", "policy", "compressor"}
    unused = set()
    for kind, (names, _, get) in registries.items():
        # Built-in components only: a test module may register its own.
        builtin = {
            name for name in names
            if kind == "dataset" or get(name).__module__.startswith("repro.")
        }
        reached = (claimed if kind in claims_only else used).get(kind, set())
        unused |= builtin - reached
    assert unused <= set(PENDING_ROW), sorted(unused - set(PENDING_ROW))
    # A pending name that gained a use (or was deleted) leaves the dict.
    assert set(PENDING_ROW) <= unused, sorted(set(PENDING_ROW) - unused)
    assert all(reason.strip() for reason in PENDING_ROW.values())


#: Exports kept for users outside the repository's own code, each with
#: why. Everything else in an ``__all__`` is referenced from ``src/``,
#: ``examples/`` or ``benchmarks/``, or is a registered component.
PUBLIC_API = (
    ("ASYNCContext", "Table 1: the AC the verbs and collect calls go through"),
    ("async_reduce", "Table 1: ASYNCreduce"),
    ("async_aggregate", "Table 1: ASYNCaggregate"),
    ("async_barrier", "Table 1: ASYNCbarrier"),
    ("run_experiment", "the library's one call: a spec in, a RunResult out"),
    ("read_snapshot", "restore: reads the run snapshot a restore resumes"),
    ("load_libsvm", "the route to the paper's real datasets (LIBSVM text)"),
    ("dump_libsvm", "writes the LIBSVM text the loader reads"),
    ("reference_saga", "test oracle: the sequential SAGA runs agree with"),
    ("metrics_to_csv", "the task log export CI compares byte for byte"),
)


def _exports() -> dict:
    """``__all__`` name -> the modules under ``src/repro`` listing it."""
    exports: dict = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    exports.setdefault(name, []).append(module)
    return exports


def _referenced_names() -> set:
    """Every name and attribute read in ``src/``, ``examples/`` and
    ``benchmarks/``, outside ``__all__`` lists and import statements."""
    found = set()
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            skip = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets
                    )
                ):
                    skip.update(map(id, ast.walk(node)))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
    return found


def test_every_export_has_a_user():
    """An AST scan, no tracing: every ``__all__`` name under
    ``src/repro`` is used by the package, an example or the benchmark,
    is reached through a registry, or is declared in ``PUBLIC_API``."""
    import importlib

    exports = _exports()
    public = dict(PUBLIC_API)
    assert len(public) == len(PUBLIC_API)
    assert set(public) <= set(exports), sorted(set(public) - set(exports))
    assert all(reason.strip() for reason in public.values())
    registered = {
        id(get(name))
        for names, _, get in _registries().values() for name in names
    }
    referenced = _referenced_names()
    unused = sorted(
        f"{modules[0]}.{name}" for name, modules in exports.items()
        if name not in referenced and name not in public
        and id(getattr(importlib.import_module(modules[0]), name))
        not in registered
    )
    assert not unused, unused


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


#: What no part of the package loads: scipy is a test-only import, the
#: oracle of the parity tests (sparse data is NumPy's ``Csr``, the
#: logistic optimum a NumPy Newton–CG solve).
_SET_UP_ONLY = ("scipy",)

_LOADED = f"""
def loaded():
    return sorted(
        m for m in sys.modules if m.partition(".")[0] in {_SET_UP_ONLY!r}
    )
"""


def test_import_repro_leaves_set_up_only_libraries_unloaded():
    """Module names, never wall-clock."""
    _fresh_interpreter(f"""
import sys
{_LOADED}
import repro
assert not loaded(), ("import repro", loaded())
import repro.fabric.worker
assert not loaded(), ("import repro.fabric.worker", loaded())
import repro.api.parallel
import repro.bench.claims
assert "concurrent.futures.process" not in sys.modules  # no pool tier
""")


def test_no_run_loads_scipy(tmp_path):
    """``import repro``, a sparse ASAGA spec end to end (its ``F*`` is a
    least-squares solve over CSR data), a dense logistic one, the LIBSVM
    reader and writer, and a CSR shared-memory publish and attach."""
    path = str(tmp_path / "data.libsvm")
    _fresh_interpreter(f"""
import sys
{_LOADED}
import repro
from repro.api.runner import prepare_experiment, summarize
from repro.data import shm
from repro.data.libsvm import dump_libsvm, load_libsvm
from repro.data.registry import get_dataset

def run(dataset, **spec):
    prep = prepare_experiment(dict(
        dataset=dataset, max_updates=40, eval_every=20, seed=0, **spec,
    ))
    summary = summarize(prep, prep.execute())  # F(w) - F*: solves F*
    assert summary["final_error"] < summary["initial_error"]

run("rcv1_like", algorithm="asaga", params={{"mode": "history"}},
    policy="ssp:4", num_workers=4)
run("synth_logistic", algorithm="asgd", problem="logistic")
X, y, _ = get_dataset("tiny_sparse", seed=0)
dump_libsvm(X, y, {path!r})
X2, y2 = load_libsvm({path!r}, n_features=X.shape[1])
assert X2.nnz == X.nnz and (y2 == y).all()
pub = shm.publish_dataset("tiny_sparse", 0)
if pub is not None:
    Xs, ys, _ = shm.attach_dataset(pub.manifest)
    assert (Xs.indptr == X.indptr).all() and (Xs.data == X.data).all()
    shm.detach_all()
    pub.unlink()
assert not loaded(), loaded()
""")


def _importers_of(top: str, *, skip: str = "") -> list[str]:
    """``path:line`` of every ``import top`` / ``from top`` in the
    package, at any depth (function bodies and ``TYPE_CHECKING`` blocks
    included), outside the subpackage ``skip``."""
    src = Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src).as_posix()
        if skip and where.startswith(skip):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n.partition(".")[0] == top for n in names):
                offenders.append(f"{where}:{node.lineno}")
    return offenders


def test_no_module_under_src_imports_scipy():
    """The ratchet behind ``install_requires=["numpy"]``: no ``import
    scipy`` or ``from scipy`` anywhere in the package."""
    offenders = _importers_of("scipy")
    assert not offenders, offenders


def test_the_engine_is_single_threaded():
    """One backend, the simulation, on the driver's thread: only the
    sweep fabric (worker processes, a coordinator with connection
    threads) imports ``threading``, and no thread backend, wall clock,
    clock interface or host timeout is left to reach for."""
    import importlib.util

    import repro.cluster
    from repro.cluster.simbackend import SimBackend

    offenders = _importers_of("threading", skip="repro/fabric/")
    assert not offenders, offenders
    for gone in ("ThreadBackend", "WallClock", "Clock", "Backend"):
        assert not hasattr(repro.cluster, gone), gone
    assert importlib.util.find_spec("repro.cluster.threadbackend") is None
    assert list(inspect.signature(SimBackend.run_until).parameters) == [
        "self", "predicate",
    ]
    assert "job_timeout_s" not in inspect.signature(ClusterContext).parameters


def test_the_cluster_reads_no_wall_clock_and_draws_nothing():
    """A simulated run depends only on its spec: outside the sweep
    fabric nothing imports ``time``, virtual time is a float on
    ``SimBackend``, a task's cost depends only on the task, and neither
    the backend nor the context takes a seed of its own."""
    import importlib.util

    import repro.cluster
    from repro.cluster.simbackend import SimBackend

    offenders = _importers_of("time", skip="repro/fabric/")
    assert not offenders, offenders
    for gone in ("VirtualClock", "MeasuredCostModel", "TaskCostModel"):
        assert not hasattr(repro.cluster, gone), gone
    assert importlib.util.find_spec("repro.cluster.clock") is None
    assert "seed" not in inspect.signature(SimBackend).parameters
    assert "seed" not in inspect.signature(ClusterContext).parameters


def test_worker_liveness_has_one_home():
    """A worker's liveness is its backend ``WorkerEnv.alive``: only
    ``repro/cluster/`` assigns an ``.alive``, STAT rows derive ``alive``
    and ``available`` instead of storing them, and nothing that re-syncs
    a copy is left."""
    from repro.cluster.faultplan import FaultPlanDriver
    from repro.cluster.simbackend import SimBackend
    from repro.core.coordinator import Coordinator
    from repro.core.records import WorkerStatus

    src = Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src).as_posix()
        if where.startswith("repro/cluster/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == "alive":
                        offenders.append(f"{where}:{node.lineno}")
    assert not offenders, offenders
    for name in ("alive", "available"):
        assert name not in WorkerStatus.__slots__, name
        assert isinstance(
            inspect.getattr_static(WorkerStatus, name), property
        ), name
    assert not hasattr(ASYNCContext, "refresh_workers")
    assert not hasattr(SimBackend, "worker_alive")
    assert list(inspect.signature(FaultPlanDriver).parameters) == [
        "plan", "backend",
    ]
    assert list(inspect.signature(Coordinator).parameters) == ["stat"]


@pytest.mark.parametrize("spec", [
    # Fused BSP rounds on dense least squares, as in asgd_bsp_wide.
    {"algorithm": "asgd", "dataset": "tiny_dense", "policy": "bsp"},
    {"algorithm": "saga", "dataset": "tiny_dense"},
    {"algorithm": "asaga", "dataset": "rcv1_like", "policy": "ssp:2"},
], ids=["asgd-dense", "saga-dense", "asaga-sparse"])
def test_a_run_imports_nothing(spec):
    """Every module a run needs is loaded by ``prepare_experiment``: an
    import inside ``run_in`` would land in the benchmark's counted pass
    (numpy 2's first ``np.unique`` imports ``numpy.ma``)."""
    spec = dict(spec, num_workers=4, max_updates=24, eval_every=12, seed=0)
    _fresh_interpreter(f"""
import sys
from repro.api.runner import prepare_experiment

prep = prepare_experiment({spec!r})
with prep.make_context() as ctx:
    before = set(sys.modules)
    prep.run_in(ctx)
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
""")
