"""Figure/table drivers: regenerate every evaluation artifact of the paper.

Each ``fig*``/``table*`` function runs the experiment cells behind one
paper figure, returns a structured dict (headers + rows + raw cells) and
can pretty-print the table.

Drivers are spec-routed: a figure's cells are :data:`PAPER_CELL` with
overrides, expressed as :class:`~repro.api.GridSpec` sweeps (or explicit
spec lists where an axis carries a dependent parameter, e.g. the
per-dataset PCS batch fraction), and execute through the shared sweep
engine in :mod:`repro.api.parallel` — call :func:`set_jobs` to fan each
driver batch's cells across that many forked workers (``set_fabric`` to
serve them to other hosts as well). Results are memoized
in a per-process cache keyed on each cell's canonical spec JSON
(:func:`repro.api.parallel.run_key`), so figure pairs sharing runs
(Fig 3 & 4; Fig 5 & 6; Fig 7/8 & Table 3) pay for them once and the
cache identity survives process boundaries.

Budgets are parameterized (``sync_updates``/``async_updates``) with fast
defaults tuned for the pytest-benchmark harness; pass larger budgets for
paper-scale curves.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

from repro.api.parallel import run_key, run_sweep_cells
from repro.api.registry import OPTIMIZERS
from repro.api.spec import ExperimentSpec, GridSpec
from repro.bench.harness import ExperimentResult
from repro.data.registry import REGISTRY
from repro.optim.reference import reference_sgd
from repro.utils.tables import format_table

__all__ = [
    "fig2_sync_sgd_vs_reference",
    "fig3_cds_sgd",
    "fig4_wait_sgd",
    "fig5_cds_saga",
    "fig6_wait_saga",
    "fig7_pcs_sgd",
    "fig8_pcs_saga",
    "table2_datasets",
    "table3_wait_pcs",
    "ablation_broadcast",
    "ablation_barriers",
    "ablation_staleness_lr",
    "ablation_compression",
    "ablation_granularity",
    "ablation_history_depth",
    "ablation_policies",
    "PAPER_CELL",
    "set_jobs",
    "set_fabric",
    "set_checkpoint",
    "clear_cache",
]

#: The evaluation's cell shape (Section 6.1): 8 workers x 32 partitions
#: on the mnist8m analog, a snapshot every other update, a cost model
#: under which a mini-batch task costs a few ms (like the paper's
#: per-iteration times) and a 10 GbE interconnect. The paper's figures
#: and the ablations of its design claims are this spec with overrides,
#: asynchronous cells naming their policy (the two later ablations —
#: compression, L-BFGS history depth — state their own smaller cell).
PAPER_CELL = ExperimentSpec(
    algorithm="sgd", dataset="mnist8m_like", num_workers=8,
    num_partitions=32, eval_every=2,
    cost={"overhead_ms": 1.0, "ms_per_unit": 0.01},
    network={"latency_ms": 0.25, "bandwidth_bytes_per_ms": 1.25e6},
)

CDS_DELAYS = (0.0, 0.3, 0.6, 1.0)
CDS_DATASETS = ("mnist8m_like", "epsilon_like", "rcv1_like")
PCS_DATASETS = ("mnist8m_like", "epsilon_like")

#: Completed cells, keyed on canonical spec JSON (shared across drivers);
#: bounded — oldest entries are evicted past _CACHE_MAX, matching the
#: memory ceiling of the lru_cache this replaced.
_RESULTS: dict[str, ExperimentResult] = {}
_CACHE_MAX = 256
#: Worker processes for cell execution (1 = in-process, <= 0 = all cores).
_JOBS = 1
#: JSONL checkpoint stream for figure cells (``set_checkpoint``); rows
#: restore by canonical spec key, so any driver batch reuses them.
_CHECKPOINT: str | None = None
_RESUME = True
#: Sweep fabric options (``set_fabric``); ``None`` leaves the worker
#: count to ``set_jobs``.
_FABRIC = None


def set_jobs(jobs: int) -> None:
    """Fan subsequent figure cells across ``jobs`` worker processes.

    Each driver batch forks its workers from this process (a few
    milliseconds) and reaps them when its last cell lands, so nothing
    outlives a batch. ``jobs=1`` returns to in-process execution.
    """
    global _JOBS
    _JOBS = jobs


def set_checkpoint(path: str | None, resume: bool = True) -> None:
    """Stream figure cells to a JSONL checkpoint (``None`` disables).

    Every driver batch appends each finished cell to ``path`` in the
    :class:`repro.api.parallel.SweepCheckpoint` format and, with
    ``resume=True`` (default), restores any requested cell whose
    canonical spec key is already on file — so an interrupted or
    re-parameterized figure run only pays for missing cells, across
    processes and sessions. ``resume=False`` truncates the file before
    the next batch (subsequent batches of the same session append).
    """
    global _CHECKPOINT, _RESUME
    _CHECKPOINT = str(path) if path is not None else None
    _RESUME = resume


def set_fabric(fabric) -> None:
    """Route subsequent figure cells through the distributed sweep fabric.

    Any :func:`repro.fabric.parse_fabric` spelling works —
    ``"local:4"`` forks four local worker processes per batch, a
    ``"host:port"`` endpoint serves cells to externally-joined
    ``python -m repro sweep-worker`` processes. Figure drivers are
    unchanged: cells stream back as ``ExperimentResult`` rows exactly as
    under ``set_jobs``, and compose with ``set_checkpoint`` resume.
    ``None`` returns the worker count to ``set_jobs``.
    """
    global _FABRIC
    _FABRIC = fabric


def clear_cache() -> None:
    _RESULTS.clear()


def _cache_put(key: str, result: ExperimentResult) -> None:
    while len(_RESULTS) >= _CACHE_MAX:
        _RESULTS.pop(next(iter(_RESULTS)))
    _RESULTS[key] = result


def _run_specs(specs) -> list[ExperimentResult]:
    """Run specs through the sweep engine, memoized on spec JSON."""
    global _RESUME
    keys = [run_key(spec) for spec in specs]
    # Snapshot hits first: eviction while caching the fresh batch must
    # not drop entries this call is about to return.
    have = {key: _RESULTS[key] for key in keys if key in _RESULTS}
    todo: dict[str, ExperimentSpec] = {}
    for spec, key in zip(specs, keys):
        if key not in have and key not in todo:
            todo[key] = spec
    if todo:
        results = run_sweep_cells(
            list(todo.values()), runner="bench",
            decode=ExperimentResult.from_dict, jobs=_JOBS,
            checkpoint=_CHECKPOINT, resume=_RESUME and _CHECKPOINT is not None,
            fabric=_FABRIC,
        )
        if _CHECKPOINT is not None:
            # A fresh (resume=False) stream truncates once, then the
            # session's later batches append to it.
            _RESUME = True
        for key, result in zip(todo.keys(), results):
            have[key] = result
            _cache_put(key, result)
    return [have[key] for key in keys]


def _sweep(base: ExperimentSpec, axes: dict) -> dict[tuple, ExperimentResult]:
    """Run ``base`` x ``axes`` as a GridSpec sweep; results keyed by the
    axis-value combinations (row-major, matching ``GridSpec.expand``)."""
    results = _run_specs(GridSpec(base=base, grid=axes).expand())
    return dict(zip(itertools.product(*axes.values()), results))


def _table(title: str, headers: list, rows: list, verbose: bool,
           cells=None) -> dict:
    """What every driver returns: headers + rows (+ raw cells), printed
    as a table when ``verbose``."""
    out = {"headers": headers, "rows": rows}
    if cells is not None:
        out["cells"] = cells
    if verbose:
        print(format_table(headers, rows, title=title))
    return out


def _target_for(dataset: str, sync: ExperimentResult,
                asyn: ExperimentResult) -> float:
    """Common error target: the registry's relative target, loosened if a
    short run didn't get that far."""
    rel = REGISTRY[dataset].target_rel
    target = sync.initial_error * rel
    reachable = max(sync.final_error, asyn.final_error) * 1.05
    return max(target, reachable)


def _speedup(sync: ExperimentResult, asyn: ExperimentResult,
             target: float) -> float:
    ts, ta = sync.time_to_error(target), asyn.time_to_error(target)
    if math.isinf(ta):
        return 0.0
    if math.isinf(ts):
        return math.inf
    return ts / max(ta, 1e-9)


def _pair_cell(dataset: str, sync: ExperimentResult,
               asyn: ExperimentResult) -> dict:
    """One (sync, async) comparison: common target and time-to-target
    speedup."""
    target = _target_for(dataset, sync, asyn)
    return {"sync": sync, "async": asyn, "target": target,
            "speedup": _speedup(sync, asyn, target)}


def _pair_row(cell: dict) -> list:
    sync, asyn, target = cell["sync"], cell["async"], cell["target"]
    return [sync.time_to_error(target), asyn.time_to_error(target),
            cell["speedup"], sync.final_error, asyn.final_error]


def _time_to_target(dataset: str, res: ExperimentResult) -> float:
    """One run's time to the registry target (loosened like
    :func:`_target_for` when a short run didn't get that far)."""
    target = res.initial_error * REGISTRY[dataset].target_rel
    return res.time_to_error(max(target, res.final_error * 1.05))


# ---------------------------------------------------------------------------
# Figure 2 — sync SGD in the engine matches the MLlib-style reference.
# ---------------------------------------------------------------------------

def fig2_sync_sgd_vs_reference(
    datasets: tuple[str, ...] = CDS_DATASETS,
    iterations: int = 60,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Engine sync SGD vs single-process MLlib-style SGD, per iteration.

    The paper's Figure 2 shows the two trajectories coincide; we compare
    final errors after the same number of identical-step iterations.
    """
    from repro.data.registry import get_dataset
    from repro.optim.problems import LeastSquaresProblem

    engine_cells = _sweep(
        PAPER_CELL.with_overrides(
            max_updates=iterations, seed=seed, eval_every=iterations,
        ),
        {"dataset": list(datasets)},
    )
    rows = []
    cells = {}
    for ds in datasets:
        spec = REGISTRY[ds]
        engine = engine_cells[(ds,)]
        X, y, _ = get_dataset(ds, seed=seed)
        problem = LeastSquaresProblem(X, y)
        _, hist = reference_sgd(
            problem,
            alpha0=spec.alpha_sgd,
            batch_fraction=spec.b_sgd,
            iterations=iterations,
            seed=seed,
            record_every=iterations,
        )
        ref_err = hist[-1][1]
        ratio = engine.final_error / max(ref_err, 1e-12)
        rows.append([ds, engine.final_error, ref_err, ratio])
        cells[ds] = {"engine": engine.final_error, "reference": ref_err,
                     "ratio": ratio}
    return _table(
        "Figure 2 - sync SGD vs MLlib-style reference",
        ["dataset", "ASYNC sync SGD err", "MLlib-style err", "ratio"],
        rows, verbose, cells,
    )


# ---------------------------------------------------------------------------
# Figures 3-6 — a sync method vs its async variant under the Controlled
# Delay Straggler: time-to-target speedups (3: SGD, 5: SAGA) and average
# wait per iteration over the same runs (4, 6).
# ---------------------------------------------------------------------------

def _delay_tokens(delays) -> list[str]:
    return [f"cds:{delay}" if delay else "none" for delay in delays]


def _cds_pairs(
    algo_sync: str, algo_async: str, datasets, delays,
    sync_updates: int, async_updates: int, seed: int,
) -> dict[tuple, tuple[ExperimentResult, ExperimentResult]]:
    """The (sync, async) runs behind Figs 3-6, keyed ``(dataset, delay)``:
    two dataset x delay sweeps.

    Both sweeps go to the engine as ONE batch so the workers overlap
    sync and async cells instead of running two sweeps back to back.
    """
    tokens = _delay_tokens(delays)
    axes = {"dataset": list(datasets), "delay": tokens}
    sync_cells = GridSpec(
        base=PAPER_CELL.with_overrides(
            algorithm=algo_sync, max_updates=sync_updates, seed=seed),
        grid=axes,
    ).expand()
    async_cells = GridSpec(
        base=PAPER_CELL.with_overrides(
            algorithm=algo_async, policy="asp", max_updates=async_updates,
            seed=seed),
        grid=axes,
    ).expand()
    results = _run_specs(sync_cells + async_cells)
    combos = list(itertools.product(datasets, delays))
    return dict(zip(
        combos, zip(results[:len(combos)], results[len(combos):])
    ))


def _cds_speedups(
    algo_sync: str,
    algo_async: str,
    title: str,
    datasets: tuple[str, ...] = CDS_DATASETS,
    delays: tuple[float, ...] = CDS_DELAYS,
    sync_updates: int = 60,
    async_updates: int = 480,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    pairs = _cds_pairs(algo_sync, algo_async, datasets, delays,
                       sync_updates, async_updates, seed)
    cells = {(ds, delay): _pair_cell(ds, sync, asyn)
             for (ds, delay), (sync, asyn) in pairs.items()}
    rows = [[ds, f"{delay:.0%}", *_pair_row(cell)]
            for (ds, delay), cell in cells.items()]
    return _table(
        title,
        ["dataset", "delay", "t_sync(ms)", "t_async(ms)", "speedup",
         "err_sync", "err_async"],
        rows, verbose, cells,
    )


def _cds_waits(
    algo_sync: str,
    algo_async: str,
    title: str,
    datasets: tuple[str, ...] = CDS_DATASETS,
    delays: tuple[float, ...] = CDS_DELAYS,
    sync_updates: int = 60,
    async_updates: int = 480,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    pairs = _cds_pairs(algo_sync, algo_async, datasets, delays,
                       sync_updates, async_updates, seed)
    rows = []
    cells = {}
    for (ds, delay), (sync, asyn) in pairs.items():
        waits = sync.avg_wait_ms, asyn.avg_wait_ms
        rows.append([ds, f"{delay:.0%}", *waits])
        cells[(ds, delay)] = dict(zip(("sync_wait_ms", "async_wait_ms"), waits))
    return _table(
        title,
        ["dataset", "delay", f"{algo_sync.upper()} wait (ms)",
         f"{algo_async.upper()} wait (ms)"],
        rows, verbose, cells,
    )


def _driver(impl, name: str, doc: str, *bound):
    """A public figure driver: ``impl`` with its algorithm pair and title
    bound, keeping the remaining (budget) parameters and their defaults."""
    driver = partial(impl, *bound)
    driver.__name__, driver.__doc__ = name, doc
    return driver


fig3_cds_sgd = _driver(
    _cds_speedups, "fig3_cds_sgd",
    "Time-to-target speedups of ASGD over SGD per delay intensity.",
    "sgd", "asgd", "Figure 3 - ASGD vs SGD under CDS",
)
fig4_wait_sgd = _driver(
    _cds_waits, "fig4_wait_sgd",
    "Average wait time per iteration, SGD vs ASGD (reuses Fig 3 runs).",
    "sgd", "asgd", "Figure 4 - average wait time per iteration (SGD)",
)
fig5_cds_saga = _driver(
    _cds_speedups, "fig5_cds_saga",
    "Time-to-target speedups of ASAGA over SAGA per delay intensity.",
    "saga", "asaga", "Figure 5 - ASAGA vs SAGA under CDS",
)
fig6_wait_saga = _driver(
    _cds_waits, "fig6_wait_saga",
    "Average wait time per iteration, SAGA vs ASAGA (reuses Fig 5).",
    "saga", "asaga", "Figure 6 - average wait time per iteration (SAGA)",
)


# ---------------------------------------------------------------------------
# Figures 7 & 8 + Table 3 — Production Cluster Stragglers, 32 workers.
# ---------------------------------------------------------------------------

def _pcs_pairs(algo_sync: str, algo_async: str, datasets,
               sync_updates: int, async_updates: int, seed: int,
               ) -> dict[str, tuple[ExperimentResult, ExperimentResult]]:
    """PCS (sync, async) runs per dataset. The batch fraction rides the
    dataset axis (each dataset has its own tuned ``b_pcs``), so this is
    an explicit spec list rather than a pure-product GridSpec."""
    specs = []
    for ds in datasets:
        common = PAPER_CELL.with_overrides(
            dataset=ds, delay="pcs", num_workers=32, seed=seed,
            batch_fraction=REGISTRY[ds].b_pcs,
        )
        specs.append(common.with_overrides(
            algorithm=algo_sync, max_updates=sync_updates))
        specs.append(common.with_overrides(
            algorithm=algo_async, policy="asp", max_updates=async_updates))
    results = _run_specs(specs)
    return {
        ds: (results[2 * i], results[2 * i + 1])
        for i, ds in enumerate(datasets)
    }


def _pcs_speedups(
    algo_sync: str,
    algo_async: str,
    title: str,
    datasets: tuple[str, ...] = PCS_DATASETS,
    sync_updates: int = 50,
    async_updates: int = 1200,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    pairs = _pcs_pairs(algo_sync, algo_async, datasets, sync_updates,
                       async_updates, seed)
    cells = {ds: _pair_cell(ds, *pair) for ds, pair in pairs.items()}
    rows = [[ds, *_pair_row(cell)] for ds, cell in cells.items()]
    return _table(
        title,
        ["dataset", "t_sync(ms)", "t_async(ms)", "speedup", "err_sync",
         "err_async"],
        rows, verbose, cells,
    )


fig7_pcs_sgd = _driver(
    _pcs_speedups, "fig7_pcs_sgd",
    "ASGD vs SGD with production straggler patterns on 32 workers.",
    "sgd", "asgd", "Figure 7 - ASGD vs SGD, PCS, 32 workers",
)
fig8_pcs_saga = _driver(
    _pcs_speedups, "fig8_pcs_saga",
    "ASAGA vs SAGA with production straggler patterns on 32 workers.",
    "saga", "asaga", "Figure 8 - ASAGA vs SAGA, PCS, 32 workers",
)


def table3_wait_pcs(
    datasets: tuple[str, ...] = PCS_DATASETS,
    sync_updates: int = 50,
    async_updates: int = 1200,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Average wait times on 32 workers under PCS (reuses Fig 7/8 runs)."""
    budgets = (datasets, sync_updates, async_updates, seed)
    sgd = _pcs_pairs("sgd", "asgd", *budgets)
    saga = _pcs_pairs("saga", "asaga", *budgets)
    labels = ("SAGA", "ASAGA", "SGD", "ASGD")
    rows = []
    cells = {}
    for ds in datasets:
        waits = [res.avg_wait_ms for res in (*saga[ds], *sgd[ds])]
        rows.append([ds, *waits])
        cells[ds] = dict(zip(labels, waits))
    return _table(
        "Table 3 - average wait time per iteration (ms), 32 workers PCS",
        ["dataset", *(f"{label} wait" for label in labels)],
        rows, verbose, cells,
    )


# ---------------------------------------------------------------------------
# Table 2 — datasets.
# ---------------------------------------------------------------------------

def table2_datasets(verbose: bool = True) -> dict:
    """The dataset roster (paper Table 2 vs our scaled analogs)."""
    rows = []
    for name in ("rcv1_like", "mnist8m_like", "epsilon_like"):
        spec = REGISTRY[name]
        rows.append([
            name, spec.paper_name, spec.n, spec.d,
            "sparse" if spec.sparse else "dense",
            f"{spec.size_bytes / 1e6:.1f} MB",
        ])
    return _table(
        "Table 2 - dataset analogs",
        ["analog", "paper dataset", "rows", "cols", "kind", "size"],
        rows, verbose,
    )


# ---------------------------------------------------------------------------
# Ablations — design claims from Sections 4.3 / 5.2 / 5.3.
# ---------------------------------------------------------------------------

def ablation_broadcast(
    dataset: str = "epsilon_like",
    updates: int = 40,
    seed: int = 0,
    bandwidth_bytes_per_ms: float = 5e4,
    verbose: bool = True,
) -> dict:
    """History broadcast vs naive full-table broadcast for SAGA.

    Reproduces the Section 4.3/5.2 claim: the naive strategy's shipped
    bytes — and with them iteration time — grow with the iteration count
    while ASYNCbroadcast stays flat. The default bandwidth models a
    congested/commodity link (the paper's rcv1 table rows are 47k-dim, so
    on real data the effect shows even on 10 GbE; scaled-down vectors
    need a scaled-down pipe to show the same shape).
    """
    modes = ("history", "naive")
    swept = _sweep(
        PAPER_CELL.with_overrides(
            dataset=dataset, algorithm="saga", max_updates=updates,
            seed=seed,
            network={**PAPER_CELL.network,
                     "bandwidth_bytes_per_ms": bandwidth_bytes_per_ms},
        ),
        {"params.mode": list(modes)},
    )
    results = {mode: swept[(mode,)] for mode in modes}
    hist, naive = results["history"], results["naive"]
    hist_bytes = hist.total_fetch_bytes
    naive_bytes = naive.total_fetch_bytes
    rows = [
        ["history", hist.elapsed_ms, hist_bytes, hist.final_error],
        ["naive", naive.elapsed_ms, naive_bytes, naive.final_error],
        ["naive/history", naive.elapsed_ms / max(hist.elapsed_ms, 1e-9),
         naive_bytes / max(hist_bytes, 1), ""],
    ]
    return _table(
        "Ablation - ASYNCbroadcast vs naive table broadcast (SAGA)",
        ["mode", "time (ms)", "broadcast+fetch bytes", "err"],
        rows, verbose, results,
    )


def ablation_barriers(
    dataset: str = "mnist8m_like",
    barriers: tuple[str, ...] = ("asp", "ssp:8", "frac:0.5", "bsp"),
    updates: int = 480,
    delay: str = "cds:1.0",
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Barrier-control strategies under a straggler (Listing 2)."""
    swept = _sweep(
        PAPER_CELL.with_overrides(
            dataset=dataset, algorithm="asgd", delay=delay,
            max_updates=updates, seed=seed,
        ),
        {"policy": list(barriers)},
    )
    rows = []
    cells = {}
    for barrier in barriers:
        res = swept[(barrier,)]
        rows.append([
            barrier, res.elapsed_ms, res.updates,
            _time_to_target(dataset, res), res.final_error, res.avg_wait_ms,
        ])
        cells[barrier] = res
    return _table(
        f"Ablation - barrier control under {delay}",
        ["barrier", "time (ms)", "updates", "t_target(ms)", "err",
         "wait (ms)"],
        rows, verbose, cells,
    )


def ablation_granularity(
    dataset: str = "mnist8m_like",
    updates: int = 480,
    delay: str = "cds:0.6",
    num_workers: int = 8,
    num_partitions: int = 32,
    local_steps: int = 4,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Dispatch granularities compared: per-worker rounds vs per-partition
    streams.

    Four cells under the same straggler model: ASGD at worker granularity
    (the paper's model), the same ASGD mathematics at partition
    granularity (no worker-local combine), Hogwild-style immediate
    per-partition application, and federated averaging (``local_steps``
    local updates per partition, slot average on collect) — the two
    workloads only expressible once the pipeline speaks in partitions.
    """
    base = PAPER_CELL.with_overrides(
        dataset=dataset, algorithm="asgd", policy="asp", delay=delay,
        num_workers=num_workers, num_partitions=num_partitions,
        max_updates=updates, seed=seed,
    )
    cells_spec = {
        "asgd/worker": base,
        "asgd/partition": base.with_overrides(granularity="partition"),
        "hogwild": base.with_overrides(algorithm="hogwild"),
        "fedavg": base.with_overrides(
            algorithm="fedavg", params={"local_steps": local_steps},
        ),
    }
    results = _run_specs(list(cells_spec.values()))
    rows = []
    cells = {}
    for label, res in zip(cells_spec, results):
        rows.append([
            label, res.elapsed_ms, res.updates,
            res.extras.get("collected", res.updates),
            _time_to_target(dataset, res), res.final_error,
            res.extras.get("max_partition_staleness_seen",
                           res.extras.get("max_staleness_seen", "")),
        ])
        cells[label] = res
    return _table(
        f"Ablation - dispatch granularity under {delay}",
        ["granularity", "time (ms)", "updates", "collected", "t_target(ms)",
         "err", "max staleness"],
        rows, verbose, cells,
    )


def ablation_policies(
    dataset: str = "mnist8m_like",
    policies: tuple[str, ...] = (
        "asp",
        "ssp_partition:4",
        "ct_partition:1.5",
        "sample:0.5",
        "asp & fedasync:poly",
        "migrate:1.5",
    ),
    algorithm: str = "fedavg",
    updates: int = 240,
    delay: str = "cds:0.6",
    num_workers: int = 8,
    num_partitions: int = 32,
    local_steps: int = 4,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Scheduling policies compared on one federated workload.

    Runs the same partition-granular job (``fedavg`` by default) under
    each policy spelling, one per protocol hook: partition-SSP bounds
    per-partition staleness (``ready``), the per-partition completion
    filter and client sampling shape participation (``select``),
    FedAsync-style polynomial discounting damps stale contributions
    (``weight``), and migration moves hot partitions off chronically slow
    workers (``place``). Policies compose — the default list includes an
    ``&`` composition — and every cell is a plain JSON spec, so the whole
    ablation is reproducible from the CLI.
    """
    base = PAPER_CELL.with_overrides(
        dataset=dataset, algorithm=algorithm, delay=delay,
        num_workers=num_workers, num_partitions=num_partitions,
        max_updates=updates, seed=seed,
        params=(
            {"local_steps": local_steps}
            if OPTIMIZERS.canonical(algorithm) == "fedavg" else {}
        ),
    )
    cells_spec = {p: base.with_overrides(policy=p) for p in policies}
    results = _run_specs(list(cells_spec.values()))
    rows = []
    cells = {}
    for label, res in zip(cells_spec, results):
        rows.append([
            label, res.elapsed_ms, res.updates,
            res.extras.get("collected", res.updates),
            _time_to_target(dataset, res), res.final_error,
            res.extras.get("max_partition_staleness_seen",
                           res.extras.get("max_staleness_seen", "")),
            res.extras.get("migrations", 0),
        ])
        cells[label] = res
    return _table(
        f"Ablation - scheduling policies ({algorithm} under {delay})",
        ["policy", "time (ms)", "updates", "collected", "t_target(ms)",
         "err", "max staleness", "migrations"],
        rows, verbose, cells,
    )


def ablation_staleness_lr(
    dataset: str = "mnist8m_like",
    updates: int = 960,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Staleness-dependent learning rate (Listing 1) under PCS."""
    swept = _sweep(
        PAPER_CELL.with_overrides(
            dataset=dataset, algorithm="asgd", policy="asp", delay="pcs",
            num_workers=32, max_updates=updates, seed=seed,
            batch_fraction=REGISTRY[dataset].b_pcs,
        ),
        {"staleness_adaptive": [False, True]},
    )
    rows = []
    cells = {}
    for adaptive in (False, True):
        res = swept[(adaptive,)]
        label = "staleness-adaptive" if adaptive else "plain"
        rows.append([label, res.final_error, res.elapsed_ms,
                     res.extras.get("max_staleness_seen", "")])
        cells[label] = res
    return _table(
        "Ablation - staleness-dependent learning rate (PCS)",
        ["step rule", "final err", "time (ms)", "max staleness"],
        rows, verbose, cells,
    )


def ablation_compression(
    d: int = 512,
    compressors: tuple = (None, "none", "topk:0.1", "int8", "onebit"),
    updates: int = 240,
    num_workers: int = 4,
    seed: int = 7,
    bandwidth_bytes_per_ms: float = 5e4,
    verbose: bool = True,
) -> dict:
    """Gradient compression on a congested link (the COMM payoff).

    Runs the same ASGD logistic job — ``synth_logistic`` widened to
    ``d`` features so the gradient payload dominates framing overhead —
    once with no COMM layer at all, once through the byte-exact ``none``
    codec (which must not move a single number), and once per lossy
    codec with error feedback. Per-cell comm ledger scalars show raw vs
    wire bytes by direction; the congested default bandwidth makes the
    wire savings visible in simulated wall-clock, not just in the byte
    counts.
    """
    base = ExperimentSpec(
        algorithm="asgd", dataset={"name": "synth_logistic", "d": d},
        problem="logistic", num_workers=num_workers,
        max_updates=updates, eval_every=max(updates // 10, 1), seed=seed,
        network={"bandwidth_bytes_per_ms": bandwidth_bytes_per_ms},
    )
    labels = ["off" if c is None else str(c) for c in compressors]
    specs = [base.with_overrides(compressor=c) for c in compressors]
    results = _run_specs(specs)
    baseline = None
    for label, res in zip(labels, results):
        if label in ("off", "none"):
            baseline = res.final_error
            break
    rows = []
    cells = {}
    for label, res in zip(labels, results):
        raw = res.extras.get("comm_collect_raw_bytes", "")
        wire = res.extras.get("comm_collect_wire_bytes", "")
        ratio = (
            round(raw / wire, 2) if isinstance(raw, (int, float))
            and isinstance(wire, (int, float)) and wire else ""
        )
        rel = (
            res.final_error / baseline if baseline not in (None, 0.0)
            else ""
        )
        rows.append([
            label, res.final_error, rel, res.elapsed_ms,
            raw, wire, ratio,
        ])
        cells[label] = res
    return _table(
        f"Ablation - gradient compression (asgd, d={d})",
        ["compressor", "final err", "err vs none", "time (ms)",
         "collect raw B", "collect wire B", "ratio"],
        rows, verbose, cells,
    )


def ablation_history_depth(
    dataset: str = "synth_logistic",
    depths: tuple[int, ...] = (0, 2, 4, 8, 16),
    updates: int = 200,
    delay: str = "cds:0.6",
    num_workers: int = 4,
    num_partitions: int = 8,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Curvature-history depth for async L-BFGS (the HIST payoff).

    Sweeps ``history_depth`` — the bound on the ``lbfgs/pairs`` HIST
    channel (``keep="last:k"``) — against an ASGD baseline at the same
    collected-result budget. Depth 0 degrades exactly to a plain
    gradient step (identity metric), so the sweep isolates what the
    bounded curvature history buys; per-cell ``history_bytes`` shows
    what it costs.
    """
    problem = (
        "logistic" if REGISTRY[dataset].task == "classification"
        else "least_squares"
    )
    base = ExperimentSpec(
        algorithm="async_lbfgs", dataset=dataset, problem=problem,
        num_workers=num_workers, num_partitions=num_partitions,
        delay=delay, max_updates=updates,
        eval_every=max(updates // 10, 1), seed=seed,
    )
    labels = ["asgd"] + [f"m={d}" for d in depths]
    specs = [base.with_overrides(algorithm="asgd")] + [
        base.with_overrides(params={"history_depth": d}) for d in depths
    ]
    results = _run_specs(specs)
    rows = []
    cells = {}
    for label, res in zip(labels, results):
        rows.append([
            label, res.final_error, res.elapsed_ms,
            res.extras.get("pairs_admitted", ""),
            res.extras.get("pairs_damped", ""),
            res.extras.get("pairs_rejected_stale", ""),
            res.extras.get("history_bytes", 0),
        ])
        cells[label] = res
    return _table(
        f"Ablation - L-BFGS history depth ({dataset} under {delay})",
        ["cell", "final err", "time (ms)", "pairs", "damped",
         "stale-rejected", "history bytes"],
        rows, verbose, cells,
    )
