"""The paper's claims as one registry: cells, a reducer and a predicate.

Each row of :data:`CLAIMS` is one statement of the paper's evaluation
(Section 6: Figures 2-8, Tables 2-3) or of a design claim behind it
(ASYNCbroadcast, the barriers, worker-local reduce, HIST, COMM): the
sentence, its cells as :class:`~repro.api.ExperimentSpec` values, a
``measure`` reducer from the cells' results to a table ``{label:
{column: value}}`` and a ``holds`` predicate over that table, whose
docstring states its terms. :func:`run_claims` runs the requested rows'
cells as one batch (a cell two rows share runs once) and returns one
:class:`Verdict` per row; ``python -m repro figures`` prints them and
writes ``REPRODUCTION.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.api.parallel import run_key, run_sweep_cells
from repro.api.spec import ExperimentSpec
from repro.bench.harness import ExperimentResult
from repro.data.registry import REGISTRY, get_dataset
from repro.errors import ReproError
from repro.optim.problems import LeastSquaresProblem
from repro.optim.reference import reference_sgd

__all__ = ["PAPER_CELL", "Claim", "Verdict", "CLAIMS", "run_claims"]

#: The evaluation's cell shape (Section 6.1): 8 workers x 32 partitions
#: on the mnist8m analog, a cost model under which a mini-batch task
#: costs a few ms (like the paper's) and a 10 GbE interconnect.
PAPER_CELL = ExperimentSpec(
    algorithm="sgd", dataset="mnist8m_like", num_workers=8,
    num_partitions=32, eval_every=2,
    cost={"overhead_ms": 1.0, "ms_per_unit": 0.01},
    network={"latency_ms": 0.25, "bandwidth_bytes_per_ms": 1.25e6},
)
CDS_DATASETS = ("mnist8m_like", "epsilon_like", "rcv1_like")
CDS_DELAYS = (0.0, 0.3, 0.6, 1.0)
PCS_DATASETS = ("mnist8m_like", "epsilon_like")


@dataclass(frozen=True)
class Claim:
    """One row: the sentence, its cells by label, ``measure`` and ``holds``."""

    name: str
    sentence: str
    cells: Mapping[str, ExperimentSpec]
    measure: Callable[[dict[str, ExperimentResult]], dict]
    holds: Callable[[dict], bool]


@dataclass(frozen=True)
class Verdict:
    """One row's cell results by label, measured table and pass/fail."""

    claim: Claim
    results: dict[str, ExperimentResult]
    table: dict
    passed: bool


def _runs(results: dict) -> dict:
    """The per-run columns of the ablation tables. The target is the
    registry's, loosened to 1.05x the final error for a short run."""
    return {label: {
        "time_ms": res.elapsed_ms, "updates": res.updates,
        "t_target_ms": res.time_to_error(max(
            res.initial_error * REGISTRY[res.spec.dataset].target_rel,
            res.final_error * 1.05)),
        "err": res.final_error, "initial_err": res.initial_error,
        "wait_ms": res.avg_wait_ms, "max_staleness": res.extras.get(
            "max_partition_staleness_seen", res.extras["max_staleness_seen"]),
    } for label, res in results.items()}


def _pairs(results: dict) -> dict:
    """``{row: (sync, async)}`` from cells labelled ``"<row> <algorithm>"``,
    each row's synchronous cell first."""
    labels = list(results)
    return {labels[i].rsplit(" ", 1)[0]: (results[labels[i]],
                                          results[labels[i + 1]])
            for i in range(0, len(labels), 2)}


def _speedups(results: dict) -> dict:
    """Per pair: time to a common target (the sync run's, loosened to
    1.05x the worse final error) and the sync/async speedup."""
    table = {}
    for row, (sync, asyn) in _pairs(results).items():
        target = max(
            sync.initial_error * REGISTRY[sync.spec.dataset].target_rel,
            max(sync.final_error, asyn.final_error) * 1.05)
        ts, ta = sync.time_to_error(target), asyn.time_to_error(target)
        speedup = (0.0 if math.isinf(ta) else math.inf if math.isinf(ts)
                   else ts / max(ta, 1e-9))
        table[row] = {"t_sync_ms": ts, "t_async_ms": ta, "speedup": speedup,
                      "err_sync": sync.final_error,
                      "err_async": asyn.final_error}
    return table


def _waits(results: dict) -> dict:
    return {row: {"sync_wait_ms": sync.avg_wait_ms,
                  "async_wait_ms": asyn.avg_wait_ms}
            for row, (sync, asyn) in _pairs(results).items()}


def _series(t: dict, column: str) -> dict:
    """``{dataset: [column at each CDS delay]}``."""
    return {ds: [t[f"{ds} {delay:.0%}"][column] for delay in CDS_DELAYS]
            for ds in CDS_DATASETS}


def _converged(t: dict, updates: int) -> bool:
    return all(row["updates"] == updates and row["err"] < row["initial_err"]
               for row in t.values())


def _fig2(results: dict) -> dict:
    table = {}
    for label, engine in results.items():
        spec = engine.spec
        X, y, data = get_dataset(spec.dataset, seed=spec.seed)
        _, hist = reference_sgd(
            LeastSquaresProblem(X, y), alpha0=data.alpha_sgd,
            batch_fraction=data.b_sgd, iterations=spec.max_updates,
            seed=spec.seed, record_every=spec.max_updates)
        table[label] = {"engine_err": engine.final_error,
                        "reference_err": hist[-1][1],
                        "ratio": engine.final_error / max(hist[-1][1], 1e-12)}
    return table


def _fig2_holds(t: dict) -> bool:
    """engine/reference error ratio within [0.95, 1.05] on every dataset."""
    return all(0.95 <= row["ratio"] <= 1.05 for row in t.values())


def _cds_cells(sync: str, asyn: str) -> dict:
    cells = {}
    for ds in CDS_DATASETS:
        for delay in CDS_DELAYS:
            base = PAPER_CELL.with_overrides(
                dataset=ds, delay=f"cds:{delay}" if delay else "none")
            cells[f"{ds} {delay:.0%} {sync}"] = base.with_overrides(
                algorithm=sync, max_updates=50)
            cells[f"{ds} {delay:.0%} {asyn}"] = base.with_overrides(
                algorithm=asyn, policy="asp", max_updates=400)
    return cells


def _fig5_holds(t: dict) -> bool:
    """speedup > 1 at every delay; per dataset, sync time-to-target at
    100% delay > 1.5x at 0%, async time-to-target flat (max < 1.5x min)."""
    ts, ta = _series(t, "t_sync_ms"), _series(t, "t_async_ms")
    return all(row["speedup"] > 1.0 for row in t.values()) and all(
        ts[ds][-1] > 1.5 * ts[ds][0] and max(ta[ds]) < 1.5 * min(ta[ds])
        for ds in ts)


def _fig3_holds(t: dict) -> bool:
    """the fig5_cds_saga terms, and per dataset the speedup at 100% delay
    > the speedup at 0% and > 1.2x it (the straggler factor)."""
    return _fig5_holds(t) and all(
        sp[-1] > sp[0] and sp[-1] > 1.2 * sp[0]
        for sp in _series(t, "speedup").values())


def _fig6_holds(t: dict) -> bool:
    """per dataset: sync wait at 100% delay > 2x at 0%; async wait flat
    (max < 1.5x min + 0.1 ms) and below sync wait at 100% delay."""
    sync, asyn = _series(t, "sync_wait_ms"), _series(t, "async_wait_ms")
    return all(
        sync[ds][-1] > 2.0 * sync[ds][0] and asyn[ds][-1] < sync[ds][-1]
        and max(asyn[ds]) < 1.5 * min(asyn[ds]) + 0.1 for ds in sync)


def _fig4_holds(t: dict) -> bool:
    """the fig6_wait_saga terms, and sync wait never more than 5% below
    the previous delay's."""
    return _fig6_holds(t) and all(
        b >= a * 0.95 for sync in _series(t, "sync_wait_ms").values()
        for a, b in zip(sync, sync[1:]))


def _pcs_cells(sync: str, asyn: str) -> dict:
    cells = {}
    for ds in PCS_DATASETS:
        base = PAPER_CELL.with_overrides(
            dataset=ds, delay="pcs", num_workers=32,
            batch_fraction=REGISTRY[ds].b_pcs)
        cells[f"{ds} {sync}"] = base.with_overrides(
            algorithm=sync, max_updates=40)
        cells[f"{ds} {asyn}"] = base.with_overrides(
            algorithm=asyn, policy="asp", max_updates=900)
    return cells


def _pcs_holds(t: dict) -> bool:
    """speedup > 2 on every dataset."""
    return all(row["speedup"] > 2.0 for row in t.values())


def _table3(results: dict) -> dict:
    return {ds: {algo.upper(): results[f"{ds} {algo}"].avg_wait_ms
                 for algo in ("saga", "asaga", "sgd", "asgd")}
            for ds in PCS_DATASETS}


def _table3_holds(t: dict) -> bool:
    """per dataset, wait: ASAGA < SAGA, ASGD < SGD, and each sync wait >
    1.5x its async wait."""
    return all(
        row["ASAGA"] < row["SAGA"] and row["ASGD"] < row["SGD"]
        and row["SAGA"] / max(row["ASAGA"], 1e-9) > 1.5
        and row["SGD"] / max(row["ASGD"], 1e-9) > 1.5 for row in t.values())


TABLE2_ANALOGS = ("rcv1_like", "mnist8m_like", "epsilon_like")


def _table2(results: dict) -> dict:
    table = {name: {
        "paper dataset": spec.paper_name, "rows": spec.n, "cols": spec.d,
        "kind": "sparse" if spec.sparse else "dense",
        "size_mb": spec.size_bytes / 1e6,
    } for name, spec in ((name, REGISTRY[name]) for name in TABLE2_ANALOGS)}
    X, _, _ = get_dataset("mnist8m_like", seed=0)
    table["mnist8m_like"]["generated"] = "x".join(map(str, X.shape))
    return table


def _table2_holds(t: dict) -> bool:
    """the analogs are rcv1, mnist8m and epsilon, in that order, and the
    generated mnist8m analog is the registry's rows x cols."""
    mnist = t["mnist8m_like"]
    return (list(t) == list(TABLE2_ANALOGS)
            and mnist["generated"] == f"{mnist['rows']}x{mnist['cols']}")


def _barriers_holds(t: dict) -> bool:
    """every policy completes 320 updates and converges; time: asp < 0.75x
    bsp, asp <= 1.1x ssp:8, frac:0.5 <= 1.1x bsp; err: bsp <= 2x asp."""
    time = {label: row["time_ms"] for label, row in t.items()}
    return (_converged(t, 320) and time["asp"] < 0.75 * time["bsp"]
            and time["asp"] <= time["ssp:8"] * 1.10
            and time["frac:0.5"] <= time["bsp"] * 1.10
            and t["bsp"]["err"] <= t["asp"]["err"] * 2.0)


def _broadcast(results: dict) -> dict:
    table = {mode: {"time_ms": res.elapsed_ms,
                    "fetch_bytes": res.total_fetch_bytes,
                    "err": res.final_error} for mode, res in results.items()}
    hist, naive = table["history"], table["naive"]
    table["naive/history"] = {
        "time_ms": naive["time_ms"] / max(hist["time_ms"], 1e-9),
        "fetch_bytes": naive["fetch_bytes"] / max(hist["fetch_bytes"], 1)}
    return table


def _broadcast_holds(t: dict) -> bool:
    """equal error (within 1e-9); naive ships > 5x the history bytes and
    takes longer."""
    hist, naive = t["history"], t["naive"]
    return (abs(hist["err"] - naive["err"]) < 1e-9
            and naive["fetch_bytes"] > 5 * hist["fetch_bytes"]
            and naive["time_ms"] > hist["time_ms"])


def _growth(results: dict) -> dict:
    table = {}
    for mode in ("naive", "history"):
        short, long = (results[f"{mode} {n}"].total_fetch_bytes
                       for n in (20, 40))
        table[mode] = {"bytes@20": short, "bytes@40": long,
                       "growth": long / short}
    return table


def _growth_holds(t: dict) -> bool:
    """doubling the iterations multiplies naive bytes by > 3 and history
    bytes by < 3."""
    naive, hist = t["naive"]["growth"], t["history"]["growth"]
    return naive > 3.0 and hist < 3.0 and naive > hist


def _granularity(results: dict) -> dict:
    table = _runs(results)
    for label, res in results.items():
        table[label].update({
            "collected/round": res.extras["collected"] / res.rounds,
            "task_bytes/round": res.total_task_bytes / res.rounds})
    return table


def _granularity_holds(t: dict) -> bool:
    """per round, partition dispatch collects >= 3x the results and ships
    >= 3x the task bytes of worker dispatch; both converge."""
    worker, part = t["worker"], t["partition"]
    return (part["collected/round"] >= 3 * worker["collected/round"]
            and part["task_bytes/round"] >= 3 * worker["task_bytes/round"]
            and all(row["err"] < row["initial_err"] for row in t.values()))


def _staleness_holds(t: dict) -> bool:
    """both complete 640 updates and converge; plain max staleness >= 2;
    adaptive err < 5x plain err."""
    plain, adaptive = t["plain"], t["staleness-adaptive"]
    return (_converged(t, 640) and plain["max_staleness"] >= 2
            and adaptive["err"] < plain["err"] * 5)


def _pipelining_holds(t: dict) -> bool:
    """time: depth 2 <= depth 1, depth 4 <= 1.02x depth 1; every depth
    completes 400 updates, converges, and max staleness <= 16x depth."""
    one, two, four = (t[f"depth {d}"]["time_ms"] for d in (1, 2, 4))
    return (two <= one and four <= one * 1.02 and _converged(t, 400)
            and all(t[f"depth {d}"]["max_staleness"] <= d * 2 * 8
                    for d in (1, 2, 4)))


#: Async L-BFGS on the synthetic logistic analog. Depth 0 is the
#: curvature-free, constant-step control. ``asgd`` is not the same run:
#: its step decays as 1/sqrt(t) and round seeds are salted with the
#: algorithm name, so ``best < m=0`` is the like-for-like term.
LBFGS_CELL = ExperimentSpec(
    algorithm="async_lbfgs", dataset="synth_logistic", problem="logistic",
    num_workers=4, num_partitions=8, delay="cds:0.6", max_updates=200,
    eval_every=20)


def _history(results: dict) -> dict:
    table = {}
    for label, res in results.items():
        table[label] = {"err": res.final_error, "updates": res.updates,
                        "history_bytes": res.extras.get("history_bytes", 0)}
        table[label].update({
            key: res.extras[key] for key in (
                "pairs_admitted", "pairs_damped", "pairs_rejected_stale")
            if key in res.extras})
    return table


def _history_holds(t: dict) -> bool:
    """every cell completes 200 updates; the best err at depth > 0 <
    asgd's and < m=0's; history bytes: m=0 is 0, 0 < m=4 < m=10."""
    best = min(t["m=4"]["err"], t["m=10"]["err"])
    return (all(row["updates"] == 200 for row in t.values())
            and best < t["asgd"]["err"] and best < t["m=0"]["err"]
            and t["m=0"]["history_bytes"] == 0
            and 0 < t["m=4"]["history_bytes"] < t["m=10"]["history_bytes"])


#: The ASGD logistic job widened to d=512, so the gradient payload
#: dominates framing, on a congested link.
COMM_CELL = ExperimentSpec(
    algorithm="asgd", dataset={"name": "synth_logistic", "d": 512},
    problem="logistic", num_workers=4, max_updates=240, eval_every=24,
    seed=7, network={"bandwidth_bytes_per_ms": 5e4})


def _compression(results: dict) -> dict:
    table = {}
    for label, res in results.items():
        row = table[label] = {
            "err": res.final_error, "time_ms": res.elapsed_ms,
            "err_vs_none": res.final_error / results["none"].final_error}
        if "comm_collect_wire_bytes" in res.extras:
            raw = res.extras["comm_collect_raw_bytes"]
            wire = res.extras["comm_collect_wire_bytes"]
            row.update({"collect_raw_bytes": raw, "collect_wire_bytes": wire,
                        "collect_ratio": raw / wire})
    return table


def _compression_holds(t: dict) -> bool:
    """'none' err equals 'off' err exactly; topk:0.1 and onebit each stay
    within 2x of 'none''s err at a collect raw/wire ratio >= 5."""
    return t["none"]["err"] == t["off"]["err"] and all(
        t[codec]["err_vs_none"] <= 2.0 and t[codec]["collect_ratio"] >= 5.0
        for codec in ("topk:0.1", "onebit"))


CDS_SGD_CELLS = _cds_cells("sgd", "asgd")
CDS_SAGA_CELLS = _cds_cells("saga", "asaga")
PCS_SGD_CELLS = _pcs_cells("sgd", "asgd")
PCS_SAGA_CELLS = _pcs_cells("saga", "asaga")
_STRAGGLED = PAPER_CELL.with_overrides(
    algorithm="asgd", delay="cds:0.6", policy="asp", max_updates=480)
_PCS_ASGD = PAPER_CELL.with_overrides(
    algorithm="asgd", policy="asp", delay="pcs", num_workers=32,
    max_updates=640, batch_fraction=REGISTRY["mnist8m_like"].b_pcs)
#: A congested link: scaled-down vectors need a scaled-down pipe to show
#: the shape the paper's 47k-dim rcv1 rows show on 10 GbE.
_NAIVE_SAGA = PAPER_CELL.with_overrides(
    dataset="epsilon_like", algorithm="saga", max_updates=40,
    network={**PAPER_CELL.network, "bandwidth_bytes_per_ms": 5e4})
_TINY_SAGA = PAPER_CELL.with_overrides(
    dataset="tiny_dense", algorithm="saga", num_workers=4, num_partitions=8)

CLAIMS: dict[str, Claim] = {claim.name: claim for claim in (
    Claim("fig2_mllib", "Figure 2: \"SGD in ASYNC has a similar performance "
          "to that of Mllib's.\"", {
              ds: PAPER_CELL.with_overrides(
                  dataset=ds, max_updates=50, eval_every=50)
              for ds in CDS_DATASETS}, _fig2, _fig2_holds),
    Claim("fig3_cds_sgd", "Figure 3: under a controlled straggler ASGD "
          "\"converges to the optimal point with almost the same rate for "
          "different delay intensities\", while SGD slows down.",
          CDS_SGD_CELLS, _speedups, _fig3_holds),
    Claim("fig4_wait_sgd", "Figure 4: \"in the asynchronous algorithm ... the "
          "average wait time does not change with changes in delay intensity. "
          "However, in the synchronous implementation worker wait times "
          "increase with a slower straggler.\"",
          CDS_SGD_CELLS, _waits, _fig4_holds),
    Claim("fig5_cds_saga", "Figure 5: \"increasing the delay intensity "
          "negatively affects the convergence rate of SAGA while the ASAGA "
          "algorithm maintains the same convergence rate for different delay "
          "intensities.\"", CDS_SAGA_CELLS, _speedups, _fig5_holds),
    Claim("fig6_wait_saga", "Figure 6: \"With an increase in delay intensity, "
          "workers in SAGA wait more for new tasks ... ASAGA has the same wait "
          "time for all delay intensities.\"",
          CDS_SAGA_CELLS, _waits, _fig6_holds),
    Claim("fig7_pcs_sgd", "Figure 7: \"ASGD converges to the solution "
          "considerably faster than SGD and leads to a speedup of 3x for "
          "mnist8m and 4x for epsilon.\"", PCS_SGD_CELLS, _speedups, _pcs_holds),
    Claim("fig8_pcs_saga", "Figure 8: \"ASAGA compared to SAGA obtains a "
          "speedup of 3.5x and 4x for mnist8m and epsilon respectively.\"",
          PCS_SAGA_CELLS, _speedups, _pcs_holds),
    Claim("table2_datasets", "Table 2: the evaluation's datasets, here as "
          "scaled analogs.", {}, _table2, _table2_holds),
    Claim("table3_wait_pcs", "Table 3: \"The wait time increases considerably "
          "for all synchronous implementations.\"",
          {**PCS_SGD_CELLS, **PCS_SAGA_CELLS}, _table3, _table3_holds),
    Claim("barriers", "Listing 2: ASP, SSP, the beta-fraction rule and BSP "
          "span the asynchrony spectrum; under a straggler the looser "
          "barriers finish the same budget sooner.", {
              policy: PAPER_CELL.with_overrides(
                  algorithm="asgd", delay="cds:1.0", max_updates=320,
                  policy=policy)
              for policy in ("asp", "ssp:8", "frac:0.5", "bsp")},
          _runs, _barriers_holds),
    Claim("broadcast", "Sections 4.3 and 5.2: Spark-style SAGA ships its whole "
          "table every iteration (\"As a result of the overhead, machine "
          "learning libraries ... do not provide implementations of "
          "optimization methods such as SAGA\"); ASYNCbroadcast ships each "
          "version once.", {
              mode: _NAIVE_SAGA.with_overrides(params={"mode": mode})
              for mode in ("history", "naive")}, _broadcast, _broadcast_holds),
    Claim("broadcast_growth", "Sections 4.3 and 5.2: the naive broadcast's "
          "volume grows with the iteration count, history's linearly.", {
              f"{mode} {n}": _TINY_SAGA.with_overrides(
                  max_updates=n, params={"mode": mode})
              for mode in ("naive", "history") for n in (20, 40)},
          _growth, _growth_holds),
    Claim("granularity", "Section 7, on Glint: \"workers are not allowed to "
          "locally reduce their updates and then submit the aggregated "
          "update\"; ASYNCreduce combines them per worker first.", {
              "worker": _STRAGGLED,
              "partition": _STRAGGLED.with_overrides(granularity="partition")},
          _granularity, _granularity_holds),
    Claim("staleness_lr", "Listing 1: the staleness-dependent learning rate "
          "stays stable and competitive under production stragglers.", {
              "plain": _PCS_ASGD, "staleness-adaptive":
              _PCS_ASGD.with_overrides(staleness_adaptive=True)},
          _runs, _staleness_holds),
    Claim("pipelining", "A worker that may queue more than one task hides the "
          "dispatch round-trip: the same budget sooner, at bounded staleness.",
          {f"depth {d}": PAPER_CELL.with_overrides(
              algorithm="asgd", delay="cds:1.0", max_updates=400,
              pipeline_depth=d) for d in (1, 2, 4)},
          _runs, _pipelining_holds),
    Claim("history_depth", "HIST's payoff: a bounded deque of curvature pairs "
          "buys async L-BFGS a lower loss at the same budget, at history bytes "
          "bounded by the depth.", {
              "asgd": LBFGS_CELL.with_overrides(algorithm="asgd"),
              **{f"m={d}": LBFGS_CELL.with_overrides(
                  params={"history_depth": d}) for d in (0, 4, 10)}},
          _history, _history_holds),
    Claim("compression", "COMM: the 'none' codec moves no number; lossy codecs "
          "with error feedback stay within 2x of its error on >= 5x fewer "
          "collect wire bytes.", {
              "off" if codec is None else codec:
              COMM_CELL.with_overrides(compressor=codec)
              for codec in (None, "none", "topk:0.1", "onebit")},
          _compression, _compression_holds),
)}


def run_claims(names=None, *, jobs: int = 1, checkpoint=None) -> list[Verdict]:
    """Run the named rows (every row when ``None``) and judge each.

    All their cells go to the sweep engine as one batch, a shared cell
    once: ``jobs`` forks that many workers for it (``<= 0``: one per
    core), and ``checkpoint`` names a JSONL file each finished cell is
    appended to and later calls restore from instead of re-running.
    """
    unknown = sorted(set(names or ()) - set(CLAIMS))
    if unknown:
        raise ReproError(
            f"unknown claim(s) {unknown}; available: {sorted(CLAIMS)}")
    rows = [CLAIMS[name] for name in (names or CLAIMS)]
    specs = {run_key(spec): spec for row in rows for spec in row.cells.values()}
    done = dict(zip(specs, map(ExperimentResult.from_dict, run_sweep_cells(
        list(specs.values()), jobs=jobs, checkpoint=checkpoint,
        resume=checkpoint is not None))))
    verdicts = []
    for row in rows:
        results = {label: done[run_key(spec)]
                   for label, spec in row.cells.items()}
        table = row.measure(results)
        verdicts.append(Verdict(row, results, table, bool(row.holds(table))))
    return verdicts
