"""Measure one workload: set-up phase, counted pass, timed phase.

Protocol (closed loop, one client):

1. **Set-up phase** — fresh-subprocess samples of everything a user pays
   before the first update (interpreter start, ``import repro``, dataset,
   problem, reference optimum, ``prepare_experiment``; for the sweep a
   1-cell/1-update sweep through the same fabric), each sandwiched between
   two yardstick timings; the median is ``setup_s``.
2. **Counted pass** — one untimed run under a call counter. It doubles as
   the warm-up, and yields the reference output digest plus the metrics
   that repeat exactly (host calls, simulated time, wire bytes).
3. **Timed phase** — repeats until ``--seconds`` are used. Each repeat
   builds a *fresh* ``prepare_experiment`` outside the timed region
   (re-executing one ``PreparedExperiment`` is not reproducible when a
   compressor is set: the ``CommManager`` keeps residuals and the ledger)
   and times ``run_in`` only.

``src/`` is measured strictly from outside: only public functions are
called, nothing is patched here (see :mod:`asyncbench.tracing` for the
traced pass).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from asyncbench import yardstick
from asyncbench.workloads import (
    FABRIC,
    WORKLOADS,
    engine_spec,
    sweep_grid,
)

HERE = Path(__file__).resolve().parent

#: Units of the end-to-end metrics, as declared in ``BENCHMARK.json``.
UNITS = {
    "updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "host_calls_per_update": "calls",
    "sim_ms_per_update": "sim_ms",
    "wire_bytes_per_update": "bytes",
}

#: Set-up samples per run: up to this many, but stop once the phase has
#: used its time budget (never fewer than the minimum).
SETUP_SAMPLES_MAX = 7
SETUP_SAMPLES_MIN = 3
SETUP_BUDGET_S = 5.0
#: Memory touched and released before each set-up sample.
PREFAULT_MB = 256
#: The timed phase never reports fewer repeats than this.
MIN_REPEATS = 3


def digest(w: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(w).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this (the workload's measuring) process.

    Descendants are left out on purpose: ``ru_maxrss`` survives fork+exec,
    so every child already reports at least its parent's peak, and the
    pre-fault helper would dominate ``RUSAGE_CHILDREN``.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sandwich(
    sample: Callable[[], float], more: Callable[[int, float], bool]
) -> tuple[list[float], list[float], list[float]]:
    """Take samples, each between two yardstick timings.

    ``more(count, elapsed_s)`` decides whether to take another sample.
    Returns ``(raw, calibrated, yardsticks)``.
    """
    start = time.perf_counter()
    yardstick.run(yardstick.ITERATIONS // 5)  # warm its arrays and caches
    yards = [yardstick.timed()]
    raw: list[float] = []
    while True:
        raw.append(sample())
        yards.append(yardstick.timed())
        if not more(len(raw), time.perf_counter() - start):
            break
    calibrated = [
        yardstick.calibrate(e, yards[i], yards[i + 1])
        for i, e in enumerate(raw)
    ]
    return raw, calibrated, yards


def count_calls(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` under the C profiler; returns ``(result, calls)``.

    ``calls`` is the number of ``call`` + ``c_call`` profile events — a
    proxy for interpreter work that repeats exactly across processes.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, sum(entry.callcount for entry in profiler.getstats())


# -- set-up phase ----------------------------------------------------------------


def setup_sample(name: str, seed: int, workdir: str) -> float:
    """Wall seconds of one fresh-subprocess set-up (see setup_probe.py).

    Memory is pre-faulted first (see prefault.py), untimed, so every
    sample starts from the same warm page supply.
    """
    subprocess.run(
        [sys.executable, str(HERE / "prefault.py"), str(PREFAULT_MB)],
        check=True,
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), workdir],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def setup_phase(name: str, seed: int, workdir: str, quick: bool) -> dict:
    limit = 1 if quick else SETUP_SAMPLES_MAX

    def more(count: int, elapsed: float) -> bool:
        if count >= limit:
            return False
        return count < SETUP_SAMPLES_MIN or elapsed < SETUP_BUDGET_S

    raw, cal, yards = sandwich(lambda: setup_sample(name, seed, workdir), more)
    return {
        "setup_s": statistics.median(cal),
        "raw_setup_s": statistics.median(raw),
        "raw": [round(r, 4) for r in raw],
        "yardsticks": yards,
    }


# -- engine workloads ------------------------------------------------------------


class EngineWorkload:
    """One engine workload: shared dataset/problem, fresh run per repeat."""

    def __init__(self, name: str, seed: int, workdir: str, quick: bool) -> None:
        from repro.api.runner import prepare_experiment
        from repro.data.registry import get_dataset

        self.spec = engine_spec(name, seed, workdir, quick=quick)
        # --quick budgets are too short to converge: schema smoke only.
        self.max_rel_error = (
            float("inf") if quick else WORKLOADS[name].max_rel_error
        )
        self.dataset = get_dataset(self.spec["dataset"], seed=seed)
        self.problem = prepare_experiment(
            self.spec, _dataset=self.dataset
        ).problem
        # Solve the reference optimum once, outside every timed region.
        self.initial_error = float(self.problem.initial_error())

    def run(
        self,
        wrap: Callable = lambda fn: (fn(), None),
        inspect: Callable | None = None,
    ) -> dict:
        """One fresh run; ``wrap(fn)`` executes the timed body and returns
        ``(result, extra)`` (the counted pass passes :func:`count_calls`).
        ``inspect(prep, ctx, result)`` sees the run before its context
        closes (the traced pass reads layer counters there)."""
        from repro.api.runner import prepare_experiment

        prep = prepare_experiment(
            self.spec, _dataset=self.dataset, _problem=self.problem
        )
        with prep.make_context() as ctx:
            gc.collect()
            t0 = time.perf_counter()
            result, extra = wrap(lambda: prep.run_in(ctx))
            seconds = time.perf_counter() - t0
            disp = ctx.dispatcher
            wire = (
                disp.total_in_bytes + disp.total_out_bytes
                + disp.total_fetch_bytes
            )
            if inspect is not None:
                inspect(prep, ctx, result)
        return {
            "seconds": seconds,
            "extra": extra,
            "updates": int(result.updates),
            "sim_ms": float(result.elapsed_ms),
            "wire_bytes": int(wire),
            "digest": digest(result.w),
            "rel_error": float(self.problem.error(result.w))
            / self.initial_error,
        }

    def failure(self, out: dict, reference: dict | None) -> str | None:
        """Why this run fails its checks, or ``None`` when it passes."""
        if out["updates"] != self.spec["max_updates"]:
            return f"updates {out['updates']} != {self.spec['max_updates']}"
        if reference is not None and out["digest"] != reference["digest"]:
            return "model digest differs from the counted pass"
        if not out["rel_error"] <= self.max_rel_error:
            return (
                f"final_rel_error {out['rel_error']:.4g} > "
                f"{self.max_rel_error}"
            )
        return None


def timed_phase(
    sample: Callable[[], float], seconds: float, quick: bool
) -> tuple[list[float], list[float], list[float]]:
    """Sandwiched repeats until ``seconds`` are used (one when ``quick``)."""

    def more(count: int, elapsed: float) -> bool:
        return not quick and (count < MIN_REPEATS or elapsed < seconds)

    return sandwich(sample, more)


def assemble(
    name: str, setup: dict, samples: tuple, *, updates: int, calls: int,
    sim_ms: float, wire_bytes: int, rel_error: float, attempted: int,
    failed: int, failures: list[str], **diagnostics: Any,
) -> dict:
    """One workload's result: metrics, operation counts, raw diagnostics.

    ``updates`` is the number of applied updates one timed sample covers.
    """
    raw, cal, yards = samples
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "correct": not failures,
        "repeats": len(raw),
        "metrics": {
            "updates_per_s": statistics.median(updates / c for c in cal),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
            "host_calls_per_update": calls / updates,
            "sim_ms_per_update": sim_ms / updates,
            "wire_bytes_per_update": wire_bytes / updates,
        },
        "raw": {
            "updates_per_s": statistics.median(updates / r for r in raw),
            "setup_s": setup["raw_setup_s"],
            "yardstick_s": statistics.median(yards + setup["yardsticks"]),
            "run_s": [round(r, 4) for r in raw],
            "yardsticks_s": [round(y, 4) for y in yards],
            "setup_run_s": setup["raw"],
            "setup_yardsticks_s": [round(y, 4) for y in setup["yardsticks"]],
            "final_rel_error": rel_error,
            **diagnostics,
        },
    }


def measure_engine(
    name: str, seed: int, seconds: float, workdir: str, quick: bool
) -> dict:
    setup = setup_phase(name, seed, workdir, quick)
    work = EngineWorkload(name, seed, workdir, quick)

    counted = work.run(count_calls)
    why = work.failure(counted, None)
    failures = [f"counted pass: {why}"] if why else []

    runs: list[dict] = []

    def sample() -> float:
        runs.append(work.run())
        return runs[-1]["seconds"]

    samples = timed_phase(sample, seconds, quick)
    checks = [work.failure(out, counted) for out in runs]
    failures += [f"repeat {i}: {why}" for i, why in enumerate(checks) if why]
    return assemble(
        name, setup, samples,
        updates=counted["updates"], calls=counted["extra"],
        sim_ms=counted["sim_ms"], wire_bytes=counted["wire_bytes"],
        rel_error=counted["rel_error"], attempted=len(runs),
        failed=sum(why is not None for why in checks), failures=failures,
        digest=counted["digest"],
    )


# -- sweep_fabric ----------------------------------------------------------------


class SweepWorkload:
    """The 8-cell grid: a serial per-cell reference and fabric sweeps."""

    def __init__(self, seed: int, workdir: str, quick: bool) -> None:
        from repro.api.spec import GridSpec

        self.grid = sweep_grid(seed, quick=quick)
        self.specs = GridSpec.coerce(self.grid).expand()
        self.max_updates = self.grid["base"]["max_updates"]
        self.max_rel_error = (
            float("inf") if quick else WORKLOADS["sweep_fabric"].max_rel_error
        )
        self.checkpoint = os.path.join(workdir, f"sweep-{os.getpid()}.ckpt.jsonl")

    def serial(self) -> dict:
        """Every cell in-process, through the cell path ``run_grid(jobs=1)``
        uses (``prepare_shared`` -> run -> ``summarize``), keeping the
        context open long enough to read the dispatcher's byte counters."""
        from repro.api.parallel import (
            clear_shared_cache,
            group_key,
            prepare_shared,
        )
        from repro.api.runner import summarize

        order = sorted(
            range(len(self.specs)),
            key=lambda i: (group_key(self.specs[i]), i),
        )
        summaries: list[Any] = [None] * len(self.specs)
        cell_s: list[float] = [0.0] * len(self.specs)
        wire = 0
        try:
            for i in order:
                t0 = time.perf_counter()
                prep = prepare_shared(self.specs[i].to_dict())
                with prep.make_context() as ctx:
                    result = prep.run_in(ctx)
                    disp = ctx.dispatcher
                    wire += (
                        disp.total_in_bytes + disp.total_out_bytes
                        + disp.total_fetch_bytes
                    )
                summaries[i] = summarize(prep, result)
                cell_s[i] = time.perf_counter() - t0
        finally:
            clear_shared_cache()
        return {"summaries": summaries, "wire_bytes": wire, "cell_s": cell_s}

    def fabric(self) -> tuple[float, list[dict]]:
        """One sweep through the fabric; ``(wall seconds, summaries)``."""
        from repro.api.runner import run_grid

        gc.collect()
        t0 = time.perf_counter()
        summaries = run_grid(
            self.grid, fabric=dict(FABRIC), checkpoint=self.checkpoint
        )
        return time.perf_counter() - t0, summaries

    def cell_failure(self, summary: Any, reference: Any) -> str | None:
        if not isinstance(summary, dict):
            return "cell produced no summary"
        if summary.get("updates") != self.max_updates:
            return f"updates {summary.get('updates')} != {self.max_updates}"
        if reference is not None and summary != reference:
            return "summary differs from the serial pass"
        rel = summary["final_error"] / summary["initial_error"]
        if not rel <= self.max_rel_error:
            return f"final_rel_error {rel:.4g} > {self.max_rel_error}"
        return None


def sweep_totals(summaries: list[dict]) -> tuple[int, float, float]:
    """``(updates, simulated ms, median rel error)`` over a sweep's cells."""
    updates = sum(s["updates"] for s in summaries)
    sim_ms = sum(s["elapsed_ms"] for s in summaries)
    rel = statistics.median(
        s["final_error"] / s["initial_error"] for s in summaries
    )
    return updates, sim_ms, rel


def measure_sweep(seed: int, seconds: float, workdir: str, quick: bool) -> dict:
    setup = setup_phase("sweep_fabric", seed, workdir, quick)
    work = SweepWorkload(seed, workdir, quick)

    serial, calls = count_calls(work.serial)
    reference = serial["summaries"]
    failures = [
        f"serial cell {i}: {why}"
        for i, summary in enumerate(reference)
        if (why := work.cell_failure(summary, None)) is not None
    ]
    updates, sim_ms, rel_error = sweep_totals(reference)

    sweeps: list[list[dict]] = []

    def sample() -> float:
        wall, summaries = work.fabric()
        sweeps.append(summaries)
        return wall

    samples = timed_phase(sample, seconds, quick)
    cell_failures = [
        f"sweep {r} cell {i}: {why}"
        for r, summaries in enumerate(sweeps)
        for i, summary in enumerate(summaries)
        if (why := work.cell_failure(summary, reference[i])) is not None
    ]
    return assemble(
        "sweep_fabric", setup, samples,
        updates=updates, calls=calls, sim_ms=sim_ms,
        wire_bytes=serial["wire_bytes"], rel_error=rel_error,
        attempted=len(sweeps) * len(reference), failed=len(cell_failures),
        failures=failures + cell_failures, serial_s=sum(serial["cell_s"]),
    )


def measure(
    name: str, seed: int, seconds: float, workdir: str, quick: bool = False
) -> dict:
    """Every end-to-end metric of one workload, wrappers off."""
    if name == "sweep_fabric":
        return measure_sweep(seed, seconds, workdir, quick)
    return measure_engine(name, seed, seconds, workdir, quick)
