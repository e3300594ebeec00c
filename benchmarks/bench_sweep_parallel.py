"""Wall-clock speedup of the parallel sweep engine over the serial path.

Runs the same multi-cell grid through ``run_grid`` at ``jobs=1`` and
``jobs=N``, asserts the summaries are identical (same order, same
values), and writes a ``BENCH_sweep.json`` record so the perf trajectory
accumulates across PRs::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py --jobs 4

The grid mirrors ``examples/specs/parallel_sweep.json``: 8 independent
simulated ASGD runs (barrier x seed) sized so per-cell work dominates
pool startup. On a single-core box the parallel path degrades to ~1x;
the speedup record includes the visible core count so readings stay
comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import run_grid  # noqa: E402
from repro.api.parallel import resolve_jobs  # noqa: E402


def sweep_grid(cells: int, max_updates: int) -> dict:
    """An ``{8, 12, 16}``-cell grid of independent ASGD simulations."""
    barriers = ["asp", "ssp:4", "frac:0.5", "bsp"]
    seeds = list(range(max(2, (cells + len(barriers) - 1) // len(barriers))))
    return {
        "base": {
            "algorithm": "asgd",
            "dataset": "mnist8m_like",
            "num_workers": 8,
            "num_partitions": 32,
            "delay": "cds:0.6",
            "max_updates": max_updates,
            "eval_every": 40,
            "seed": 0,
        },
        "grid": {"policy": barriers, "seed": seeds},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool size for the parallel run (default 4)")
    parser.add_argument("--cells", type=int, default=8,
                        help="minimum grid cells (default 8)")
    parser.add_argument("--updates", type=int, default=1200,
                        help="max_updates per cell (default 1200)")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="where to write the speedup record")
    args = parser.parse_args(argv)

    grid = sweep_grid(args.cells, args.updates)
    jobs = resolve_jobs(args.jobs)

    t0 = time.perf_counter()
    serial = run_grid(grid, jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_grid(grid, jobs=jobs)
    t_parallel = time.perf_counter() - t0

    parity = serial == parallel
    speedup = t_serial / max(t_parallel, 1e-9)
    record = {
        "bench": "sweep_parallel",
        "cells": len(serial),
        "updates_per_cell": args.updates,
        "jobs": jobs,
        "cpu_count": resolve_jobs(0),
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "speedup": round(speedup, 3),
        "parity": parity,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not parity:
        print("FAIL: parallel summaries differ from serial", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
