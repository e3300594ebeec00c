"""Does the benchmark agree with itself? Two sets of runs of the same code.

    python3 benchmarks/asyncbench/selfcheck.py --runs 10 --out SELFCHECK.md

Runs two sets (A, B) of ``--runs`` full benchmark runs per workload,
alternating which set goes first, run ``i`` of both sets on seed ``i`` —
what the builder's driver does before it accepts a benchmark. For every
(workload, end-to-end metric) it prints each set's median and quartiles,
each set's spread (IQR / median), the set-to-set gap in the metric's
"worse" direction, and a verdict against the bound in ``BENCHMARK.json``:

- ``PASS``        gap <= bound and both spreads <= bound,
- ``UNRESOLVED``  a spread is wider than the bound (the benchmark cannot
                  tell a regression of that size from noise),
- ``FAIL``        gap > bound.

It also lists the raw (uncalibrated) spread of the wall metrics next to
the calibrated one, so the yardstick's benefit stays on record, and —
with ``--trace`` — the top three stages of one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WALL_METRICS = ("updates_per_s", "setup_s")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run; end-to-end (or per-layer) metrics plus the
    ``raw.*`` diagnostics parsed from the human-readable lines."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"selfcheck: {workload} seed {seed} failed its checks")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["top_stages"] = []
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("raw."):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
        elif parts[:1] == ["top_stage"]:
            values["top_stages"].append(f"`{parts[1]}` {parts[2]}")
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def farthest(sets: dict[str, list[dict]], key: str) -> float:
    """The single run farthest from its own set's median, as a share."""
    worst = 0.0
    for runs in sets.values():
        values = [run[key] for run in runs]
        med = statistics.median(values)
        worst = max(worst, max(abs(v - med) / med for v in values))
    return worst


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    gap = (second - first) / first
    return -gap if metric["better"] == "higher" else gap


def host_fingerprint() -> str:
    import os

    import numpy
    import scipy

    return (
        f"nproc={os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"{platform.system()} {platform.machine()}"
    )


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (>= 5; default 10)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace", action="store_true",
                        help="also list one traced run's top stages")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument("--baseline",
                        help="write medians, quartiles and the host "
                        "fingerprint of all runs to this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    started = time.time()
    sets: dict[str, dict[str, list[dict]]] = {
        w: {"A": [], "B": []} for w in args.workloads
    }
    for i in range(args.runs):
        for label in ("AB" if i % 2 == 0 else "BA"):
            for w in args.workloads:
                sets[w][label].append(run_once(w, i, args.seconds))
                print(f"# run {i} set {label} {w} done", file=sys.stderr)

    out: list[str] = [
        "# asyncbench selfcheck",
        "",
        f"Two sets of {args.runs} runs per workload (seeds 0-{args.runs - 1}, "
        f"`--seconds {args.seconds}`), alternating A/B, same code.",
        f"Host: {host_fingerprint()}. "
        f"Took {(time.time() - started) / 60:.0f} min.",
        "",
        "Spread = (q3 - q1) / median over a set's runs. Gap = how much worse "
        "set B's median is than set A's (negative = better).",
        "",
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] "
        "| spread A | spread B | gap | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    verdicts: list[str] = []
    for w in args.workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [run[name] for run in sets[w]["A"]]
            b = [run[name] for run in sets[w]["B"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            gap = worse_by(metric, am, bm)
            bound = metric["bound"]
            if gap > bound:
                verdict = "FAIL"
            elif name != "setup_s" and max(sa, sb) > bound:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            verdicts.append(verdict)
            out.append(
                f"| {w} | {name} | {metric['unit']} "
                f"| {am:.6g} [{a1:.6g}, {a3:.6g}] "
                f"| {bm:.6g} [{b1:.6g}, {b3:.6g}] "
                f"| {sa:.2%} | {sb:.2%} | {gap:+.2%} | {bound:.0%} "
                f"| {verdict} |"
            )
    out += [
        "",
        "## Raw vs calibrated wall metrics",
        "",
        "Spread over all runs of both sets; `far` = the single run farthest "
        "from its set's median.",
        "",
        "| workload | metric | calibrated spread | raw spread | calibrated far "
        "| raw far | yardstick median (s) |",
        "|---|---|---|---|---|---|---|",
    ]
    for w in args.workloads:
        runs = sets[w]["A"] + sets[w]["B"]
        yard = statistics.median(r["raw.yardstick_s"] for r in runs)
        for name in WALL_METRICS:
            cal = [r[name] for r in runs]
            raw = [r[f"raw.{name}"] for r in runs]
            out.append(
                f"| {w} | {name} | {spread(cal):.2%} | {spread(raw):.2%} "
                f"| {farthest(sets[w], name):.2%} "
                f"| {farthest(sets[w], 'raw.' + name):.2%} | {yard:.4f} |"
            )
    if args.trace:
        out += [
            "", "## Top three stages per workload (one traced run, seed 0)", "",
            "| workload | stages (share of traced self time) | trace.coverage "
            "| trace.overhead_ratio |",
            "|---|---|---|---|",
        ]
        for w in args.workloads:
            traced = run_once(w, 0, args.seconds, trace=1)
            out.append(
                f"| {w} | {', '.join(traced['top_stages'])} "
                f"| {traced['trace.coverage']:.3f} "
                f"| {traced['trace.overhead_ratio']:.2f} |"
            )
    if args.baseline:
        baseline = {
            "host": host_fingerprint(),
            "run_seconds": args.seconds,
            "runs_per_workload": 2 * args.runs,
            "seeds": list(range(args.runs)),
            "metrics": {
                w: {
                    m["name"]: dict(zip(
                        ("q1", "median", "q3"),
                        quartiles([
                            run[m["name"]]
                            for run in sets[w]["A"] + sets[w]["B"]
                        ]),
                    ))
                    for m in bench["end_to_end"]
                }
                for w in args.workloads
            },
            # The counted metrics repeat exactly for a given seed.
            "per_seed": {
                w: {
                    str(seed): {
                        name: sets[w]["A"][seed][name]
                        for name in (
                            "host_calls_per_update", "sim_ms_per_update",
                            "wire_bytes_per_update", "raw.final_rel_error",
                        )
                    }
                    for seed in (0, 1)
                }
                for w in args.workloads
            },
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=2) + "\n")
    report = "\n".join(out) + "\n"
    print(report)
    if args.out:
        Path(args.out).write_text(report)
    return 0 if "FAIL" not in verdicts else 1


if __name__ == "__main__":
    sys.exit(main())
