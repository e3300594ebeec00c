"""asyncbench — the repo benchmark (one command, every metric by name).

    python3 benchmarks/asyncbench/run.py                      # all workloads
    python3 benchmarks/asyncbench/run.py --workload asgd_asp --seed 3 \\
        --seconds 12 --trace 0                                # one, end to end
    python3 benchmarks/asyncbench/run.py --workload asgd_asp --trace 1
    python3 benchmarks/asyncbench/run.py --quick              # schema smoke

The driver process stays thin: it runs each workload
in its own child process (so ``peak_rss_mb`` is per workload, and thread
and hash-seed pins apply from interpreter start), prints every metric
with its unit and ends with one JSON object on the last line::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"updates_per_s": {"value": 4512.3, "unit": "1/s"}, ...}}

``--trace 0`` reports the end-to-end metrics (wrappers off); ``--trace 1``
reports the per-layer metrics of the traced pass and writes
``_work/trace-<workload>.json``. Exit status is non-zero when any check
fails. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path[:0] = [str(SRC), str(HERE.parent)]

#: Everything the benchmark writes lands here (inside the checkout).
WORK = HERE / "_work"
#: A child that has not finished by then is killed with its descendants.
CHILD_TIMEOUT_S = 170.0


def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(workdir),
    )
    return env


def run_child(args: argparse.Namespace, name: str, workdir: Path) -> dict:
    """Measure one workload in a fresh process; returns its result dict."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(workdir),
        start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"asyncbench: workload {name} timed out")
    if proc.returncode != 0:
        raise SystemExit(
            f"asyncbench: workload {name} exited with {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def child_main(args: argparse.Namespace) -> int:
    """The measuring process: one workload, result as one JSON line."""
    if args.trace:
        from asyncbench.tracing import LAYER_UNITS as units, traced_measure

        result = traced_measure(
            args.workload, args.seed, args.seconds, args.workdir,
            quick=args.quick, trace_path=str(WORK / f"trace-{args.workload}.json"),
        )
    else:
        from asyncbench.measure import UNITS as units, measure

        result = measure(
            args.workload, args.seed, args.seconds, args.workdir,
            quick=args.quick,
        )
    print(json.dumps({**result, "units": units}))
    return 0


def report(name: str, result: dict) -> None:
    units = result["units"]
    print(
        f"workload {name}: R={result['repeats']} repeats, "
        f"ops_attempted={result['attempted']} ops_failed={result['failed']}"
    )
    for metric, value in result["metrics"].items():
        print(f"  {metric:<28} {value:>16.6g}  {units[metric]}")
    for metric, value in result.get("raw", {}).items():
        print(f"  raw.{metric:<24} {value!s:>16}")
    for stage, share in result.get("top_stages", []):
        print(f"  top_stage {stage:<22} {share:>16.1%}  of named-span self time")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    from asyncbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed phase (default 12)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = traced pass, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="schema smoke: tiny budgets, not for numbers")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"asyncbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: run_child(args, name, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"asyncbench seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    for name, result in results.items():
        report(name, result)
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {
            "value": value, "unit": result["units"][metric],
        }
        for name, result in results.items()
        for metric, value in result["metrics"].items()
    }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
