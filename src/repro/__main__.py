"""Command-line runner: experiments as JSON files.

::

    python -m repro run examples/specs/asgd.json
    python -m repro sweep examples/specs/asgd_barrier_sweep.json --out results.json
    python -m repro sweep examples/specs/parallel_sweep.json --jobs 4 --resume
    python -m repro sweep grid.json --serve 2859          # fabric coordinator
    python -m repro sweep-worker otherhost:2859           # fabric worker
    python -m repro sweep-status grid.ckpt.jsonl          # live progress
    python -m repro list

``run`` executes a single :class:`~repro.api.ExperimentSpec`; ``sweep``
expands a :class:`~repro.api.GridSpec` (a plain spec counts as a 1-cell
grid) and runs every cell, each summary streaming to a checkpoint JSONL
as it lands so ``--resume`` re-runs only unfinished cells after an
interrupt. ``--jobs N`` forks ``N`` workers from the sweep process: it
becomes a coordinator of the sweep fabric (:mod:`repro.fabric`) leasing
cells over a loopback socket, and the workers pull, execute, and stream
summaries back into the same checkpoint — identical results, with work
stealing and at-most-once accounting. ``--serve`` puts that coordinator
on an endpoint ``sweep-worker`` processes on other hosts can join too.
``sweep-status`` renders a running (or finished) ``--jobs``/``--serve``
sweep's progress from the checkpoint's status sidecar.
Both run/sweep print human-readable summaries and can write the
machine-readable form with ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.errors import FabricDrained, ReproError

__all__ = ["main"]


def _load_json(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read spec {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ReproError(f"{path}: top-level JSON value must be an object")
    return data


def _write_out(payload, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise ReproError(f"cannot write {out!r}: {exc}") from exc
        print(f"wrote {out}")


def _varied_fields(summary: dict, grid_axes: list[str]) -> str:
    spec = summary["spec"]
    parts = []
    for axis in grid_axes:
        node, keys = spec, axis.split(".")
        for key in keys:
            node = node[key] if isinstance(node, dict) else node
        parts.append(f"{keys[-1]}={node}")
    return " ".join(parts)


def _print_summary(summary: dict, prefix: str = "") -> None:
    print(
        f"{prefix}{summary['algorithm']:>14s}  "
        f"err {summary['initial_error']:.4g} -> {summary['final_error']:.4g}"
        f"  in {summary['elapsed_ms']:8.1f} ms"
        f"  ({summary['updates']} updates, {summary['rounds']} rounds, "
        f"avg wait {summary['avg_wait_ms']:.2f} ms)"
    )


def _write_profile_json(stats, path: str, top_n: int = 25) -> None:
    """Dump the profile's top functions as machine-readable JSON.

    Two rankings — cumulative time (where a run's time goes, including
    callees) and total time (which bodies are hot themselves) — each as
    ``{file, line, function, calls, tottime_s, cumtime_s}`` rows, so a
    regression in the engine's hot path diffs as JSON instead of a
    pstats text dump.
    """
    import json

    def rows(sort_key):
        entries = sorted(
            stats.stats.items(),
            key=lambda item: sort_key(item[1]),
            reverse=True,
        )[:top_n]
        return [
            {
                "file": func[0],
                "line": func[1],
                "function": func[2],
                "calls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
            for func, (cc, nc, tt, ct, callers) in entries
        ]

    record = {
        "total_calls": stats.total_calls,
        "total_time_s": stats.total_tt,
        "top_cumulative": rows(lambda row: row[3]),
        "top_tottime": rows(lambda row: row[2]),
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=2)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.runner import prepare_experiment, summarize

    data = _load_json(args.spec)
    # Crash-safety flags override (or add to) the spec file, so the same
    # spec can be launched with snapshots and relaunched with --restore.
    if args.snapshot is not None:
        data["snapshot_path"] = args.snapshot
        data.setdefault("snapshot_every", 100)
    if args.snapshot_every is not None:
        data["snapshot_every"] = args.snapshot_every
    if args.restore is not None:
        data["restore_from"] = args.restore
    prep = prepare_experiment(data)
    spec = prep.spec
    print(
        f"running {spec.algorithm} on {spec.dataset} "
        f"(P={spec.num_workers}, delay={spec.delay!r}, "
        f"policy={spec.policy!r}, seed={spec.seed})"
    )
    if spec.restore_from:
        print(f"restoring from snapshot {spec.restore_from}")
    if spec.snapshot_every:
        print(
            f"snapshotting to {spec.snapshot_path} every "
            f"{spec.snapshot_every} update(s)"
        )
    if args.profile is not None or args.profile_json is not None:
        # Profile only the engine (prepare/summarize stay outside): the
        # stats then answer "where does a run spend its time".
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = prep.execute()
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        if args.profile:
            stats.dump_stats(args.profile)
            print(f"profile stats written to {args.profile}")
        if args.profile_json is not None:
            _write_profile_json(stats, args.profile_json)
            print(f"profile summary written to {args.profile_json}")
    else:
        result = prep.execute()
    summary = summarize(prep, result)
    _print_summary(summary)
    for key, value in sorted(summary["extras"].items()):
        print(f"    {key}: {value}")
    _write_out(summary, args.out)
    return 0


def _default_checkpoint(spec_path: str) -> str | None:
    """Where sweep progress streams unless ``--checkpoint`` overrides."""
    if spec_path == "-":
        return None
    return str(Path(spec_path).with_suffix(".ckpt.jsonl"))


def _fabric_from_args(args: argparse.Namespace, jobs: int):
    """``--serve``/``--lease-ttl`` -> a ``run_grid(fabric=...)`` value;
    ``None`` when ``--jobs`` alone says everything there is to say."""
    if not args.serve and (jobs <= 1 or args.lease_ttl is None):
        return None
    # A served sweep forks no one unless asked: its workers may all be
    # on other hosts.
    fabric: dict = {"local_workers": 0 if args.jobs is None else jobs}
    if args.serve:
        endpoint = args.serve
        if ":" not in endpoint:
            # A bare port on the CLI means "serve this sweep to other
            # hosts": bind every interface, not just loopback.
            endpoint = f"0.0.0.0:{endpoint}"
        fabric["serve"] = endpoint
        # A served sweep is a long-lived process someone will eventually
        # `kill`: drain on SIGTERM (exit 143, checkpoint flushed) so the
        # sweep is resumable instead of torn mid-lease.
        fabric["graceful_sigterm"] = True
    if args.lease_ttl is not None:
        fabric["lease_ttl"] = args.lease_ttl
    return fabric


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api.parallel import resolve_jobs
    from repro.api.runner import run_grid
    from repro.api.spec import GridSpec

    # Pure flag-usage errors fail before stdin is consumed or the spec
    # parsed, so misuse is never masked by a spec error.
    if args.no_checkpoint:
        if args.resume:
            raise ReproError("--resume and --no-checkpoint conflict")
        if args.checkpoint:
            raise ReproError("--checkpoint and --no-checkpoint conflict")
        checkpoint = None
    else:
        checkpoint = args.checkpoint or _default_checkpoint(args.spec)
    if args.resume and checkpoint is None:
        raise ReproError(
            "--resume needs a checkpoint file; pass --checkpoint when the "
            "spec comes from stdin"
        )
    jobs = 1 if args.jobs is None else resolve_jobs(args.jobs)
    fabric = _fabric_from_args(args, jobs)
    grid = GridSpec.coerce(_load_json(args.spec))
    axes = list(grid.grid)
    mode = (
        f"fabric={fabric}" if fabric is not None else f"jobs={jobs}"
    )
    print(
        f"sweep: {len(grid)} cell(s) over {axes or ['(single spec)']}"
        f" [{mode}"
        + (f", checkpoint={checkpoint}" if checkpoint else "")
        + (", resume" if args.resume else "")
        + "]"
    )
    if fabric is not None and fabric.get("serve"):
        print(
            f"fabric: serving cell leases on {fabric['serve']} — join "
            f"workers with: python -m repro sweep-worker <host>:"
            f"{fabric['serve'].rsplit(':', 1)[1]}"
        )

    def progress(i: int, total: int, summary: dict) -> None:
        _print_summary(summary, prefix=f"[{i + 1}/{total}] ")
        varied = _varied_fields(summary, axes)
        if varied:
            print(f"          {varied}")

    summaries = run_grid(
        grid, progress=progress, jobs=jobs, checkpoint=checkpoint,
        resume=args.resume, fabric=fabric,
    )
    _write_out(summaries, args.out)
    return 0


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.fabric import SweepWorker

    worker = SweepWorker(
        args.endpoint,
        name=args.name,
        chaos=args.chaos,
        max_connect_attempts=args.max_connect_attempts,
        log=(lambda line: None) if args.quiet else print,
    )
    stats = worker.run()
    print(
        f"worker {worker.name}: {stats['cells']} cell(s) over "
        f"{stats['leases']} lease(s)"
    )
    return 0


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fabric import format_status, read_status

    status = read_status(args.checkpoint)
    if args.json:
        print(_json.dumps(status, indent=2))
    else:
        print(format_status(status))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    import repro.api.runner  # noqa: F401  (populates every registry)
    from repro.api import (
        COMPRESSORS, DELAY_MODELS, OPTIMIZERS, POLICIES, PROBLEMS, STEPS,
    )
    from repro.core.policies import SchedulingPolicy, policy_hooks
    from repro.data.registry import REGISTRY, list_datasets

    for registry in (OPTIMIZERS, PROBLEMS, STEPS, DELAY_MODELS, COMPRESSORS):
        print(f"{registry.kind}s: {', '.join(registry.names())}")
    print("scheduling policies (protocol hooks each overrides):")
    for name in POLICIES.names():
        factory = POLICIES.get(name)
        if isinstance(factory, type) and issubclass(factory, SchedulingPolicy):
            hooks = policy_hooks(factory)
            detail = ", ".join(hooks) if hooks else "defaults (ASP-like)"
        else:
            detail = "custom factory"
        print(f"  {name}: {detail}")
    print(
        "policies compose in string form: 'a & b' (both ready, selections "
        "intersect, weights multiply), 'a | b' (either; union; max); "
        "'&' binds tighter"
    )
    history_users = [
        name for name in OPTIMIZERS.names()
        if getattr(OPTIMIZERS.get(name), "uses_history", False)
    ]
    print(
        "history-using optimizers (server-side HIST channels): "
        + ", ".join(history_users)
    )
    print(
        "  retention policies: all (broadcast history), last:k (bounded "
        "deques), window:ms (sliding windows)"
    )
    print(f"datasets: {', '.join(list_datasets())}")
    for name in list_datasets():
        spec = REGISTRY[name]
        print(
            f"  {name}: n={spec.n} d={spec.d} "
            f"{'sparse' if spec.sparse else 'dense'} {spec.task}"
        )
    print(
        'datasets also accept file specs: '
        '{"name": "libsvm", "path": "<file>"}'
    )
    print("granularities: worker, partition")
    print("compressors (spec field 'compressor', async optimizers only):")
    print("  none: identity (bit-identical to no compressor at all)")
    print("  topk:f: keep the ceil(f*n) largest-magnitude entries")
    print("  randk:f: keep ceil(f*n) seeded uniformly sampled entries")
    print("  int8: 8-bit linear quantization, one float scale per tensor")
    print("  onebit: sign bitmap + mean-magnitude scale (1 bit per entry)")
    print(
        "  lossy compressors run with per-worker error feedback; dict "
        'specs add delta broadcasting: {"name": "topk", "fraction": 0.1, '
        '"delta": true}'
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative ASYNC experiments from JSON specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment spec")
    p_run.add_argument("spec", help="path to an ExperimentSpec JSON ('-' for stdin)")
    p_run.add_argument("--out", help="write the JSON summary here")
    p_run.add_argument(
        "--snapshot", metavar="PATH",
        help="atomically rewrite this file with the full run state every "
             "--snapshot-every updates",
    )
    p_run.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="snapshot cadence in applied updates (default 100 when "
             "--snapshot is set)",
    )
    p_run.add_argument(
        "--restore", metavar="PATH",
        help="resume from a run snapshot: the continued trajectory is "
             "bit-identical to the uninterrupted run",
    )
    p_run.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="PATH",
        help="run under cProfile and print the top functions by "
             "cumulative time; with PATH, also dump the raw stats there "
             "for pstats/snakeviz",
    )
    p_run.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="profile the run and write the top functions by cumulative "
             "and total time as JSON (implies profiling even without "
             "--profile)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep (GridSpec)")
    p_sweep.add_argument("spec", help="path to a GridSpec JSON ('-' for stdin)")
    p_sweep.add_argument("--out", help="write the list of JSON summaries here")
    p_sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes forked for cells (0 = one per core; default "
             "1 = this process, or none beside --serve); summaries equal a "
             "serial run's, and sweep-status reads the sweep's checkpoint",
    )
    p_sweep.add_argument(
        "--checkpoint", metavar="PATH",
        help="JSONL file each summary is appended to as its cell finishes "
             "(default: <spec>.ckpt.jsonl next to the spec file)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="skip cells already recorded in the checkpoint file",
    )
    p_sweep.add_argument(
        "--no-checkpoint", action="store_true",
        help="don't stream cell summaries to a checkpoint file "
             "(e.g. when the spec's directory is read-only)",
    )
    p_sweep.add_argument(
        "--serve", metavar="[HOST:]PORT",
        help="serve the sweep's cell leases on this endpoint so "
             "sweep-worker processes on other hosts can join the --jobs "
             "workers (a bare port binds every interface)",
    )
    p_sweep.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="fabric lease deadline: a worker silent this long has its "
             "cells re-issued to others (default 30)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_worker = sub.add_parser(
        "sweep-worker",
        help="join a fabric sweep from any host: pull cell leases from a "
             "coordinator, execute, stream summaries back (same-host "
             "workers are simpler as sweep --jobs N)",
    )
    p_worker.add_argument(
        "endpoint", help="the coordinator's host:port (from sweep --serve)"
    )
    p_worker.add_argument(
        "--name", help="worker name in status views (default host-pid)"
    )
    p_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-cell log lines"
    )
    p_worker.add_argument(
        "--chaos", metavar="SPEC",
        help="perturb this worker's fabric traffic with a seeded fault "
             "model, e.g. 'drop=0.1,dup=0.05,delay=20,sever=50,seed=3'",
    )
    p_worker.add_argument(
        "--max-connect-attempts", type=int, default=12, metavar="N",
        help="connection attempts (capped exponential backoff + jitter) "
             "before giving up on the coordinator (default 12)",
    )
    p_worker.set_defaults(fn=_cmd_sweep_worker)

    p_status = sub.add_parser(
        "sweep-status",
        help="show a --jobs / --serve sweep's progress (done / in-flight "
             "/ re-issued, per-worker throughput, ETA) from its checkpoint",
    )
    p_status.add_argument(
        "checkpoint", help="the sweep's checkpoint JSONL path"
    )
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_status.set_defaults(fn=_cmd_sweep_status)

    p_list = sub.add_parser("list", help="list registered components and datasets")
    p_list.set_defaults(fn=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FabricDrained as exc:
        # SIGTERM drain: partial progress is flushed to the checkpoint;
        # exit the way a terminated process is expected to.
        print(f"drained: {exc}", file=sys.stderr)
        return 143  # 128 + SIGTERM
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The stdout consumer (head, less, ...) went away mid-run; any
        # sweep progress is already in the checkpoint, so exit like a
        # well-behaved shell tool instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention


if __name__ == "__main__":
    sys.exit(main())
