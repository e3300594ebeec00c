"""The traced pass: spans around public calls, recorded from outside.

``Tracer.installed()`` patches timing wrappers around the public
callables listed in :data:`TARGETS` (class attributes and module-level
functions, the latter in every loaded ``repro`` module that imported
them by name) and restores the originals in ``finally``. Spans stay in
memory — ``[name, start_ns, end_ns, parent, trace_id]``, one list per
thread, one ``trace_id`` per repeat — and are written to ``trace.json``
when the pass ends. A span's *self time* is its duration minus the part
of it covered by its child spans.

End-to-end metrics are never taken with wrappers on; this module reports
only the per-layer metrics (:data:`LAYER_METRICS`), plus the traced /
untraced wall ratio as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import socket
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterator

import numpy as np

from asyncbench.measure import EngineWorkload, SweepWorkload, sweep_totals
from asyncbench.workloads import FABRIC

#: ``(span name, "module:Class" or "module", attribute, family)``. With
#: ``family`` the attribute is wrapped on the class and on every subclass
#: that overrides it (policies, problems, update rules).
TARGETS: list[tuple[str, str, str, bool]] = [
    ("api.prepare", "repro.api.runner", "prepare_experiment", False),
    ("api.summarize", "repro.api.runner", "summarize", False),
    ("api.checkpoint_append", "repro.api.parallel:SweepCheckpoint", "append", False),
    ("data.generate", "repro.data.registry", "get_dataset", False),
    ("data.split", "repro.data.blocks", "split_matrix", False),
    ("data.take_rows", "repro.data.blocks:MatrixBlock", "take_rows", False),
    ("data.sample_indices", "repro.data.blocks:MatrixBlock", "sample_indices", False),
    ("data.stack_blocks", "repro.data.blocks", "stack_blocks", False),
    ("data.shm_publish", "repro.data.shm", "publish_dataset", False),
    ("data.shm_attach", "repro.data.shm", "attach_dataset", False),
    ("utils.rng_spawn", "repro.utils.rng", "spawn_generator", False),
    ("utils.rng_spawn", "repro.utils.rng:LazyRng", "materialize", False),
    ("engine.lineage", "repro.engine.rdd:RDD", "iterator", False),
    ("engine.dispatch", "repro.engine.dispatch:Dispatcher", "submit", False),
    ("engine.dispatch", "repro.engine.dispatch:Dispatcher", "submit_batch", False),
    ("cluster.submit", "repro.cluster.simbackend:SimBackend", "submit", False),
    ("cluster.submit", "repro.cluster.simbackend:SimBackend", "submit_batch", False),
    ("cluster.event_loop", "repro.cluster.simbackend:SimBackend", "run_until", False),
    ("cluster.step", "repro.cluster.simbackend:SimBackend", "step", False),
    ("cluster.fault", "repro.cluster.faultplan:FaultPlanDriver", "poll", False),
    ("core.submit_round", "repro.core.scheduler:AsyncScheduler", "submit_round", False),
    ("core.policy", "repro.core.policies:SchedulingPolicy", "ready", True),
    ("core.policy", "repro.core.policies:SchedulingPolicy", "select", True),
    ("core.policy", "repro.core.policies:SchedulingPolicy", "weight", True),
    ("core.collect", "repro.core.context:ASYNCContext", "has_next", False),
    ("core.collect", "repro.core.context:ASYNCContext", "collect_all", False),
    ("core.hist_append", "repro.core.history:HistoryChannel", "append", False),
    ("core.hist_get", "repro.core.history:HistoryChannel", "get", False),
    ("core.hist_prune", "repro.core.history:HistoryChannel", "prune_below", False),
    ("core.snapshot_encode", "repro.optim.loop:ServerLoop", "snapshot_state", False),
    ("core.snapshot_write", "repro.core.snapshots", "write_snapshot", False),
    ("comm.encode", "repro.comm.manager:CommManager", "encode_value", False),
    ("comm.fetch", "repro.comm.manager:CommManager", "fetch_channel_value", False),
    ("optim.grad", "repro.optim.problems:Problem", "grad_sum", True),
    ("optim.grad", "repro.optim.problems:Problem", "grad_sum_stacked", True),
    ("optim.kernel", "repro.optim.loop:UpdateRule", "kernel", True),
    ("optim.publish", "repro.optim.loop:UpdateRule", "publish", True),
    ("optim.apply", "repro.optim.loop:UpdateRule", "apply", True),
    ("optim.apply", "repro.optim.loop:UpdateRule", "apply_batch", True),
    ("optim.trace", "repro.optim.trace:ConvergenceTrace", "record", False),
    ("optim.optimum", "repro.optim.problems:Problem", "solve_optimum", True),
    ("optim.loop", "repro.optim.loop:ServerLoop", "run", False),
    ("fabric.spawn", "repro.fabric.worker", "spawn_local_workers", False),
    ("fabric.acquire", "repro.fabric.leases:LeaseTable", "acquire", False),
    ("fabric.complete", "repro.fabric.leases:LeaseTable", "complete", False),
    ("fabric.frame_encode", "repro.comm.frames", "encode_frame", False),
    ("fabric.frame_decode", "repro.comm.frames", "decode_frame", False),
]

#: The bench-owned root span around one ``run_in`` (or one traced sweep).
ROOT = "bench.run"

#: ``metric -> (unit, kind, span names)``. Kinds:
#: ``us``       span self time per applied update, microseconds
#: ``n``        span count per applied update
#: ``run_ms``   span self time per run (one ``run_in``; one sweep cell)
#: ``setup_ms`` span self time during the traced set-up
#: ``call_us``  span self time per call
#: ``value``    read from the run itself (extras, ledgers, probes)
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "api.prepare_ms": ("ms", "setup_ms", ("api.prepare",)),
    "api.summarize_us": ("us", "us", ("api.summarize",)),
    "api.checkpoint_append_us": ("us", "us", ("api.checkpoint_append",)),
    "api.checkpoint_append_n": ("count", "n", ("api.checkpoint_append",)),
    "data.generate_ms": ("ms", "setup_ms", ("data.generate",)),
    "data.split_ms": ("ms", "run_ms", ("data.split",)),
    "data.take_rows_us": ("us", "us", ("data.take_rows",)),
    "data.take_rows_n": ("count", "n", ("data.take_rows",)),
    "data.sample_indices_us": ("us", "us", ("data.sample_indices",)),
    "data.stack_blocks_us": ("us", "us", ("data.stack_blocks",)),
    "data.shm_publish_ms": ("ms", "setup_ms", ("data.shm_publish",)),
    "data.shm_attach_ms": ("ms", "setup_ms", ("data.shm_attach",)),
    "utils.rng_spawn_us": ("us", "us", ("utils.rng_spawn",)),
    "utils.rng_spawn_n": ("count", "n", ("utils.rng_spawn",)),
    "engine.lineage_us": ("us", "us", ("engine.lineage",)),
    "engine.iterator_n": ("count", "n", ("engine.lineage",)),
    "engine.dispatch_us": ("us", "us", ("engine.dispatch",)),
    "engine.tasks_n": ("count", "value", ()),
    "cluster.submit_us": ("us", "us", ("cluster.submit",)),
    "cluster.event_loop_us": ("us", "us", ("cluster.event_loop", "cluster.step")),
    "cluster.events_n": ("count", "n", ("cluster.step",)),
    "cluster.fault_us": ("us", "us", ("cluster.fault",)),
    "core.submit_round_us": ("us", "us", ("core.submit_round",)),
    "core.rounds_n": ("count", "value", ()),
    "core.fused_rounds_n": ("count", "value", ()),
    "core.policy_us": ("us", "us", ("core.policy",)),
    "core.collect_us": ("us", "us", ("core.collect",)),
    "core.hist_append_us": ("us", "us", ("core.hist_append",)),
    "core.hist_append_n": ("count", "n", ("core.hist_append",)),
    "core.hist_get_us": ("us", "us", ("core.hist_get",)),
    "core.hist_get_n": ("count", "n", ("core.hist_get",)),
    "core.hist_prune_n": ("count", "n", ("core.hist_prune",)),
    "core.hist_stored_bytes": ("bytes", "value", ()),
    "core.snapshot_encode_us": ("us", "us", ("core.snapshot_encode",)),
    "core.snapshot_write_us": ("us", "us", ("core.snapshot_write",)),
    "core.snapshot_n": ("count", "value", ()),
    "core.snapshot_bytes": ("bytes", "value", ()),
    "comm.encode_us": ("us", "us", ("comm.encode",)),
    "comm.fetch_us": ("us", "us", ("comm.fetch",)),
    "comm.compress_n": ("count", "n", ("comm.encode",)),
    "comm.raw_bytes": ("bytes", "value", ()),
    "comm.wire_bytes": ("bytes", "value", ()),
    "comm.ratio": ("ratio", "value", ()),
    "optim.kernel_us": ("us", "us", ("optim.kernel", "optim.grad")),
    "optim.kernel_n": ("count", "n", ("optim.grad",)),
    "optim.publish_us": ("us", "us", ("optim.publish",)),
    "optim.apply_us": ("us", "us", ("optim.apply",)),
    "optim.trace_us": ("us", "us", ("optim.trace",)),
    "optim.optimum_ms": ("ms", "setup_ms", ("optim.optimum",)),
    "optim.loop_self_us": ("us", "us", ("optim.loop",)),
    "optim.final_rel_error": ("ratio", "value", ()),
    "fabric.spawn_ms": ("ms", "value", ()),
    "fabric.lease_rtt_us": ("us", "value", ()),
    "fabric.acquire_us": ("us", "call_us", ("fabric.acquire",)),
    "fabric.complete_us": ("us", "call_us", ("fabric.complete",)),
    "fabric.frame_encode_us": ("us", "value", ()),
    "fabric.frame_decode_us": ("us", "value", ()),
    "fabric.frame_wire_bytes": ("bytes", "value", ()),
    "fabric.leases_n": ("count", "value", ()),
    "fabric.steals_n": ("count", "value", ()),
    "fabric.duplicates_n": ("count", "value", ()),
    "fabric.worker_idle_share": ("ratio", "value", ()),
    "fabric.fixed_overhead_s": ("s", "value", ()),
    "trace.coverage": ("ratio", "value", ()),
    "trace.overhead_ratio": ("ratio", "value", ()),
}

LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


def _resolve(where: str) -> Any:
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder with install/remove of timing wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``(thread name, spans)`` per thread that recorded anything.
        self.threads: list[tuple[str, list[list]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Stamped on every span: 0 = set-up, then one id per repeat.
        self.trace_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffers(self) -> tuple[list[list], list[int]]:
        local = self._local
        try:
            return local.buffers
        except AttributeError:
            spans: list[list] = []
            with self._lock:
                self.threads.append((threading.current_thread().name, spans))
            local.buffers = (spans, [])
            return local.buffers

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        """``fn`` with a span around each call. ``after(args, result)``
        runs once the span has ended (byte counters that need the call's
        arguments)."""
        nid = self._name_id(name)
        buffers = self._buffers
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = buffers()
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.trace_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, fn: Callable) -> Any:
        """Run ``fn`` inside the bench-owned root span."""
        return self.wrap(fn, ROOT)()

    # -- install / remove ----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, hooks: dict[str, Callable] | None = None) -> None:
        """Patch every target; ``hooks[span name]`` is its ``after``."""
        hooks = hooks or {}
        for name, where, attr, family in TARGETS:
            owner = _resolve(where)
            hook = hooks.get(name)
            if isinstance(owner, type):
                # set(): a class reachable through two bases is wrapped once.
                for cls in set(_subclasses(owner)) if family else (owner,):
                    fn = vars(cls).get(attr)
                    if callable(fn):
                        self._set(cls, attr, self.wrap(fn, name, hook))
                continue
            # A module-level function: other modules imported it by name,
            # so replace every reference held by a loaded repro module.
            fn = getattr(owner, attr)
            wrapper = self.wrap(fn, name, hook)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, hooks: dict[str, Callable] | None = None):
        self.install(hooks)
        try:
            yield self
        finally:
            self.remove()

    # -- arithmetic ----------------------------------------------------------
    def tables(self) -> list[dict[str, np.ndarray]]:
        """Per thread: ``name, start, end, parent, trace, dur, self`` arrays."""
        return [span_arrays(spans) for _thread, spans in self.threads]


def span_arrays(spans: list[list]) -> dict[str, np.ndarray]:
    """Columns of one thread's span list plus duration and self time.

    Self time = duration minus the time covered by child spans; within
    one thread children nest inside their parent and never overlap each
    other, so that is the sum of the direct children's durations.
    """
    arr = np.asarray(spans, dtype=np.int64).reshape(-1, 5)
    name, start, end, parent, trace = arr.T
    dur = end - start
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=dur[child], minlength=len(arr)
    ) if len(arr) else np.zeros(0)
    return {
        "name": name, "start": start, "end": end, "parent": parent,
        "trace": trace, "dur": dur, "self": dur - covered,
    }


def aggregate(
    names: list[str], tables: list[dict[str, np.ndarray]], traces: set[int]
) -> dict[str, dict[str, float]]:
    """Per span name over the given trace ids: count, total and self ns."""
    n = len(names)
    count = np.zeros(n)
    total = np.zeros(n)
    self_ns = np.zeros(n)
    for table in tables:
        keep = np.isin(table["trace"], list(traces))
        ids = table["name"][keep]
        count += np.bincount(ids, minlength=n)
        total += np.bincount(ids, weights=table["dur"][keep], minlength=n)
        self_ns += np.bincount(ids, weights=table["self"][keep], minlength=n)
    return {
        name: {"count": count[i], "total_ns": total[i], "self_ns": self_ns[i]}
        for i, name in enumerate(names)
    }


def layer_metrics(
    run_spans: dict[str, dict[str, float]],
    setup_spans: dict[str, dict[str, float]],
    updates: int,
    runs: int,
    values: dict[str, float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry from aggregated spans + values."""
    zero = {"count": 0.0, "total_ns": 0.0, "self_ns": 0.0}
    out: dict[str, float] = {}
    for metric, (_unit, kind, names) in LAYER_METRICS.items():
        if kind == "value":
            out[metric] = float(values.get(metric, 0.0))
            continue
        source = setup_spans if kind == "setup_ms" else run_spans
        rows = [source.get(name, zero) for name in names]
        self_ns = sum(r["self_ns"] for r in rows)
        calls = sum(r["count"] for r in rows)
        if kind == "us":
            out[metric] = self_ns / 1e3 / updates
        elif kind == "n":
            out[metric] = calls / updates
        elif kind == "run_ms":
            out[metric] = self_ns / 1e6 / runs
        elif kind == "setup_ms":
            out[metric] = self_ns / 1e6
        elif kind == "call_us":
            out[metric] = self_ns / 1e3 / calls if calls else 0.0
    return out


def top_stages(
    run_spans: dict[str, dict[str, float]], k: int = 3
) -> list[tuple[str, float]]:
    """The ``k`` span names with the largest share of the self time
    recorded in named spans (the root's own time is left out: in the
    threaded sweep it is the main thread waiting for the workers)."""
    rows = {n: r["self_ns"] for n, r in run_spans.items() if n != ROOT}
    whole = sum(rows.values())
    best = sorted(rows.items(), key=lambda kv: -kv[1])[:k]
    return [(name, ns / whole if whole else 0.0) for name, ns in best]


def write_trace(
    path: str, tracer: Tracer, tables: list[dict[str, np.ndarray]],
    last_trace: int, run_spans: dict[str, dict[str, float]], meta: dict,
) -> None:
    """``trace.json``: the span-name summary over all traced repeats and
    the raw spans of the set-up and the last repeat."""
    threads = []
    for (thread, spans), table in zip(tracer.threads, tables):
        keep = np.flatnonzero(np.isin(table["trace"], [0, last_trace]))
        # Parent indices refer to the full per-thread list; remap them to
        # positions in the kept subset (-1 when the parent was dropped).
        position = np.full(len(spans), -1, dtype=np.int64)
        position[keep] = np.arange(len(keep))
        threads.append({
            "thread": thread,
            "spans": [
                [int(s[0]), int(s[1]), int(s[2]),
                 int(position[s[3]]) if s[3] >= 0 else -1, int(s[4])]
                for s in (spans[i] for i in keep)
            ],
        })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "meta": meta,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "trace_id"],
            "names": tracer.names,
            "summary": {
                name: {
                    "count": int(row["count"]),
                    "total_ms": row["total_ns"] / 1e6,
                    "self_ms": row["self_ns"] / 1e6,
                }
                for name, row in sorted(
                    run_spans.items(), key=lambda kv: -kv[1]["self_ns"]
                )
            },
            "threads": threads,
        }, fh)


def root_coverage(run_spans: dict[str, dict[str, float]]) -> float:
    """Share of the root spans' wall covered by named spans."""
    root = run_spans.get(ROOT)
    if not root or not root["total_ns"]:
        return 0.0
    return 1.0 - root["self_ns"] / root["total_ns"]


def traced_result(
    name: str, attempted: int, failures: list[str], repeats: int,
    metrics: dict[str, float], run_spans: dict[str, dict[str, float]],
) -> dict:
    return {
        "workload": name,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "correct": not failures,
        "repeats": repeats,
        "metrics": metrics,
        "top_stages": top_stages(run_spans),
    }


# -- engine workloads ------------------------------------------------------------


def traced_engine(
    name: str, seed: int, seconds: float, workdir: str, quick: bool,
    trace_path: str,
) -> dict:
    from repro.api import runner

    started = time.perf_counter()
    tracer = Tracer()
    sums: Counter = Counter()

    def snapshot_size(args, _result) -> None:
        sums["snapshot_bytes"] += os.stat(args[0]).st_size

    hooks = {"core.snapshot_write": snapshot_size}

    def inspect(prep, ctx, result) -> None:
        extras = result.extras
        sums["tasks"] += len(ctx.dispatcher.metrics_log)
        sums["rounds"] += result.rounds
        sums["fused_rounds"] += extras.get("fused_rounds", 0)
        sums["snapshots"] += extras.get("snapshots_written", 0)
        sums["raw_bytes"] += extras.get("comm_raw_bytes", 0)
        sums["wire_bytes"] += extras.get("comm_wire_bytes", 0)
        sums["hist_stored_bytes"] = extras.get("history_bytes", 0)
        runner.summarize(prep, result)  # looked up now: the wrapped one

    with tracer.installed(hooks):
        work = EngineWorkload(name, seed, workdir, quick)  # trace id 0
    plain = [work.run() for _ in range(1 if quick else 2)]
    runs: list[dict] = []
    with tracer.installed(hooks):
        while True:
            tracer.trace_id += 1
            runs.append(work.run(lambda fn: (tracer.root(fn), None), inspect))
            if quick or time.perf_counter() - started >= seconds:
                break
    labelled = [("untraced", out) for out in plain] + [
        ("traced", out) for out in runs
    ]
    failures = [
        f"{label} repeat: {why}"
        for label, out in labelled
        if (why := work.failure(out, plain[0])) is not None
    ]
    tables = tracer.tables()
    run_spans = aggregate(
        tracer.names, tables, set(range(1, tracer.trace_id + 1))
    )
    updates = sum(out["updates"] for out in runs)
    values = {
        "engine.tasks_n": sums["tasks"] / updates,
        "core.rounds_n": sums["rounds"] / updates,
        "core.fused_rounds_n": sums["fused_rounds"] / updates,
        "core.hist_stored_bytes": sums["hist_stored_bytes"],
        "core.snapshot_n": sums["snapshots"] / updates,
        "core.snapshot_bytes": sums["snapshot_bytes"] / updates,
        "comm.raw_bytes": sums["raw_bytes"] / updates,
        "comm.wire_bytes": sums["wire_bytes"] / updates,
        "comm.ratio": (
            sums["raw_bytes"] / sums["wire_bytes"] if sums["wire_bytes"] else 0.0
        ),
        "optim.final_rel_error": runs[0]["rel_error"],
        "trace.coverage": root_coverage(run_spans),
        "trace.overhead_ratio": statistics.median(
            out["seconds"] for out in runs
        ) / min(out["seconds"] for out in plain),
    }
    metrics = layer_metrics(
        run_spans, aggregate(tracer.names, tables, {0}), updates, len(runs),
        values,
    )
    write_trace(trace_path, tracer, tables, tracer.trace_id, run_spans, {
        "workload": name, "seed": seed, "traced_repeats": len(runs),
        "updates_per_repeat": runs[0]["updates"],
    })
    return traced_result(
        name, len(plain) + len(runs), failures, len(runs), metrics, run_spans
    )


# -- sweep_fabric ----------------------------------------------------------------


def lease_rtt_us(endpoint: str, samples: int = 200) -> float:
    """Median raw-protocol round trip (``send_msg`` -> ``recv_msg``) of a
    heartbeat against a live coordinator."""
    from repro.fabric.protocol import parse_endpoint, recv_msg, send_msg

    message = {"type": "heartbeat", "worker": "asyncbench-probe"}
    rtts = []
    with socket.create_connection(parse_endpoint(endpoint), timeout=10.0) as conn:
        for _ in range(samples):
            t0 = time.perf_counter_ns()
            send_msg(conn, message)
            recv_msg(conn)
            rtts.append(time.perf_counter_ns() - t0)
        send_msg(conn, {"type": "bye", "worker": "asyncbench-probe"})
    return statistics.median(rtts) / 1e3


def frame_probe(summary: dict, samples: int = 50) -> dict[str, float]:
    """Median ``encode_frame`` / ``decode_frame`` time on a recorded
    summary, and the frame's size on the wire."""
    from repro.comm.frames import decode_frame, encode_frame

    enc, dec = [], []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        frame = encode_frame(summary)
        t1 = time.perf_counter_ns()
        decode_frame(frame)
        enc.append(t1 - t0)
        dec.append(time.perf_counter_ns() - t1)
    return {
        "fabric.frame_encode_us": statistics.median(enc) / 1e3,
        "fabric.frame_decode_us": statistics.median(dec) / 1e3,
        "fabric.frame_wire_bytes": float(len(json.dumps(frame))),
    }


def threaded_sweep(work: SweepWorkload) -> tuple[list, float]:
    """One sweep with the coordinator and one ``SweepWorker`` as threads
    of this process, so both ends of the wire run under the wrappers.

    One worker, not two: ``prepare_shared``'s dataset/problem slot is per
    process and not thread-safe, so two in-process workers on different
    seed groups would race on it.
    """
    from repro.api.parallel import SweepCheckpoint, clear_shared_cache, run_key
    from repro.data import shm
    from repro.fabric import SweepCoordinator, SweepWorker, status_path_for

    cells = [(i, run_key(s), s.to_dict()) for i, s in enumerate(work.specs)]
    checkpoint = SweepCheckpoint(work.checkpoint)
    checkpoint.reset()
    results: dict[int, Any] = {}

    def on_result(index: int, key: str, summary: Any) -> None:
        results[index] = summary
        checkpoint.append(index, key, summary)

    groups = {(json.dumps(s.dataset), s.seed): s for s in work.specs}
    publications = [
        pub for pub in (
            shm.publish_dataset(s.dataset, s.seed) for s in groups.values()
        ) if pub is not None
    ]
    shm.set_active_manifests([pub.manifest for pub in publications])
    coordinator = SweepCoordinator(
        cells, lease_ttl=FABRIC["lease_ttl"], lease_size=FABRIC["lease_size"],
        on_result=on_result, status_path=status_path_for(work.checkpoint),
    )
    coordinator.start()
    try:
        rtt = lease_rtt_us(coordinator.endpoint)
        worker = SweepWorker(coordinator.endpoint, name="asyncbench-worker")
        thread = threading.Thread(
            target=worker.run, name="asyncbench-worker", daemon=True
        )
        thread.start()
        coordinator.wait(timeout=150.0)
        thread.join(timeout=30.0)
    finally:
        coordinator.close()
        clear_shared_cache()
        shm.set_active_manifests(None)
        shm.detach_all()
        for pub in publications:
            pub.unlink()
    return [results.get(i) for i in range(len(cells))], rtt


def first_start(
    names: list[str], tables: list[dict[str, np.ndarray]], name: str, trace: int
) -> int | None:
    """Start (ns) of the earliest ``name`` span of one trace, any thread."""
    if name not in names:
        return None
    nid = names.index(name)
    starts = [
        t["start"][(t["name"] == nid) & (t["trace"] == trace)] for t in tables
    ]
    return min((int(s.min()) for s in starts if len(s)), default=None)


def traced_sweep(
    seed: int, seconds: float, workdir: str, quick: bool, trace_path: str
) -> dict:
    from repro.fabric import read_status

    tracer = Tracer()
    work = SweepWorkload(seed, workdir, quick)
    serial = work.serial()
    reference = serial["summaries"]
    failures: list[str] = []

    def check(label: str, summaries: list) -> None:
        for i, summary in enumerate(summaries):
            why = work.cell_failure(summary, reference[i])
            if why:
                failures.append(f"{label} cell {i}: {why}")

    # Pass A (trace id 0): real worker processes, coordinator side traced.
    with tracer.installed():
        wall_a, summaries = work.fabric()
    check("process pass", summaries)
    status = read_status(work.checkpoint)
    workers = FABRIC["local_workers"]
    busy = sum(serial["cell_s"])

    # Pass B (trace id 1): everything in this process, both ends traced.
    tracer.trace_id = 1
    with tracer.installed():
        summaries, rtt = tracer.root(lambda: threaded_sweep(work))
    check("thread pass", summaries)

    tables = tracer.tables()
    spawn = first_start(tracer.names, tables, "fabric.spawn", 0)
    acquire = first_start(tracer.names, tables, "fabric.acquire", 0)
    run_spans = aggregate(tracer.names, tables, {1})
    updates, _sim_ms, rel_error = sweep_totals(reference)
    extras = [s["extras"] for s in reference]
    worker_tables = [
        table for (thread, _), table in zip(tracer.threads, tables)
        if thread == "asyncbench-worker"
    ]
    covered = sum(
        float(t["dur"][(t["parent"] < 0) & (t["trace"] == 1)].sum())
        for t in worker_tables
    )
    values = {
        "engine.tasks_n": sum(
            e.get("collected", 0) + e.get("lost_tasks", 0) for e in extras
        ) / updates,
        "core.rounds_n": sum(s["rounds"] for s in reference) / updates,
        "core.fused_rounds_n": sum(
            e.get("fused_rounds", 0) for e in extras
        ) / updates,
        "optim.final_rel_error": rel_error,
        "fabric.spawn_ms": (
            (acquire - spawn) / 1e6 if spawn and acquire else 0.0
        ),
        "fabric.lease_rtt_us": rtt,
        "fabric.leases_n": float(sum(
            w["leases_taken"] for w in status.get("workers", {}).values()
        )),
        "fabric.steals_n": float(status.get("reissued", 0)),
        "fabric.duplicates_n": float(status.get("duplicates", 0)),
        "fabric.worker_idle_share": 1.0 - busy / (workers * wall_a),
        "fabric.fixed_overhead_s": wall_a - busy / workers,
        "trace.coverage": covered / run_spans[ROOT]["total_ns"],
        "trace.overhead_ratio": run_spans[ROOT]["total_ns"] / 1e9 / busy,
        **frame_probe(reference[0]),
    }
    metrics = layer_metrics(
        run_spans, run_spans, updates, len(reference), values
    )
    write_trace(trace_path, tracer, tables, 1, run_spans, {
        "workload": "sweep_fabric", "seed": seed,
        "trace_ids": {"0": "process pass (coordinator side)",
                      "1": "thread pass (both ends)"},
    })
    return traced_result(
        "sweep_fabric", 2 * len(reference), failures, 1, metrics, run_spans
    )


def traced_measure(
    name: str, seed: int, seconds: float, workdir: str, *,
    quick: bool = False, trace_path: str,
) -> dict:
    """Every per-layer metric of one workload (the ``--trace 1`` pass)."""
    if name == "sweep_fabric":
        return traced_sweep(seed, seconds, workdir, quick, trace_path)
    return traced_engine(name, seed, seconds, workdir, quick, trace_path)
