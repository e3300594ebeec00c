"""Parallel sweep execution: independent grid cells across a process pool.

Every cell of a :class:`~repro.api.spec.GridSpec` is an independent
deterministic simulation, so a sweep is embarrassingly parallel work.
This module is the engine behind :func:`repro.api.runner.run_grid` (and
the figure drivers in :mod:`repro.bench.figures`):

- ``run_cells`` maps specs over a ``ProcessPoolExecutor``. Results come
  back in *input* order regardless of completion order, and cells are
  submitted grouped by ``(dataset, seed, problem)`` so each worker
  process materializes a dataset and solves its reference optimum once
  per group (via :func:`prepare_shared`'s per-process one-slot cache)
  instead of once per cell.
- ``run_sweep_cells`` adds JSONL checkpointing on top: each result is
  appended to the checkpoint file the moment its cell finishes, so an
  interrupted sweep keeps its partial results and ``resume=True`` re-runs
  only the unfinished cells.
- ``run_sweep_cells(fabric=...)`` swaps the process pool for the
  distributed sweep fabric (:mod:`repro.fabric`): a socket coordinator
  leases the same grouped cells to local or remote ``sweep-worker``
  processes, with work stealing and at-most-once checkpoint accounting.

Serial (``jobs=1``) and parallel paths execute the exact same per-cell
code, so their summaries are bit-identical.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.api.spec import LEGACY_FIELDS, ExperimentSpec
from repro.errors import ApiError

__all__ = [
    "run_key",
    "group_key",
    "prepare_shared",
    "clear_shared_cache",
    "resolve_jobs",
    "run_cells",
    "run_sweep_cells",
    "SweepCheckpoint",
]


def run_key(spec: ExperimentSpec | Mapping[str, Any]) -> str:
    """Canonical identity of one cell: its spec as sorted, compact JSON.

    This is the key for every cross-process cache and for checkpoint
    matching — unlike tuple/``id``-based keys it survives pickling,
    process boundaries, and sessions.
    """
    spec = ExperimentSpec.coerce(spec)
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


def _current_line(key: Any, wire: Any) -> tuple[Any, Any]:
    """A recorded ``(key, result)`` line in today's canonical form.

    Lines written before a spec field was retired or renamed carry it
    inside their key and inside the result's ``"spec"``; passing both
    through the spec layer normalises it away, so those cells still
    match on resume and a restored result has the shape of a fresh one.
    Anything else passes through untouched.
    """
    if not (
        isinstance(key, str)
        and any(f'"{name}"' in key for name in LEGACY_FIELDS)
    ):
        return key, wire
    try:
        key = run_key(json.loads(key))
        if isinstance(wire, dict) and isinstance(wire.get("spec"), dict):
            spec = ExperimentSpec.from_dict(wire["spec"])
            wire = {**wire, "spec": spec.to_dict()}
    except (json.JSONDecodeError, ApiError):
        pass
    return key, wire


def group_key(spec: ExperimentSpec) -> tuple:
    """Cells with equal group keys share a dataset and a solved problem.

    Components go through :func:`~repro.api.runner.component_key` so dict
    specs (e.g. libsvm datasets) key stably and sort against plain names.
    """
    from repro.api.runner import component_key

    return (
        component_key(spec.dataset), spec.seed, component_key(spec.problem)
    )


# Per-process one-slot cache of the shareable (expensive) components: the
# materialized dataset and the problem with its solved reference optimum.
# One slot keeps memory constant on seed sweeps while still collapsing the
# common case (adjacent cells varying barriers/workers/steps) to a single
# dataset build + optimum solve per contiguous group.
_SHARED: dict[str, Any] = {
    "dataset_key": None,
    "dataset": None,
    "problem_key": None,
    "problem": None,
}


def clear_shared_cache() -> None:
    """Drop this process's cached dataset/problem slot (frees the memory
    held after a sweep; the next cell rebuilds what it needs)."""
    _SHARED.update(dataset_key=None, dataset=None,
                   problem_key=None, problem=None)


def _load_dataset(spec: ExperimentSpec):
    """Materialize a cell's dataset, attaching shared memory when offered.

    If the sweep driver published this dataset group (``run_cells`` with
    ``share_data``, or a fabric coordinator exporting manifests to its
    local workers), attach the one host-wide copy zero-copy; otherwise —
    or if the segments are already unlinked — build it locally exactly
    as before. Either way the result is bit-identical: publication
    copies out of the same deterministic materialization.
    """
    from repro.data import shm as data_shm
    from repro.data.registry import get_dataset
    from repro.errors import DataError

    manifest = data_shm.active_manifest_for(
        data_shm.dataset_shm_key(spec.dataset, spec.seed)
    )
    if manifest is not None:
        try:
            return data_shm.attach_dataset(manifest)
        except DataError:
            pass
    return get_dataset(spec.dataset, seed=spec.seed)


def prepare_shared(spec: ExperimentSpec | Mapping[str, Any]):
    """``prepare_experiment`` with the per-process shared-component cache.

    Both the serial sweep loop and every pool worker route cells through
    here, so consecutive same-group cells — the submission order
    guarantees grouping — reuse one dataset and one solved optimum.
    """
    from repro.api.runner import component_key, prepare_experiment

    spec = ExperimentSpec.coerce(spec)
    dataset_key = (component_key(spec.dataset), spec.seed)
    if dataset_key != _SHARED["dataset_key"]:
        _SHARED["dataset_key"] = dataset_key
        _SHARED["dataset"] = _load_dataset(spec)
        _SHARED["problem_key"] = None
        _SHARED["problem"] = None
    problem_key = (*dataset_key, component_key(spec.problem))
    if problem_key != _SHARED["problem_key"]:
        _SHARED["problem_key"] = problem_key
        _SHARED["problem"] = None
    prep = prepare_experiment(
        spec, _dataset=_SHARED["dataset"], _problem=_SHARED["problem"]
    )
    _SHARED["problem"] = prep.problem
    return prep


def _summary_cell(spec_dict: Mapping[str, Any]) -> dict:
    """The ``run_grid`` cell body: prepare (shared), execute, summarize."""
    from repro.api.runner import summarize

    prep = prepare_shared(spec_dict)
    return summarize(prep, prep.execute())


def _bench_cell(spec_dict: Mapping[str, Any]) -> dict:
    """The figure-driver cell body: an ``ExperimentResult`` in wire form.

    Every cell — in-process, pool, fabric or restored — takes this form,
    so figure ``cells`` expose scalar ``extras`` only (no ``history`` /
    ``run_state`` objects); call ``run_api_experiment`` for the rest.
    """
    from repro.bench.harness import run_api_experiment

    return run_api_experiment(spec_dict).to_dict()


def resolve_runner(name: str) -> Callable[[Mapping[str, Any]], dict]:
    """Map a runner name to its cell function.

    Runners are addressed by name (not passed as callables) so the pool
    never pickles closures and workers resolve them after their own
    imports — safe under any multiprocessing start method. Every cell
    function returns a JSON-safe dict: the form that crosses process and
    host boundaries and lands in the checkpoint.
    """
    if name == "summary":
        return _summary_cell
    if name == "bench":
        return _bench_cell
    raise ApiError(
        f"unknown cell runner {name!r}; available: ['bench', 'summary']"
    )


def _execute_cell(
    runner: str,
    index: int,
    spec_dict: Mapping[str, Any],
    manifests: list[dict] | None = None,
):
    if manifests:
        from repro.data import shm as data_shm

        data_shm.set_active_manifests(manifests)
    return index, resolve_runner(runner)(spec_dict)


def resolve_jobs(jobs: int | None) -> int:
    """``None`` / ``<= 0`` means "all cores this process may use"."""
    if jobs is None or jobs <= 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return jobs


def run_cells(
    specs: Sequence[ExperimentSpec | Mapping[str, Any]],
    *,
    runner: str = "summary",
    jobs: int = 1,
    on_result: Callable[[int, Any], None] | None = None,
    executor: ProcessPoolExecutor | None = None,
    share_data: bool = True,
) -> list[Any]:
    """Execute independent experiment cells; results in *input* order.

    ``jobs=1`` runs in-process (no pool); ``jobs<=0`` uses every core.
    ``on_result(index, result)`` fires in completion order as each cell
    lands — the checkpoint/stream hook. A failing cell propagates its
    exception after cancelling unstarted work; cells already reported
    through ``on_result`` are not lost.

    ``executor`` lends an already-running ``ProcessPoolExecutor`` (its
    worker count overrides ``jobs``); the caller keeps ownership — the
    pool is *not* shut down here, so batch after batch reuses the same
    warm workers (and their per-process dataset/problem caches).

    ``share_data`` (pool paths only) publishes each distinct dataset
    group into shared memory once before submitting, so the N pool
    workers map one physical copy per group instead of materializing N.
    Segments are unlinked when the batch finishes; hosts without working
    shared memory silently fall back to per-worker materialization.
    """
    specs = [ExperimentSpec.coerce(s) for s in specs]
    jobs = executor._max_workers if executor is not None else resolve_jobs(jobs)
    results: list[Any] = [None] * len(specs)
    # Execute/submit same-group cells adjacently: the one-slot
    # prepare_shared cache then pays for each dataset and reference
    # optimum once per contiguous group instead of once per cell — in
    # the serial loop directly, and in the pool because workers pulling
    # from one shared queue each see a contiguous run of one group.
    order = sorted(range(len(specs)), key=lambda i: (group_key(specs[i]), i))
    if executor is None and (jobs <= 1 or len(specs) <= 1):
        cell = resolve_runner(runner)
        try:
            for i in order:
                results[i] = cell(specs[i].to_dict())
                if on_result is not None:
                    on_result(i, results[i])
        finally:
            # Don't pin the last dataset/problem in a long-lived main
            # process; workers keep their slots (their memory dies with
            # the pool below).
            clear_shared_cache()
        return results

    # Publish each distinct dataset group once so pool workers attach one
    # host-wide copy instead of materializing their own (run_grid over a
    # shared dataset then costs ~one dataset of RSS per host, not per job).
    publications: list[Any] = []
    manifests: list[dict] = []
    if share_data:
        from repro.data import shm as data_shm

        seen: set[str] = set()
        for i in order:
            key = data_shm.dataset_shm_key(specs[i].dataset, specs[i].seed)
            if key in seen:
                continue
            seen.add(key)
            pub = data_shm.publish_dataset(specs[i].dataset, specs[i].seed)
            if pub is not None:
                publications.append(pub)
                manifests.append(pub.manifest)

    def drain(pool: ProcessPoolExecutor) -> None:
        futures = [
            pool.submit(
                _execute_cell, runner, i, specs[i].to_dict(),
                manifests or None,
            )
            for i in order
        ]
        failure: BaseException | None = None
        for future in as_completed(futures):
            # On the first failure, cancel unstarted work but keep
            # draining: in-flight cells finish anyway (pool shutdown
            # waits for them), and reporting their results means a
            # checkpointed sweep doesn't re-pay for completed work.
            try:
                i, result = future.result()
                results[i] = result
                if on_result is not None:
                    on_result(i, result)
            except BaseException as exc:
                if failure is None:
                    failure = exc
                    for other in futures:
                        other.cancel()
        if failure is not None:
            raise failure

    try:
        if executor is not None:
            drain(executor)
        else:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(specs))
            ) as pool:
                drain(pool)
    finally:
        for pub in publications:
            pub.unlink()
    return results


class SweepCheckpoint:
    """Append-only JSONL record of completed sweep cells.

    One line per finished cell: ``{"index": ..., "key": ..., "summary":
    ...}`` where ``key`` is the cell's :func:`run_key`. Lines are written
    the moment a cell completes, so a killed sweep keeps everything it
    finished; on resume, a line counts for every requested cell with the
    same key (an edited cell's key changes, so its stale line is ignored).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def reset(self) -> None:
        """Start a fresh record (a non-resume sweep must not inherit —
        and endlessly grow — a previous sweep's lines). Also the early
        writability probe: failing here beats failing after cell one."""
        try:
            self.path.write_text("")
        except OSError as exc:
            raise ApiError(
                f"cannot write checkpoint {str(self.path)!r}: {exc}"
            ) from exc

    def entries(self) -> list[tuple[int, str | None, Any]]:
        """Every valid ``(index, key, summary)`` line, in file order.

        A final chunk with no trailing newline is a *torn* line — the
        writer (a killed worker or coordinator) died mid-``write`` — and
        is skipped, as is any malformed interior line, so resume never
        raises on a partial checkpoint. Keys and recorded specs come
        back in today's canonical form whatever version wrote them.
        """
        out: list[tuple[int, str | None, Any]] = []
        try:
            data = self.path.read_bytes()
        except OSError:
            return out
        lines = data.split(b"\n")
        if lines and lines[-1]:
            # ``append`` always terminates with a newline, so a dangling
            # final chunk is a torn write (or one still in flight).
            lines = lines[:-1]
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if isinstance(entry, dict) and isinstance(entry.get("index"), int):
                out.append((entry["index"], *_current_line(
                    entry.get("key"), entry.get("summary")
                )))
        return out

    def seal(self) -> None:
        """Terminate a torn trailing line before appending resumes.

        A writer killed mid-``append`` leaves a newline-less tail; a
        later append would otherwise glue its (valid) line onto that
        fragment and lose both. Called on resume, this writes the
        missing newline so the fragment stays an isolated, skipped line.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        if not data or data.endswith(b"\n"):
            return
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, b"\n")
            finally:
                os.close(fd)
        except OSError as exc:
            raise ApiError(
                f"cannot write checkpoint {str(self.path)!r}: {exc}"
            ) from exc

    def load(self) -> dict[int, tuple[str | None, Any]]:
        """``{index: (key, summary)}``; later lines win, a truncated final
        line (killed mid-write) is skipped."""
        return {
            index: (key, summary) for index, key, summary in self.entries()
        }

    def append(self, index: int, key: str, summary: Any) -> None:
        """Append one line with a single ``write`` on an ``O_APPEND`` fd.

        One unbuffered syscall per line (not a buffered text stream that
        may split it) plus kernel-side append positioning means
        concurrent appenders interleave whole lines, and a writer killed
        mid-call tears at most its own line — which ``entries`` skips.
        """
        data = json.dumps(
            {"index": index, "key": key, "summary": summary},
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"
        try:
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError as exc:
            raise ApiError(
                f"cannot write checkpoint {str(self.path)!r}: {exc}"
            ) from exc


def run_sweep_cells(
    specs: Sequence[ExperimentSpec | Mapping[str, Any]],
    progress: Callable[[int, int, Any], None] | None = None,
    *,
    runner: str = "summary",
    decode: Callable[[dict], Any] | None = None,
    jobs: int = 1,
    executor: ProcessPoolExecutor | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    fabric: Any = None,
) -> list[Any]:
    """Run sweep cells with JSONL checkpoint/resume; results in input order.

    The one checkpointed driver behind ``run_grid`` (``runner="summary"``,
    results are the ``summarize()`` dicts) and the figure drivers
    (``runner="bench"``, ``decode=ExperimentResult.from_dict``). A cell
    function returns a JSON-safe dict; that dict is what the checkpoint
    records and ``decode`` (identity when ``None``) turns into the value
    the caller and ``progress`` see.

    ``progress(k, total, result)`` is called once per cell in completion
    order (``k`` counts completions; resumed cells are reported first).
    With ``checkpoint``, each result is appended to the JSONL file as it
    lands — one ``{"index", "key", "summary"}`` line per cell, ``key``
    being its :func:`run_key`; without ``resume`` the file is truncated
    first. With ``resume``, a line restores every requested cell with the
    same canonical key instead of re-running it — whatever index or
    batch shape it was recorded under, so an edited grid keeps its
    unchanged cells and figure batches that re-slice the same cells
    reuse finished work.

    ``fabric`` (see :func:`repro.fabric.parse_fabric`) executes the
    pending cells through the distributed sweep fabric instead of the
    local pool: a coordinator serves cell leases on a socket and any
    number of workers — forked locally via ``fabric="local:N"`` or
    ``sweep-worker`` processes joined from other hosts — pull, execute, and
    stream results back. ``jobs``/``executor`` are ignored in fabric
    mode. Results, checkpoint lines, and resume semantics are identical
    to the serial path.
    """
    specs = [ExperimentSpec.coerce(s) for s in specs]
    keys = [run_key(spec) for spec in specs]
    ckpt = SweepCheckpoint(checkpoint) if checkpoint is not None else None
    if resume and ckpt is None:
        raise ApiError("resume requires a checkpoint path")

    total = len(specs)
    results: list[Any] = [None] * total
    completed = 0

    def record(index: int, wire: dict, *, fresh: bool = True) -> None:
        nonlocal completed
        results[index] = wire if decode is None else decode(wire)
        if fresh and ckpt is not None:
            ckpt.append(index, keys[index], wire)
        if progress is not None:
            progress(completed, total, results[index])
        completed += 1

    recorded: dict[str, dict] = {}
    if resume:
        ckpt.seal()  # a crashed writer's torn tail must not eat appends
        recorded = {
            key: wire for _index, key, wire in ckpt.entries()
            if key is not None and wire is not None
        }
        for index, key in enumerate(keys):
            if key in recorded:
                record(index, recorded[key], fresh=False)
    elif ckpt is not None:
        ckpt.reset()

    pending = [i for i in range(total) if keys[i] not in recorded]
    if pending and fabric is not None:
        from repro.fabric import run_fabric_cells, status_path_for

        run_fabric_cells(
            [(i, keys[i], specs[i].to_dict()) for i in pending],
            fabric=fabric,
            runner=runner,
            on_result=lambda index, _key, wire: record(index, wire),
            status_path=(
                status_path_for(ckpt.path) if ckpt is not None else None
            ),
            # On a relaunch the coordinator re-reads (and seals) the
            # checkpoint itself: any torn tail a killed predecessor left
            # is isolated before new lines are appended, and late
            # results from that predecessor's still-running workers are
            # recognized instead of rejected.
            resume_from=(
                ckpt.path if (resume and ckpt is not None) else None
            ),
        )
    elif pending:
        run_cells(
            [specs[i] for i in pending],
            runner=runner,
            jobs=jobs,
            executor=executor,
            on_result=lambda pending_i, wire: record(pending[pending_i], wire),
        )
    return results
