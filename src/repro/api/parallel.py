"""Sweep execution: independent grid cells, in-process or on forked workers.

Every cell of a :class:`~repro.api.spec.GridSpec` is an independent
deterministic simulation, so a sweep is embarrassingly parallel work.
This module is the engine behind :func:`repro.api.runner.run_grid` (and
the figure drivers in :mod:`repro.bench.figures`). ``run_sweep_cells``
runs the cells one of two ways — in this process, grouped by
``(dataset, seed, problem)`` so :func:`prepare_shared`'s one-slot cache
builds each dataset and solves each reference optimum once per group; or
through the sweep fabric (:mod:`repro.fabric`), ``jobs=N`` forked
workers pulling leases of the same grouped cells — and appends each
result to a JSONL checkpoint the moment its cell finishes, so an
interrupted sweep keeps its partial results and ``resume=True`` re-runs
only the unfinished cells. Both ways execute the exact same per-cell
code, so their summaries are bit-identical.
"""

from __future__ import annotations

import json
import os
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

    If the sweep driver published this dataset group (a fabric
    coordinator exporting manifests to the workers it forked), attach
    the one host-wide copy zero-copy; otherwise —
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

    Both the in-process sweep loop and every fabric worker route cells
    through here, so consecutive same-group cells — execution and lease
    order guarantee grouping — reuse one dataset and one solved optimum.
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

    Every cell — in-process, fabric or restored — takes this form,
    so figure ``cells`` expose scalar ``extras`` only (no ``history`` /
    ``run_state`` objects); call ``run_api_experiment`` for the rest.
    """
    from repro.bench.harness import run_api_experiment

    return run_api_experiment(spec_dict).to_dict()


def resolve_runner(name: str) -> Callable[[Mapping[str, Any]], dict]:
    """Map a runner name to its cell function.

    Runners are addressed by name (not passed as callables): the name
    is what a lease carries to a worker on another host, which resolves
    it after its own imports. Every cell function returns a JSON-safe
    dict: the form that crosses process and host boundaries and lands
    in the checkpoint.
    """
    if name == "summary":
        return _summary_cell
    if name == "bench":
        return _bench_cell
    raise ApiError(
        f"unknown cell runner {name!r}; available: ['bench', 'summary']"
    )


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
) -> list[Any]:
    """Execute independent experiment cells; the cell functions' dicts in
    *input* order (:func:`run_sweep_cells` with nothing to checkpoint)."""
    return run_sweep_cells(specs, runner=runner, jobs=jobs)


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

    Pending cells run in this process when ``jobs`` is 1 (or one cell
    is left) and through the sweep fabric otherwise: ``jobs=N`` forks
    ``N`` lease-pulling workers for the sweep (``<= 0``: one per core),
    and ``fabric`` (see :func:`repro.fabric.parse_fabric`; it wins over
    ``jobs``) names the worker count with lease options or serves the
    cells on an endpoint for ``sweep-worker`` processes on other hosts.
    A fabric sweep with a checkpoint also keeps the
    ``<checkpoint>.status.json`` sidecar ``sweep-status`` reads.
    Results, checkpoint lines and resume semantics are identical either
    way; a failing cell raises its own exception in-process and a
    :class:`~repro.errors.FabricError` quoting it (after the fabric's
    retries) from workers, and whatever ``progress`` raises propagates.
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
    if not pending:
        return results
    cell = resolve_runner(runner)  # a typo fails here, not on N workers
    jobs = min(resolve_jobs(jobs), len(pending))
    if fabric is None and jobs <= 1:
        try:
            # Same-group cells run adjacently, so prepare_shared's
            # one-slot cache pays for each dataset and reference optimum
            # once per contiguous group instead of once per cell.
            for i in sorted(pending, key=lambda i: (group_key(specs[i]), i)):
                record(i, cell(specs[i].to_dict()))
        finally:
            # Don't pin the last dataset/problem in a long-lived process.
            clear_shared_cache()
        return results
    from repro import fabric as sweep_fabric

    sweep_fabric.run_fabric_cells(
        [(i, keys[i], specs[i].to_dict()) for i in pending],
        fabric=fabric if fabric is not None else {"local_workers": jobs},
        runner=runner,
        on_result=lambda index, _key, wire: record(index, wire),
        status_path=(
            sweep_fabric.status_path_for(ckpt.path) if ckpt else None
        ),
        # On a relaunch the coordinator re-reads (and seals) the
        # checkpoint itself: a killed predecessor's torn tail is isolated
        # before new lines are appended, and late results from its
        # still-running workers are recognized instead of rejected.
        resume_from=ckpt.path if resume else None,
    )
    return results
