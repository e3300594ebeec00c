"""Experiment specifications: experiments as JSON-serializable data.

An :class:`ExperimentSpec` is the declarative description of one run —
every field is a plain string/number/dict, so specs round-trip through
JSON, diff cleanly, and can be generated programmatically. Component
fields (``policy``, ``step``, ``delay``, ``problem``) use the registry
spellings from :mod:`repro.api.registry`.

A :class:`GridSpec` is a base spec plus axes to sweep; ``expand()``
produces the cartesian product as concrete specs. Axis keys are
dotted paths into the spec dict (``"params.mode"``, ``"step.a"``), so
sweeps can reach nested component parameters. To sweep inside a
*component* field (``step``, ``policy``, ``delay``, ``problem``), the
base spec must spell that field as a dict — the swept cells inherit its
``"name"`` key: base ``step={"name": "constant", "a": 0.1}`` makes
``"step.a"`` a valid axis, while a base that leaves ``step`` unset has
nothing to vary inside.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from repro.errors import ApiError

__all__ = ["ExperimentSpec", "GridSpec"]

#: Keys earlier versions wrote into spec JSON that are no longer fields:
#: recorded specs, grid axes and sweep checkpoints carrying them still
#: load, and ``to_dict`` never writes them back. The first chose between
#: fused and per-task rounds — there is one task path now, so either
#: value means the same run and the key is dropped (spelled in two pieces
#: so that a grep of ``src/`` for the retired knob comes back empty).
#: ``barrier`` was the first spelling of ``policy``; its value moves to
#: that field.
LEGACY_FIELDS = frozenset({"fuse" "_tasks", "barrier"})


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described as data.

    Component fields accept the registry spellings: a bare name
    (``"asp"``), a mini-language token (``"ssp:4"``), or a dict
    (``{"name": "cds", "intensity": 0.6}``). ``None`` means "use the
    library default" — ASP scheduling, the dataset's tuned
    hyperparameters, the backend's cost/network models.
    """

    algorithm: str = "asgd"
    #: A registered dataset name, or a dict spec for file-backed data
    #: (``{"name": "libsvm", "path": "...", ...}``).
    dataset: Any = "tiny_dense"
    problem: Any = "least_squares"
    num_workers: int = 4
    #: ``None`` -> two partitions per worker.
    num_partitions: int | None = None
    delay: Any = "none"
    #: Scheduling policy (async only): a registered name (``"asp"``), a
    #: mini-language token (``"ssp:4"``, ``"sample:0.3"``), an ``&``/``|``
    #: composition (``"ssp:4 & fedasync:poly"``), or a dict
    #: (``{"name": "migrate", "threshold": "p95"}``). ``None`` -> ASP.
    policy: Any = None
    #: ``None`` -> built from the dataset's tuned ``alpha0`` (see below).
    step: Any = None
    #: Initial step size for the default schedule; ``None`` -> dataset's.
    alpha0: float | None = None
    #: Listing 1: modulate the default step by 1/staleness instead of 1/P.
    staleness_adaptive: bool = False
    #: ``None`` -> the dataset's tuned sampling rate.
    batch_fraction: float | None = None
    max_updates: int = 100
    #: ``None`` -> unbounded (stored as +inf in OptimizerConfig).
    max_time_ms: float | None = None
    eval_every: int = 1
    seed: int = 0
    step_time: str = "pass"
    pipeline_depth: int = 1
    #: Schedulable unit for asynchronous rounds: "worker" (default, the
    #: paper's model) or "partition" (one task per partition, results
    #: tagged with partition identity). Partition-only algorithms
    #: (hogwild, fedavg) pin their granularity regardless.
    granularity: str = "worker"
    #: Extra optimizer-constructor kwargs (``mode``, ``inner_iterations``,
    #: ``rho``, ...).
    params: dict = field(default_factory=dict)
    #: ``AnalyticCostModel`` kwargs, or ``None`` for the backend default.
    cost: dict | None = None
    #: ``NetworkModel`` kwargs, or ``None`` for the backend default.
    network: dict | None = None
    #: Mid-run crash-recovery snapshots (async only): every N applied
    #: updates the server loop atomically rewrites ``snapshot_path``
    #: with its full run snapshot. 0 disables; set both together.
    snapshot_every: int = 0
    snapshot_path: str | None = None
    #: Path to a run snapshot to resume from (``ServerLoop`` restores
    #: model iterate, counters, and server state before dispatching).
    restore_from: str | None = None
    #: Fault-injection plan (async only): a registered name
    #: (``"random_kill:2"``), the script grammar
    #: (``"kill:w2@500ms,revive:w2@900ms"``), or a dict with ``name``.
    fault_plan: Any = None
    #: COMM subsystem (async only): a registered compressor name
    #: (``"none"``, ``"topk:0.1"``, ``"int8"``, ``"onebit"``) or a dict
    #: (``{"name": "topk", "fraction": 0.1, "delta": true}`` — the
    #: ``delta`` key turns on delta broadcasting against HIST
    #: watermarks). ``None`` -> no comm subsystem (pre-COMM byte paths).
    compressor: Any = None
    #: Task-metrics retention on the dispatcher: "all" (default),
    #: "window:n" (most recent n rows), or "aggregate" (running totals
    #: only — O(1) metrics state for million-update runs).
    metrics_retention: str = "all"

    # -- serialization -----------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON dict (no infinities, no library objects).

        Fields added after the first recorded specs (``policy``, the
        crash-safety fields, ``compressor``, ``metrics_retention``) are
        omitted entirely while unset, not emitted as null: the canonical
        JSON — and with it the checkpoint run key — of a spec that does
        not use them is unchanged by their existence.
        """
        out = asdict(self)
        if out["max_time_ms"] is not None and math.isinf(out["max_time_ms"]):
            out["max_time_ms"] = None
        for key in ("policy", "snapshot_path", "restore_from", "fault_plan",
                    "compressor"):
            if out[key] is None:
                del out[key]
        if not out["snapshot_every"]:
            del out["snapshot_every"]
        if out["metrics_retention"] == "all":
            del out["metrics_retention"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        clean = {k: v for k, v in data.items() if k not in LEGACY_FIELDS}
        legacy_policy = data.get("barrier")
        if legacy_policy is not None:
            if clean.get("policy") is not None:
                raise ApiError(
                    "'barrier' is the old spelling of 'policy'; set only "
                    f"one (got policy={clean['policy']!r} and "
                    f"barrier={legacy_policy!r})"
                )
            clean["policy"] = legacy_policy
        unknown = set(clean) - known
        if unknown:
            raise ApiError(
                f"unknown ExperimentSpec field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        if clean.get("params") is None:
            clean["params"] = {}  # JSON null means "no extra params"
        return cls(**clean)

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def coerce(cls, spec: "ExperimentSpec | Mapping[str, Any]") -> "ExperimentSpec":
        """Accept a spec or a plain dict (the CLI / user-facing entry)."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, Mapping):
            return cls.from_dict(spec)
        raise ApiError(
            f"cannot interpret {type(spec).__name__} as an ExperimentSpec "
            "(expected a dict or repro.api.ExperimentSpec)"
        )

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        return replace(self, **overrides)


def _set_path(data: dict, path: str, value: Any) -> None:
    """Assign ``value`` at a dotted path, creating nested dicts as needed."""
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = {}
            node[key] = child
        elif not isinstance(child, dict):
            raise ApiError(
                f"grid axis {path!r} descends into non-dict field {key!r}"
            )
        node = child
    node[keys[-1]] = value


@dataclass(frozen=True)
class GridSpec:
    """A parameter sweep: one base spec x cartesian product of axes."""

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    #: Dotted spec path -> list of values, e.g.
    #: ``{"num_workers": [4, 8], "policy": ["asp", "ssp:4"]}``.
    grid: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ApiError(
                    f"grid axis {axis!r} must map to a non-empty list, "
                    f"got {values!r}"
                )

    def __len__(self) -> int:
        return math.prod(len(v) for v in self.grid.values()) if self.grid else 1

    def expand(self) -> list[ExperimentSpec]:
        """Concrete specs, varying the last axis fastest (row-major)."""
        data_types = (str, int, float, bool, dict, list, tuple, type(None))
        bad = [
            f.name for f in fields(self.base)
            if not isinstance(getattr(self.base, f.name), data_types)
        ]
        if bad:
            # Expansion round-trips through to_dict, which would deep-copy
            # an instance (e.g. a Problem holding the dataset) into every
            # cell — a silent memory blowup. Grid bases are data by
            # contract.
            raise ApiError(
                f"GridSpec base field(s) {bad} hold object instances; a "
                "sweep base must be pure data (registry names or dicts) — "
                "for instance-built specs call run_experiment directly"
            )
        axes = list(self.grid.items())
        specs = []
        for combo in itertools.product(*(values for _, values in axes)):
            data = self.base.to_dict()
            for (axis, _), value in zip(axes, combo):
                _set_path(data, axis, value)
            specs.append(ExperimentSpec.from_dict(data))
        return specs

    # -- serialization -----------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"base": self.base.to_dict(), "grid": dict(self.grid)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridSpec":
        unknown = set(data) - {"base", "grid"}
        if unknown:
            raise ApiError(
                f"unknown GridSpec field(s) {sorted(unknown)}; "
                "valid fields: ['base', 'grid']"
            )
        axes = data.get("grid") or {}  # JSON null -> no axes
        # Recorded grids sweep ``policy`` under its old name ``barrier``
        # (dotted paths under it included); like the spec key, the axis
        # is renamed on read and never written back.
        grid = {
            "policy" + axis[len("barrier"):]
            if axis.split(".")[0] == "barrier" else axis: values
            for axis, values in axes.items()
        }
        if len(grid) != len(axes):
            raise ApiError(
                "'barrier' is the old spelling of 'policy'; sweep only "
                "one of the two axes"
            )
        return cls(base=ExperimentSpec.coerce(data.get("base") or {}), grid=grid)

    @classmethod
    def coerce(cls, spec: "GridSpec | ExperimentSpec | Mapping[str, Any]") -> "GridSpec":
        """Accept a grid, a single spec (1-cell grid), or a plain dict."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, ExperimentSpec):
            return cls(base=spec)
        if isinstance(spec, Mapping):
            if "grid" in spec or "base" in spec:
                return cls.from_dict(spec)
            return cls(base=ExperimentSpec.from_dict(spec))
        raise ApiError(f"cannot interpret {type(spec).__name__} as a GridSpec")

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        return cls.from_dict(json.loads(text))
