"""The ``sweep-status`` view: live fabric progress from plain files.

The coordinator writes an atomically-replaced JSON sidecar next to the
sweep checkpoint (``<checkpoint>.status.json``) on every tick; this
module renders it. Reading files instead of querying the coordinator's
socket means the view works from any shell on the host, keeps working
after the coordinator exits (post-mortem of a finished or crashed
sweep), and can never perturb the sweep itself.

When only the checkpoint exists (in-process sweeps write no
sidecar), the view degrades to what the checkpoint alone proves: how
many cells have landed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["status_path_for", "read_status", "format_status"]

#: A sidecar untouched for this long is presumed to be from a dead or
#: finished coordinator rather than a live one.
STALE_AFTER_S = 10.0


def status_path_for(checkpoint: "str | os.PathLike") -> Path:
    """Where the coordinator mirrors live state for this checkpoint."""
    checkpoint = Path(checkpoint)
    return checkpoint.with_name(checkpoint.name + ".status.json")


def read_status(checkpoint: "str | os.PathLike") -> dict:
    """Merge the checkpoint's ground truth with the live sidecar.

    Always returns a dict; ``source`` says how much was available:
    ``"coordinator"`` (sidecar found), ``"checkpoint"`` (lines only),
    or ``"none"`` (neither file readable).
    """
    from repro.api.parallel import SweepCheckpoint

    checkpoint = Path(checkpoint)
    entries = SweepCheckpoint(checkpoint).entries()
    recorded = len({key for _i, key, _s in entries})
    status: dict = {
        "checkpoint": str(checkpoint),
        "recorded": recorded,
        "source": "checkpoint" if entries or checkpoint.exists() else "none",
    }
    sidecar = status_path_for(checkpoint)
    try:
        live = json.loads(sidecar.read_text())
    except (OSError, json.JSONDecodeError):
        return status
    if isinstance(live, dict):
        status.update(live)
        status["source"] = "coordinator"
        age = time.time() - float(live.get("updated_unix", 0.0))
        status["age_s"] = round(max(age, 0.0), 1)
        stale = not live.get("finished", False) and age > STALE_AFTER_S
        status["stale"] = stale
        status["presumed_dead"] = stale
        if stale:
            # A silent coordinator's sidecar is a freeze-frame, not a
            # forecast: its throughput/ETA numbers describe a process
            # that stopped producing them. Null the ETA so nothing
            # renders a live-looking countdown from a dead file.
            status["eta_s"] = None
    return status


def _eta_text(status: dict) -> str:
    eta = status.get("eta_s")
    if eta is None:
        return "n/a"
    eta = float(eta)
    if eta >= 3600:
        return f"{eta / 3600:.1f} h"
    if eta >= 60:
        return f"{eta / 60:.1f} min"
    return f"{eta:.0f} s"


def format_status(status: dict) -> str:
    """Human-readable rendering (one string, newline-separated)."""
    lines: list[str] = []
    if status.get("source") == "none":
        lines.append(f"{status['checkpoint']}: no checkpoint found")
        return "\n".join(lines)
    if status.get("source") == "checkpoint":
        lines.append(
            f"{status['checkpoint']}: {status['recorded']} cell(s) "
            "recorded (no live coordinator sidecar)"
        )
        return "\n".join(lines)

    done = status.get("done", 0)
    total = status.get("total", 0)
    if status.get("finished"):
        state = "finished"
    elif status.get("presumed_dead") or status.get("stale"):
        state = (
            "presumed dead (coordinator silent "
            f"{status.get('age_s', '?')}s; relaunch with --resume)"
        )
    elif status.get("draining"):
        state = "draining (SIGTERM)"
    else:
        state = "running"
    lines.append(
        f"sweep {status.get('endpoint') or '(closed)'}: {state} — "
        f"{done}/{total} done, {status.get('in_flight', 0)} in flight, "
        f"{status.get('pending', 0)} pending, "
        f"{status.get('failed', 0)} failed"
    )
    lines.append(
        f"  stolen/re-issued {status.get('reissued', 0)}, retried "
        f"{status.get('retried', 0)}, late duplicates dropped "
        f"{status.get('duplicates', 0)}"
    )
    lines.append(
        f"  throughput {status.get('cells_per_s', 0):.3f} cells/s, "
        f"ETA {_eta_text(status)}, elapsed {status.get('elapsed_s', 0)}s"
    )
    comm = status.get("comm") or {}
    if comm.get("frames"):
        lines.append(
            f"  comm: {comm.get('frames', 0)} result frame(s), "
            f"{comm.get('raw_bytes', 0)} B raw -> "
            f"{comm.get('wire_bytes', 0)} B wire "
            f"({comm.get('ratio', 1.0)}x), "
            f"{comm.get('retransmits', 0)} retransmit(s) costing "
            f"{comm.get('retransmit_wire_bytes', 0)} B"
        )
    if status.get("recovered"):
        lines.append(
            f"  recovered {status['recovered']} cell(s) from a previous "
            "coordinator's checkpoint"
        )
    if status.get("error"):
        lines.append(f"  error: {status['error']}")
    workers = status.get("workers") or {}
    if workers:
        lines.append(f"  workers ({len(workers)}):")
        for name, info in workers.items():
            lines.append(
                f"    {name}: {info.get('cells_done', 0)} cell(s), "
                f"{info.get('cells_per_s', 0):.3f} cells/s, "
                f"last seen {info.get('last_seen_s', '?')}s ago"
            )
    else:
        lines.append("  workers: none joined yet")
    return "\n".join(lines)
