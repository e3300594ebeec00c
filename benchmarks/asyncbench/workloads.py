"""The four asyncbench workloads: their specs and why each was chosen.

Every workload is a plain ``repro`` spec (or grid) built from ``--seed``;
the program under test receives nothing but that spec. Sizes are fixed:
when the time cap bites, the benchmark runs fewer repeats, never shorter
ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Fabric options of ``sweep_fabric`` (2 local workers = ``nproc`` on the
#: builder host; ``lease_size`` 1 so cells spread instead of one worker
#: draining a group lease).
FABRIC = {"local_workers": 2, "lease_size": 1, "lease_ttl": 60.0}


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why this workload is in the benchmark.
    why: str
    #: ``final_rel_error`` above this fails the operation. Recorded as
    #: 2x the worst value over seeds 0-31 (see README, "Checks").
    max_rel_error: float
    #: Which old single-shot record this workload supersedes.
    supersedes: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "asgd_asp",
            "single-task ASP rounds: per-task interpreter plumbing (lineage "
            "walk, RNG spawn, sampling, scheduler/dispatch) is ~all of the "
            "time, numpy is negligible",
            max_rel_error=0.55,
            supersedes="BENCH_engine.json e2e section",
        ),
        Workload(
            "asgd_bsp_wide",
            "8-task fused BSP rounds on a wide dense matrix: bulk row "
            "movement (take_rows, stack_blocks, GEMV) dominates, per-task "
            "plumbing is <10%",
            max_rel_error=0.022,
            supersedes="BENCH_engine.json fused_round section",
        ),
        Workload(
            "asaga_durable",
            "state-heavy run: HIST read by workers while the server appends, "
            "prunes and snapshots it; CSR kernel, COMM top-k delta encode, "
            "SSP gating, a kill/revive fault",
            max_rel_error=0.45,
            supersedes="BENCH_recovery.json snapshot cadence + BENCH_comm.json",
        ),
        Workload(
            "sweep_fabric",
            "8-cell sweep through the socket fabric with 2 worker processes: "
            "spawn, lease round-trips, result frames, shm attach and "
            "checkpoint appends, absent from the engine workloads",
            max_rel_error=0.075,
            supersedes="BENCH_fabric.json + BENCH_sweep.json",
        ),
    ]
}

def engine_spec(name: str, seed: int, workdir: str, *, quick: bool = False) -> dict:
    """The ``repro`` experiment spec of one engine workload."""
    if name == "asgd_asp":
        spec = dict(
            algorithm="asgd", dataset="synth_logistic", problem="logistic",
            num_workers=8, num_partitions=8, barrier="asp",
            max_updates=3000, eval_every=500,
        )
    elif name == "asgd_bsp_wide":
        spec = dict(
            algorithm="asgd",
            dataset={"name": "epsilon_like", "n": 16384, "d": 512},
            problem="least_squares", num_workers=8, num_partitions=16,
            policy="bsp", batch_fraction=0.5, delay="cds:0.6",
            max_updates=400, eval_every=100,
        )
    elif name == "asaga_durable":
        spec = dict(
            algorithm="asaga", params={"mode": "history"},
            dataset="rcv1_like", num_workers=8, num_partitions=32,
            barrier="ssp:8", granularity="partition", delay="cds:0.6",
            compressor={"name": "topk", "fraction": 0.1, "delta": True},
            snapshot_every=10,
            snapshot_path=os.path.join(workdir, f"snapshot-{os.getpid()}.json"),
            fault_plan="kill:w2@80ms,revive:w2@200ms",
            max_updates=1500, eval_every=250,
        )
    else:
        raise KeyError(name)
    spec["seed"] = int(seed)
    if quick:
        spec["max_updates"] = max(40, spec["max_updates"] // 25)
        spec["eval_every"] = spec["max_updates"] // 2
    return spec


def sweep_grid(seed: int, *, quick: bool = False) -> dict:
    """The 8-cell grid of ``sweep_fabric``: 4 barriers x seeds S, S+1."""
    return {
        "base": {
            "algorithm": "asgd", "dataset": "mnist8m_like",
            "num_workers": 8, "num_partitions": 32, "delay": "cds:0.6",
            "max_updates": 60 if quick else 1200, "eval_every": 40,
            "seed": int(seed),
        },
        "grid": {
            "barrier": ["asp", "ssp:4", "frac:0.5", "bsp"],
            "seed": [int(seed), int(seed) + 1],
        },
    }


def setup_grid(seed: int) -> dict:
    """The 1-cell/1-update sweep the ``sweep_fabric`` set-up sample runs
    through the same fabric options."""
    grid = sweep_grid(seed)
    grid["base"].update(max_updates=1, eval_every=1)
    grid["grid"] = {"barrier": ["asp"]}
    return grid
