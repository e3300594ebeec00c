"""One set-up sample, run as a fresh subprocess by the set-up phase.

Everything a user pays before the first update: interpreter start (timed
by the parent), ``import repro``, dataset, problem, reference optimum and
``prepare_experiment``. For ``sweep_fabric`` it is a 1-cell/1-update
sweep through the same fabric options, so worker spawn, the first lease
round-trip and the shared-memory publish are part of the sample.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]


def main(name: str, seed: int, workdir: str) -> None:
    from asyncbench.workloads import FABRIC, engine_spec, setup_grid

    if name == "sweep_fabric":
        from repro.api.runner import run_grid

        checkpoint = os.path.join(workdir, f"setup-{os.getpid()}.ckpt.jsonl")
        summaries = run_grid(
            setup_grid(seed), fabric=dict(FABRIC), checkpoint=checkpoint
        )
        if [s["updates"] for s in summaries] != [1]:
            raise SystemExit(f"set-up sweep went wrong: {summaries!r}")
        return
    from repro.api.runner import prepare_experiment

    prep = prepare_experiment(engine_spec(name, seed, workdir))
    prep.problem.f_star  # noqa: B018 - solves the reference optimum


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
