"""A restored run continues the algorithm, for every optimizer.

A run snapshot is written the instant update K applies, and a run
restored from it must finish near where the uninterrupted run does:
restored from a prefix snapshot at half budget, or at 3/7 of it (mid
epoch for SVRG and ASVRG), the final error may be at most ``FACTOR``
times the uninterrupted run's. A snapshot holds only the iterate and
its counters, so each rule rebuilds its server state at the restored
iterate; a rule whose rebuilt state does not continue the algorithm
(a SAGA restore that kept its running average but reset its table to
``w_0`` ended 168x and 6,687x off) fails here at once.
"""

import json
from pathlib import Path

import pytest

from repro.api.registry import OPTIMIZERS
from repro.api.runner import prepare_experiment

#: Restored error over uninterrupted error. Seed 0 reads 0.998 to 1.008
#: for the six variance-reduced and plain rules at both cuts (in-flight
#: tasks at the cut are re-dispatched, not resumed; SVRG and ASVRG open
#: a fresh epoch at the restored iterate), and ``async_lbfgs``, which
#: starts again without curvature pairs, reads 0.943 at half budget and
#: 0.818 at 3/7.
FACTOR = 1.1

#: Budgets of the tiny_dense cells: 4 workers, 8 partitions, ASP, seed 0.
BUDGETS = {
    "asgd": 2000, "sgd": 200, "asaga": 2000, "saga": 200,
    "svrg": 100, "asvrg": 400,
}

SPECS = Path(__file__).resolve().parents[1] / "examples" / "specs"

#: Every optimizer the library registers (not the ones tests register).
BUILT_IN = sorted(
    name for name in OPTIMIZERS.names()
    if OPTIMIZERS.get(name).__module__.startswith("repro.")
)


def _cell(name: str) -> dict:
    if name == "async_lbfgs":
        # Diverges on least squares at default settings; its shipped
        # logistic spec converges.
        return json.loads((SPECS / "async_lbfgs.json").read_text())
    assert name in BUDGETS, f"{name!r} needs a resume-law cell"
    return {
        "algorithm": name, "dataset": "tiny_dense", "num_workers": 4,
        "num_partitions": 8, "max_updates": BUDGETS[name], "seed": 0,
    }


def _final_error(spec: dict) -> float:
    prep = prepare_experiment(spec)
    return float(prep.execute().final_error(prep.problem))


def _check_restored_at(name: str, cut: float, tmp_path) -> None:
    spec = _cell(name)
    k = round(spec["max_updates"] * cut)
    snap = tmp_path / "cut.json"
    _final_error({
        **spec, "max_updates": k, "snapshot_every": k,
        "snapshot_path": str(snap),
    })
    uninterrupted = _final_error(spec)
    restored = _final_error({**spec, "restore_from": str(snap)})
    assert restored <= FACTOR * uninterrupted, (
        f"{name}: restored at {k} ends at {restored:.4g}, the "
        f"uninterrupted run at {uninterrupted:.4g}"
    )


@pytest.mark.parametrize("name", BUILT_IN)
def test_a_run_restored_at_half_budget_ends_near_the_uninterrupted_one(
    name, tmp_path,
):
    _check_restored_at(name, 1 / 2, tmp_path)


@pytest.mark.parametrize("name", BUILT_IN)
def test_a_run_restored_at_three_sevenths_ends_near_the_uninterrupted_one(
    name, tmp_path,
):
    _check_restored_at(name, 3 / 7, tmp_path)
