"""Bench reducer: token parsing, end-to-end cells."""

import math

import pytest

from repro.api.registry import DELAY_MODELS, OPTIMIZERS
from repro.bench.claims import PAPER_CELL
from repro.bench.harness import run_api_experiment
from repro.cluster.stragglers import ControlledDelay, NoDelay, ProductionCluster
from repro.core.policies import (
    ASP,
    BSP,
    SSP,
    CompletionTimeBarrier,
    MinAvailableFraction,
    resolve_policy,
)
from repro.errors import ReproError
from repro.optim.loop import BulkSynchronous, UpdateRule

#: The tiny cell these tests vary: PAPER_CELL's cost/network models on
#: the smallest dataset.
TINY_CELL = PAPER_CELL.with_overrides(
    dataset="tiny_dense", num_workers=4, num_partitions=8,
)


def parse_delay(token, num_workers, seed):
    return DELAY_MODELS.create(
        token, defaults={"num_workers": num_workers, "seed": seed}
    )


def test_parse_delay_tokens():
    assert isinstance(parse_delay("none", 8, 0), NoDelay)
    cds = parse_delay("cds:0.6", 8, 0)
    assert isinstance(cds, ControlledDelay)
    assert cds.intensity == 0.6
    assert isinstance(parse_delay("cds:0", 8, 0), NoDelay)
    pcs = parse_delay("pcs", 32, 1)
    assert isinstance(pcs, ProductionCluster)
    assert pcs.num_workers == 32
    with pytest.raises(ReproError):
        parse_delay("bogus", 8, 0)


def test_parse_barrier_tokens():
    assert isinstance(resolve_policy("asp"), ASP)
    assert isinstance(resolve_policy("bsp"), BSP)
    ssp = resolve_policy("ssp:5")
    assert isinstance(ssp, SSP) and ssp.threshold == 5
    frac = resolve_policy("frac:0.5")
    assert isinstance(frac, MinAvailableFraction) and frac.beta == 0.5
    ct = resolve_policy("ct:2.5")
    assert isinstance(ct, CompletionTimeBarrier) and ct.ratio == 2.5
    with pytest.raises(ReproError):
        resolve_policy("nope")


@pytest.mark.parametrize("algorithm,asynchronous", [
    ("sgd", False), ("asgd", True), ("saga", False), ("asaga", True),
    ("svrg", False), ("asvrg", True),
])
def test_every_algorithm_runs(algorithm, asynchronous):
    spec = TINY_CELL.with_overrides(
        algorithm=algorithm, max_updates=12, eval_every=4,
    )
    rule = OPTIMIZERS.get(algorithm)
    assert issubclass(rule, UpdateRule)
    assert issubclass(rule, BulkSynchronous) != asynchronous
    res = run_api_experiment(spec)
    assert res.spec == spec
    assert res.updates == 12
    assert res.final_error < res.initial_error
    assert res.elapsed_ms > 0
    assert len(res.error_series) >= 2


def test_aadmm_is_async_and_honors_barrier():
    """aadmm is registered as an UpdateRule, so its policy is applied."""
    spec = TINY_CELL.with_overrides(
        algorithm="aadmm", max_updates=8, policy="bsp",
    )
    res = run_api_experiment(spec)
    assert res.updates == 8
    assert res.extras["policy"] == "BSP"
    assert "max_staleness_seen" in res.extras


def test_result_time_to_error():
    res = run_api_experiment(TINY_CELL.with_overrides(max_updates=30))
    t = res.time_to_error(res.relative_target(0.5))
    assert 0 < t <= res.elapsed_ms
    assert math.isinf(res.time_to_error(1e-300))


def test_straggler_slows_sync_run():
    base = TINY_CELL.with_overrides(max_updates=20)
    slow = base.with_overrides(delay="cds:1.0")
    assert (
        run_api_experiment(slow).elapsed_ms
        > run_api_experiment(base).elapsed_ms
    )


def test_saga_naive_mode_tracked():
    spec = TINY_CELL.with_overrides(
        algorithm="saga", max_updates=10, params={"mode": "naive"},
    )
    res = run_api_experiment(spec)
    assert res.extras["naive_broadcast_bytes"] > 0


def test_unknown_algorithm_rejected():
    with pytest.raises(ReproError):
        run_api_experiment(TINY_CELL.with_overrides(algorithm="quantum"))

