"""The claims registry behind ``python -m repro figures``, at tiny scale.

``python -m repro figures`` runs every row of
:data:`repro.bench.claims.CLAIMS` at the paper's budgets. Here every row
runs on cells these tests shrink themselves (the regression analogs
become ``tiny_dense``, budgets are cut 20x) to check each measured
table's structure, the batch's sharing, checkpoint and ``jobs`` paths,
and, on hand-written tables, that every row's predicate can fail.
"""

import copy
import math
import multiprocessing
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.api import parallel
from repro.api.parallel import run_key
from repro.bench import claims

ANALOGS = ("mnist8m_like", "epsilon_like", "rcv1_like")


def shrink(claim):
    return replace(claim, cells={
        label: spec.with_overrides(
            dataset="tiny_dense" if spec.dataset in ANALOGS else spec.dataset,
            max_updates=max(spec.max_updates // 20, 2),
        )
        for label, spec in claim.cells.items()
    })


@pytest.fixture(scope="module")
def tiny():
    """Every row on shrunk cells, for the whole module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(claims, "CLAIMS", {
            name: shrink(claim) for name, claim in claims.CLAIMS.items()
        })
        yield


@pytest.fixture(scope="module")
def verdicts(tiny):
    return {v.claim.name: v for v in claims.run_claims()}


@pytest.fixture
def executed(monkeypatch):
    """Spec of every cell body that actually runs in this process."""
    seen = []
    real_cell = parallel._bench_cell

    def counting(spec_dict):
        seen.append(run_key(spec_dict))
        return real_cell(spec_dict)

    monkeypatch.setattr(parallel, "_bench_cell", counting)
    return seen


def test_every_row_measures_finite_values(verdicts):
    assert list(verdicts) == list(claims.CLAIMS)
    for name, verdict in verdicts.items():
        assert verdict.table, name
        for label, row in verdict.table.items():
            for column, value in row.items():
                if isinstance(value, (int, float)):
                    assert math.isfinite(value), (name, label, column)


def test_fig2_structure(verdicts):
    table = verdicts["fig2_mllib"].table
    assert list(table) == list(ANALOGS)
    assert all(row["ratio"] > 0 for row in table.values())


def test_fig3_fig4_structure(verdicts):
    rows = [f"{ds} {d:.0%}" for ds in ANALOGS for d in claims.CDS_DELAYS]
    fig3, fig4 = verdicts["fig3_cds_sgd"], verdicts["fig4_wait_sgd"]
    assert list(fig3.table) == rows == list(fig4.table)
    assert set(fig3.table[rows[0]]) == {
        "t_sync_ms", "t_async_ms", "speedup", "err_sync", "err_async",
    }
    assert all(w >= 0 for row in fig4.table.values() for w in row.values())
    # One set of cells behind both figures: the same result objects.
    assert fig3.results == fig4.results


def test_fig5_fig6_structure(verdicts):
    fig5, fig6 = verdicts["fig5_cds_saga"], verdicts["fig6_wait_saga"]
    assert len(fig5.table) == len(fig6.table) == 12
    assert {res.spec.algorithm for res in fig5.results.values()} == {
        "saga", "asaga",
    }


def test_fig7_fig8_table3_structure(verdicts):
    fig7, fig8, t3 = (verdicts[name] for name in (
        "fig7_pcs_sgd", "fig8_pcs_saga", "table3_wait_pcs"))
    assert list(fig7.table) == list(fig8.table) == list(claims.PCS_DATASETS)
    assert t3.results == {**fig7.results, **fig8.results}
    for row in t3.table.values():
        assert set(row) == {"SAGA", "ASAGA", "SGD", "ASGD"}


def test_table2_structure(verdicts):
    verdict = verdicts["table2_datasets"]
    assert list(verdict.table) == ["rcv1_like", "mnist8m_like", "epsilon_like"]
    assert verdict.passed  # no cells to shrink: the real claim


def test_ablation_structures(verdicts):
    assert set(verdicts["barriers"].table) == {"asp", "ssp:8", "frac:0.5", "bsp"}
    assert set(verdicts["broadcast"].table) == {
        "history", "naive", "naive/history",
    }
    assert set(verdicts["broadcast_growth"].table) == {"naive", "history"}
    assert set(verdicts["staleness_lr"].table) == {
        "plain", "staleness-adaptive",
    }
    assert set(verdicts["pipelining"].table) == {
        "depth 1", "depth 2", "depth 4",
    }
    assert set(verdicts["history_depth"].table) == {
        "asgd", "m=0", "m=4", "m=10",
    }
    compression = verdicts["compression"].table
    assert set(compression) == {"off", "none", "topk:0.1", "onebit"}
    assert "collect_ratio" not in compression["off"]
    assert compression["none"]["collect_ratio"] == 1.0


def test_ablation_granularity_structure(verdicts):
    results = verdicts["granularity"].results
    assert {label: res.extras["granularity"] for label, res in results.items()} \
        == {"worker": "worker", "partition": "partition"}


def test_shared_cells_run_once(tiny, executed):
    """Figs 3 & 4 share one cell set: each distinct run key executes once."""
    out = claims.run_claims(["fig3_cds_sgd", "fig4_wait_sgd"])
    distinct = {run_key(s) for s in claims.CLAIMS["fig3_cds_sgd"].cells.values()}
    assert len(executed) == len(set(executed)) == len(distinct)
    assert out[0].results == out[1].results


def test_checkpoint_second_run_executes_nothing(tiny, executed, tmp_path):
    ckpt = tmp_path / "claims.ckpt.jsonl"
    names = ["barriers", "staleness_lr", "table2_datasets"]
    first = claims.run_claims(names, checkpoint=ckpt)
    assert len(executed) == 6
    executed.clear()
    second = claims.run_claims(names, checkpoint=ckpt)
    assert executed == []
    assert [(v.table, v.passed) for v in second] == [
        (v.table, v.passed) for v in first
    ]


def test_jobs_2_matches_serial_and_leaves_no_child_behind(tiny):
    names = ["barriers", "staleness_lr"]
    serial = claims.run_claims(names)
    forked = claims.run_claims(names, jobs=2)
    assert [(v.table, v.passed) for v in forked] == [
        (v.table, v.passed) for v in serial
    ]
    assert multiprocessing.active_children() == []


def test_unknown_claim_is_a_clean_error(capsys):
    assert main(["figures", "fig9_nope"]) == 2
    assert "unknown claim(s) ['fig9_nope']" in capsys.readouterr().err


def test_verbose_prints_table(tmp_path, capsys):
    out = tmp_path / "REPRODUCTION.md"
    assert main(["figures", "table2_datasets", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "table2_datasets: PASS" in printed
    assert "rcv1_like" in printed
    assert "1 of 1 claims hold" in printed
    assert "## table2_datasets: PASS" in out.read_text()


def test_cli_prints_fail_and_exits_1(monkeypatch, tmp_path, capsys):
    row = claims.CLAIMS["table2_datasets"]
    monkeypatch.setitem(
        claims.CLAIMS, row.name, replace(row, holds=lambda table: False)
    )
    out = tmp_path / "REPRODUCTION.md"
    assert main(["figures", row.name, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "table2_datasets: FAIL" in printed
    assert "FAIL: table2_datasets" in printed
    assert "## table2_datasets: FAIL" in out.read_text()


# ---------------------------------------------------------------------------
# The gate can fail: per row, a table in the paper's shape that holds, and
# the same table with the paper's direction reversed, which must not.
# ---------------------------------------------------------------------------

def _cds_table(sync_ms, async_ms, sync_wait, async_wait):
    return {
        f"{ds} {d:.0%}": {
            "t_sync_ms": sync_ms(d), "t_async_ms": async_ms(d),
            "speedup": sync_ms(d) / async_ms(d), "err_sync": 0.38,
            "err_async": 0.37, "sync_wait_ms": sync_wait(d),
            "async_wait_ms": async_wait(d),
        }
        for ds in ANALOGS for d in claims.CDS_DELAYS
    }


CDS_GOOD = _cds_table(lambda d: 140 * (1 + d), lambda d: 85.0,
                      lambda d: 0.25 + 5 * d, lambda d: 0.25)
CDS_SWAPPED = _cds_table(lambda d: 85.0, lambda d: 140 * (1 + d),
                         lambda d: 0.25, lambda d: 0.25 + 5 * d)


def _run(time_ms, err=0.42, updates=320, max_staleness=14):
    return {"time_ms": time_ms, "updates": updates, "err": err,
            "initial_err": 13.4, "max_staleness": max_staleness}


def _swap(table, a, b, *columns):
    for column in columns:
        table[a][column], table[b][column] = table[b][column], table[a][column]
    return table


GOOD = {
    "fig2_mllib": {ds: {"ratio": 0.99} for ds in ANALOGS},
    "fig3_cds_sgd": CDS_GOOD, "fig4_wait_sgd": CDS_GOOD,
    "fig5_cds_saga": CDS_GOOD, "fig6_wait_saga": CDS_GOOD,
    "fig7_pcs_sgd": {ds: {"speedup": 4.1} for ds in claims.PCS_DATASETS},
    "fig8_pcs_saga": {ds: {"speedup": 2.6} for ds in claims.PCS_DATASETS},
    "table2_datasets": {
        name: {"rows": 8, "cols": 4, "generated": "8x4"}
        for name in ("rcv1_like", "mnist8m_like", "epsilon_like")
    },
    "table3_wait_pcs": {ds: {"SAGA": 6.6, "ASAGA": 0.25, "SGD": 6.4,
                             "ASGD": 0.25} for ds in claims.PCS_DATASETS},
    "barriers": {"asp": _run(174), "ssp:8": _run(276), "frac:0.5": _run(206),
                 "bsp": _run(283)},
    "broadcast": {"history": {"fetch_bytes": 524800, "time_ms": 303, "err": 2.1},
                  "naive": {"fetch_bytes": 11482624, "time_ms": 330,
                            "err": 2.1}},
    "broadcast_growth": {"naive": {"growth": 3.69}, "history": {"growth": 1.95}},
    "granularity": {
        "worker": {"collected/round": 1.0, "task_bytes/round": 1364,
                   "err": 0.34, "initial_err": 13.4},
        "partition": {"collected/round": 4.2, "task_bytes/round": 5698,
                      "err": 0.31, "initial_err": 13.4},
    },
    "staleness_lr": {"plain": _run(47, 0.68, 640, 169),
                     "staleness-adaptive": _run(47, 0.85, 640, 169)},
    "pipelining": {"depth 1": _run(214, updates=400, max_staleness=14),
                   "depth 2": _run(191, updates=400, max_staleness=29),
                   "depth 4": _run(191, updates=400, max_staleness=59)},
    "history_depth": {
        label: {"err": err, "updates": 200, "history_bytes": nbytes}
        for label, err, nbytes in (("asgd", 0.083, 0), ("m=0", 0.021, 0),
                                   ("m=4", 0.0103, 2048),
                                   ("m=10", 0.0115, 5120))
    },
    "compression": {
        "off": {"err": 0.386}, "none": {"err": 0.386, "collect_ratio": 1.0},
        "topk:0.1": {"err_vs_none": 1.02, "collect_ratio": 5.5},
        "onebit": {"err_vs_none": 1.03, "collect_ratio": 19.1},
    },
}

REVERSED = {
    "fig2_mllib": lambda t: t["rcv1_like"].update(ratio=2.0),
    "fig3_cds_sgd": lambda t: t.update(copy.deepcopy(CDS_SWAPPED)),
    "fig4_wait_sgd": lambda t: t.update(copy.deepcopy(CDS_SWAPPED)),
    "fig5_cds_saga": lambda t: t.update(copy.deepcopy(CDS_SWAPPED)),
    "fig6_wait_saga": lambda t: t.update(copy.deepcopy(CDS_SWAPPED)),
    "fig7_pcs_sgd": lambda t: t["epsilon_like"].update(speedup=1 / 4.1),
    "fig8_pcs_saga": lambda t: t["mnist8m_like"].update(speedup=1 / 2.6),
    "table2_datasets": lambda t: t["mnist8m_like"].update(generated="4x8"),
    "table3_wait_pcs": lambda t: t["epsilon_like"].update(
        SAGA=0.25, ASAGA=6.6),
    "barriers": lambda t: _swap(t, "asp", "bsp", "time_ms"),
    "broadcast": lambda t: t["naive"].update(fetch_bytes=524800),
    "broadcast_growth": lambda t: _swap(t, "naive", "history", "growth"),
    "granularity": lambda t: _swap(t, "worker", "partition",
                                   "collected/round", "task_bytes/round"),
    "staleness_lr": lambda t: t["staleness-adaptive"].update(err=6.8),
    "pipelining": lambda t: _swap(t, "depth 1", "depth 4", "time_ms"),
    "history_depth": lambda t: _swap(t, "m=0", "m=4", "err", "history_bytes"),
    "compression": lambda t: t["none"].update(err=0.387),
}


def test_every_row_has_a_doctored_table():
    assert set(GOOD) == set(REVERSED) == set(claims.CLAIMS)


@pytest.mark.parametrize("name", list(claims.CLAIMS))
def test_reversing_the_paper_direction_fails_the_claim(name):
    holds = claims.CLAIMS[name].holds
    assert holds(copy.deepcopy(GOOD[name])), name
    doctored = copy.deepcopy(GOOD[name])
    REVERSED[name](doctored)
    assert not holds(doctored), name
