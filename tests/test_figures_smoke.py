"""Tiny-scale smoke tests of every figure driver.

The benchmarks run these at paper shape-checking scale; here each driver
runs on the smallest dataset with minimal budgets, asserting structure
(headers/rows/cells) rather than shapes — fast regression cover for the
harness itself.
"""

import pytest

from repro.bench import figures


@pytest.fixture(autouse=True)
def fresh_cache():
    figures.clear_cache()
    yield
    figures.clear_cache()


TINY = dict(datasets=("tiny_dense",), verbose=False)


def test_fig2_structure():
    out = figures.fig2_sync_sgd_vs_reference(
        datasets=("tiny_dense",), iterations=6, verbose=False,
    )
    assert len(out["rows"]) == 1
    assert out["cells"]["tiny_dense"]["ratio"] > 0


def test_fig3_fig4_structure():
    kw = dict(delays=(0.0, 1.0), sync_updates=6, async_updates=12, **TINY)
    fig3 = figures.fig3_cds_sgd(**kw)
    assert set(fig3["cells"]) == {("tiny_dense", 0.0), ("tiny_dense", 1.0)}
    fig4 = figures.fig4_wait_sgd(**kw)
    for cell in fig4["cells"].values():
        assert cell["sync_wait_ms"] >= 0
        assert cell["async_wait_ms"] >= 0


def test_fig5_fig6_structure():
    kw = dict(delays=(1.0,), sync_updates=6, async_updates=12, **TINY)
    fig5 = figures.fig5_cds_saga(**kw)
    assert ("tiny_dense", 1.0) in fig5["cells"]
    fig6 = figures.fig6_wait_saga(**kw)
    assert len(fig6["rows"]) == 1


def test_fig7_fig8_table3_structure():
    kw = dict(datasets=("tiny_dense",), sync_updates=4, async_updates=16,
              verbose=False)
    fig7 = figures.fig7_pcs_sgd(**kw)
    assert fig7["cells"]["tiny_dense"]["speedup"] >= 0
    fig8 = figures.fig8_pcs_saga(**kw)
    assert "tiny_dense" in fig8["cells"]
    t3 = figures.table3_wait_pcs(**kw)
    row = t3["cells"]["tiny_dense"]
    assert set(row) == {"SAGA", "ASAGA", "SGD", "ASGD"}


def test_table2_structure():
    out = figures.table2_datasets(verbose=False)
    assert len(out["rows"]) == 3


def test_ablation_structures():
    b = figures.ablation_broadcast(dataset="tiny_dense", updates=6,
                                   verbose=False)
    assert set(b["cells"]) == {"history", "naive"}
    bars = figures.ablation_barriers(
        dataset="tiny_dense", barriers=("asp", "bsp"), updates=12,
        delay="cds:1.0", verbose=False,
    )
    assert set(bars["cells"]) == {"asp", "bsp"}
    lr = figures.ablation_staleness_lr(dataset="tiny_dense", updates=16,
                                       verbose=False)
    assert set(lr["cells"]) == {"plain", "staleness-adaptive"}


def test_ablation_granularity_structure():
    out = figures.ablation_granularity(
        dataset="tiny_dense", updates=8, delay="none",
        num_workers=2, num_partitions=4, verbose=False,
    )
    assert set(out["cells"]) == {
        "asgd/worker", "asgd/partition", "hogwild", "fedavg",
    }
    assert out["cells"]["asgd/worker"].extras["granularity"] == "worker"
    for label in ("asgd/partition", "hogwild", "fedavg"):
        assert out["cells"][label].extras["granularity"] == "partition"


def test_set_jobs_batches_match_serial_and_leave_no_child_behind():
    """Two driver batches under ``set_jobs(2)`` return the rows
    ``set_jobs(1)`` returns; each batch forks its own workers and reaps
    them, so nothing outlives it (there is no pool to shut down)."""
    import multiprocessing

    def batches():
        figures.clear_cache()
        bars = figures.ablation_barriers(
            dataset="tiny_dense", barriers=("asp", "bsp"), updates=12,
            delay="cds:1.0", verbose=False,
        )
        lr = figures.ablation_staleness_lr(
            dataset="tiny_dense", updates=16, verbose=False,
        )
        return bars["rows"], lr["rows"]

    serial = batches()
    figures.set_jobs(2)
    try:
        assert batches() == serial
        assert multiprocessing.active_children() == []
    finally:
        figures.set_jobs(1)
        figures.clear_cache()


def test_verbose_prints_table(capsys):
    figures.table2_datasets(verbose=True)
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "rcv1_like" in out
