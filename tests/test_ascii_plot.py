"""ASCII plotting helpers."""

from repro.utils.ascii_plot import ascii_lineplot


def test_lineplot_contains_markers_and_legend():
    out = ascii_lineplot(
        {"sync": [(0, 1.0), (10, 0.1)], "async": [(0, 1.0), (5, 0.1)]},
        width=30, height=8, title="demo",
    )
    assert "demo" in out
    assert "*" in out and "+" in out
    assert "sync" in out and "async" in out
    assert "log scale" in out


def test_lineplot_axis_labels():
    out = ascii_lineplot({"a": [(0, 1.0), (100, 0.5)]}, width=20, height=5,
                         x_label="t", y_label="err")
    assert " t " in out
    assert "err" in out


def test_lineplot_empty():
    assert ascii_lineplot({}) == "(empty plot)"


def test_lineplot_single_point():
    out = ascii_lineplot({"a": [(1.0, 2.0)]}, width=10, height=4)
    assert "*" in out


def test_lineplot_linear_scale():
    out = ascii_lineplot({"a": [(0, 1), (1, 2)]}, log_y=False)
    assert "log scale" not in out
