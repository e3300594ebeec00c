"""Terminal plots for convergence curves — no plotting dependency.

The paper's figures are log-scale error-vs-time line plots; these helpers
render the same series as ASCII so examples and benchmark reports can
show *curves*, not just endpoints.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["ascii_lineplot"]


def ascii_lineplot(
    series: dict[str, Sequence[tuple[float, float]]],
    *,
    width: int = 64,
    height: int = 16,
    log_y: bool = True,
    x_label: str = "time (ms)",
    y_label: str = "error",
    title: str | None = None,
) -> str:
    """Multi-series scatter/line plot on a character grid.

    ``series`` maps a label to ``(x, y)`` pairs. Each series is drawn with
    its own marker; markers cycle through ``* + o x @ #``. Y can be log
    scale (the paper's convention for error curves).
    """
    markers = "*+ox@#"
    points: list[tuple[float, float, str]] = []
    for i, (label, pairs) in enumerate(series.items()):
        m = markers[i % len(markers)]
        for x, y in pairs:
            points.append((float(x), float(y), m))
    if not points:
        return "(empty plot)"

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_y:
        floor = min((y for y in ys if y > 0), default=1e-12)
        ys_t = [math.log10(max(y, floor)) for y in ys]
    else:
        ys_t = ys
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_t), max(ys_t)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (x, y, m), yt in zip(points, ys_t):
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y_hi - yt) / y_span * (height - 1))
        grid[row][col] = m

    lines = []
    if title:
        lines.append(title)
    top = f"{(10 ** y_hi if log_y else y_hi):.2e}"
    bottom = f"{(10 ** y_lo if log_y else y_lo):.2e}"
    gutter = max(len(top), len(bottom)) + 1
    for r, row in enumerate(grid):
        label = ""
        if r == 0:
            label = top
        elif r == height - 1:
            label = bottom
        lines.append(label.rjust(gutter) + "|" + "".join(row))
    lines.append(" " * gutter + "+" + "-" * width)
    lines.append(
        " " * gutter
        + f" {x_lo:.0f} {x_label} {x_hi:.0f}  ({y_label}"
        + (", log scale)" if log_y else ")")
    )
    legend = "   ".join(
        f"{markers[i % len(markers)]} {label}"
        for i, label in enumerate(series)
    )
    lines.append(" " * gutter + " " + legend)
    return "\n".join(lines)
