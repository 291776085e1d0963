"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output consistent and readable: fixed-width
ASCII tables, CDF summaries, and paper-vs-measured comparison rows.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence],
                float_format: str = "{:.3f}") -> str:
    """Render a fixed-width table; floats use ``float_format``."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))

    separator = "  ".join("-" * width for width in widths)
    out = [line(headers), separator]
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def cdf_summary(values: Sequence[float],
                bounds: Sequence[float] = (0.01, 0.02, 0.05, 0.10)
                ) -> str:
    """One-line CDF summary: share of values within each bound."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return "(no data)"
    parts = [f"<={bound:.0%}: {np.mean(values <= bound):6.1%}"
             for bound in bounds]
    parts.append(f"max: {values.max():.3f}")
    return "  ".join(parts)


def paper_vs_measured(rows: Sequence[Tuple[str, float, float]],
                      label: str = "quantity") -> str:
    """Table comparing paper-reported values with measured ones."""
    table_rows = [(name, paper, measured, measured - paper)
                  for name, paper, measured in rows]
    return ascii_table(
        [label, "paper", "measured", "delta"], table_rows)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse text sparkline for curve sanity-checks in bench logs."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    if values.size > width:
        # Downsample by averaging buckets.
        buckets = np.array_split(values, width)
        values = np.array([bucket.mean() for bucket in buckets])
    glyphs = " .:-=+*#%@"
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        # A constant series renders as a visible flat line.
        return glyphs[4] * values.size
    scaled = (values - lo) / (hi - lo) * (len(glyphs) - 1)
    return "".join(glyphs[int(round(v))] for v in scaled)


def heading(title: str, char: str = "=") -> str:
    return f"\n{title}\n{char * len(title)}"


def ascii_scatter(xs: Sequence[float], ys: Sequence[float],
                  width: int = 56, height: int = 18,
                  x_label: str = "x", y_label: str = "y",
                  diagonal: bool = False) -> str:
    """A text scatter plot (the closest a terminal gets to Fig. 1/7).

    ``diagonal`` overlays the y = x line - useful for
    predicted-vs-actual panels where hugging the diagonal is the claim.
    Glyphs encode point density per cell (`.` one point, `:` two,
    `*` a few, `@` many).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have matching shapes")
    if xs.size == 0:
        return "(no data)"
    lo_x, hi_x = float(xs.min()), float(xs.max())
    lo_y, hi_y = float(ys.min()), float(ys.max())
    if diagonal:
        lo_x = lo_y = min(lo_x, lo_y)
        hi_x = hi_y = max(hi_x, hi_y)
    span_x = max(hi_x - lo_x, 1e-12)
    span_y = max(hi_y - lo_y, 1e-12)

    counts = np.zeros((height, width), dtype=int)
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - lo_x) / span_x * (width - 1)))
        row = min(height - 1, int((y - lo_y) / span_y * (height - 1)))
        counts[height - 1 - row, col] += 1

    def glyph(count: int, on_diagonal: bool) -> str:
        if count == 0:
            return "\\" if on_diagonal else " "
        if count == 1:
            return "."
        if count == 2:
            return ":"
        if count <= 5:
            return "*"
        return "@"

    lines = []
    for r in range(height):
        row_cells = []
        for c in range(width):
            on_diag = False
            if diagonal:
                # The cell through which y = x passes in plot coords.
                x_val = lo_x + c / max(width - 1, 1) * span_x
                y_val = lo_y + (height - 1 - r) / \
                    max(height - 1, 1) * span_y
                on_diag = abs(x_val - y_val) <= span_y / height
            row_cells.append(glyph(counts[r, c], on_diag))
        lines.append("|" + "".join(row_cells) + "|")
    top = f"{hi_y:10.3g} +" + "-" * width + "+"
    bottom = f"{lo_y:10.3g} +" + "-" * width + "+"
    footer = (" " * 12 + f"{lo_x:<10.3g}"
              + x_label.center(max(width - 20, 0))
              + f"{hi_x:>10.3g}")
    body = "\n".join(" " * 11 + line for line in lines)
    return f"{y_label}\n{top}\n{body}\n{bottom}\n{footer}"
