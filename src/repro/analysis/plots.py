"""Text rendering of captured time series (the ControlDesk plots).

The paper's evaluation figures are stacked ControlDesk strip charts:
counter values and cumulative detection results over time, x-axis in
10 ms samples.  :func:`render_panels` reproduces that layout as text —
one panel per series, a scaled dot/step chart with min/max annotations —
so every figure of EXPERIMENTS.md is regenerated as readable output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _scale_row(value: float, low: float, high: float, height: int) -> int:
    """Map a value onto a row index (0 = bottom)."""
    if high <= low:
        return 0
    fraction = (value - low) / (high - low)
    return min(height - 1, max(0, int(round(fraction * (height - 1)))))


def resample(values: Sequence[float], width: int) -> List[float]:
    """Down/ up-sample a series to ``width`` points (nearest sample)."""
    if not values or width <= 0:
        return []
    if len(values) <= width:
        return list(values)
    step = len(values) / width
    return [values[min(len(values) - 1, int(i * step))] for i in range(width)]


def panel(
    name: str,
    values: Sequence[float],
    *,
    width: int = 64,
    height: int = 6,
) -> str:
    """One strip-chart panel: scaled step plot with min/max labels."""
    if not values:
        return f"{name}: (no data)"
    resampled = resample(values, width)
    low, high = min(resampled), max(resampled)
    grid = [[" "] * len(resampled) for _ in range(height)]
    previous_row: Optional[int] = None
    for col, value in enumerate(resampled):
        row = _scale_row(value, low, high, height)
        grid[row][col] = "•"
        if previous_row is not None and abs(row - previous_row) > 1:
            lo, hi = sorted((row, previous_row))
            for r in range(lo + 1, hi):
                grid[r][col] = "·"
        previous_row = row
    lines = [f"{name}  [min={low:g} max={high:g}]"]
    for row in range(height - 1, -1, -1):
        label = f"{high:8.2f} |" if row == height - 1 else (
            f"{low:8.2f} |" if row == 0 else "         |"
        )
        lines.append(label + "".join(grid[row]))
    lines.append("         +" + "-" * len(resampled))
    return "\n".join(lines)


def render_panels(
    series: Dict[str, Sequence[float]],
    *,
    width: int = 64,
    height: int = 5,
    title: str = "",
) -> str:
    """Stacked panels, one per series — the ControlDesk layout."""
    parts: List[str] = []
    if title:
        parts.append(f"=== {title} ===")
    for name, values in series.items():
        parts.append(panel(name, values, width=width, height=height))
    return "\n".join(parts)


def format_table(rows: List[Dict[str, object]], *, columns: Optional[List[str]] = None) -> str:
    """Plain-text table from a list of row dicts."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_cell(row.get(c)) for c in columns])
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
