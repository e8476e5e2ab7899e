"""Terminal rendering of figure results: ASCII line charts and bar charts.

Runs one figure and prints its table (the rows and series the paper's
plots show) followed by a quick visual form for eyeballing shapes (the
per-iteration decay of REX Δ, the Figure 9 frontier spike, log-log
scalability) without leaving the terminal::

    python -m repro.bench.plots fig06
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional

from repro.bench.common import FigureResult, Series

_GLYPHS = "*o+x#@%&"


def line_chart(series: List[Series], width: int = 64, height: int = 16,
               log_y: bool = False, title: str = "") -> str:
    """Plot several series on one grid; x is the sample index (or the
    series' own x values, rank-scaled)."""
    series = [s for s in series if s.values]
    if not series:
        return "(no data)"
    all_y = [v for s in series for v in s.values]
    if log_y:
        floor = math.log10(max(min(all_y), 1e-12))
        ceil = math.log10(max(max(all_y), 1e-12))
    else:
        floor, ceil = min(all_y), max(all_y)
    span = (ceil - floor) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        n = len(s.values)
        for i, v in enumerate(s.values):
            x = round(i / max(n - 1, 1) * (width - 1))
            vy = math.log10(max(v, 1e-12)) if log_y else v
            y = round((vy - floor) / span * (height - 1))
            grid[height - 1 - y][x] = glyph
    lines = []
    if title:
        lines.append(title)
    top = f"{ceil:.3g}" + (" (log10)" if log_y else "")
    lines.append(f"  ┌{'─' * width}┐  y_max={top}")
    for row in grid:
        lines.append("  │" + "".join(row) + "│")
    lines.append(f"  └{'─' * width}┘  y_min={floor:.3g}")
    legend = "   ".join(f"{_GLYPHS[i % len(_GLYPHS)]} {s.label}"
                        for i, s in enumerate(series))
    lines.append(f"  {legend}")
    return "\n".join(lines)


def bar_chart(series: List[Series], width: int = 50,
              title: str = "") -> str:
    """Horizontal bars for single-value series (Figure 4 style)."""
    entries = [(s.label, s.values[0]) for s in series if len(s.values) == 1]
    if not entries:
        return "(no single-value series)"
    peak = max(v for _, v in entries) or 1.0
    label_w = max(len(label) for label, _ in entries)
    lines = [title] if title else []
    for label, value in entries:
        bar = "█" * max(1, round(value / peak * width))
        lines.append(f"  {label:<{label_w}} {bar} {value:.3f}")
    return "\n".join(lines)


def render(result: FigureResult, log_y: bool = False) -> str:
    """Pick a sensible rendering for a figure's series."""
    multi = [s for s in result.series if len(s.values) > 1]
    single = [s for s in result.series if len(s.values) == 1]
    parts = [f"=== {result.figure}: {result.title} ==="]
    if multi:
        cumulative = [s for s in multi if "per-iter" not in s.label]
        per_iter = [s for s in multi if "per-iter" in s.label]
        if cumulative:
            parts.append(line_chart(cumulative, log_y=log_y,
                                    title="cumulative / series"))
        if per_iter:
            parts.append(line_chart(per_iter, log_y=log_y,
                                    title="per-iteration"))
    if single:
        parts.append(bar_chart(single, title="totals"))
    return "\n\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import ALL_FIGURES

    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] not in ALL_FIGURES:
        print(f"usage: python -m repro.bench.plots "
              f"{{{','.join(ALL_FIGURES)}}} [--log]", file=sys.stderr)
        return 2
    log_y = "--log" in argv
    result = ALL_FIGURES[argv[0]]()
    print(result.format_table())
    print()
    print(render(result, log_y=log_y))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
