"""Dataset aggregates, the stats sidecar, and heatmaps.

Each record gives one row of METRICS, its complexity then its lengths.
Aggregates are grouped per (size_x, size_y) cell, and each cell is one flat
list ``[count, totals, minima, maxima]`` whose three lists follow METRICS
order. Counts, minima and maxima merge exactly in any order, but a float
total does not: float addition is not associative, so its last bits depend
on the order of the additions. Every total therefore starts at 0.0 and takes
its values one at a time, records in index order and cells in insertion
order. ``sum()`` is never used for a float: from Python 3.12 on it adds with
compensation and rounds differently, and the sidecar bytes must not depend
on the interpreter. Heatmaps are written as a CSV matrix and a standalone
SVG with the training size range outlined in red.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .generate import TEST_PARAMS, TRAIN_PARAMS

METRICS = (
    "complexity",
    "instruction_chars",
    "thought_chars",
    "plan_chars",
    "instruction_words",
    "thought_words",
    "plan_words",
)
_SLOTS = range(len(METRICS))


def _empty_cell() -> list:
    return [0, [0.0] * len(METRICS), [math.inf] * len(METRICS), [-math.inf] * len(METRICS)]


def _fold(cell: list, count: int, totals, minima, maxima) -> None:
    """Fold ``count`` values with these totals and extremes into ``cell`` in place."""
    cell[0] += count
    _, cell_totals, cell_minima, cell_maxima = cell
    for i in _SLOTS:
        cell_totals[i] += totals[i]
        if minima[i] < cell_minima[i]:
            cell_minima[i] = minima[i]
        if maxima[i] > cell_maxima[i]:
            cell_maxima[i] = maxima[i]


@dataclass
class StatsReport:
    """Per-size-cell aggregates: ``cells[(size_x, size_y)] = [count, totals, minima, maxima]``."""

    cells: dict[tuple[int, int], list] = field(default_factory=lambda: defaultdict(_empty_cell))

    def add(self, size_x: int, size_y: int, row: tuple[float, ...]) -> None:
        """Add one record's metric row, in METRICS order."""
        _fold(self.cells[(size_x, size_y)], 1, row, row, row)

    def merge(self, other: "StatsReport") -> "StatsReport":
        for key, cell in other.cells.items():
            _fold(self.cells[key], *cell)
        return self

    def to_json_dict(self) -> dict:
        return json.loads(sidecar_text(self))


def _cell_template(pad: str) -> str:
    """The sidecar text of one cell at indentation ``pad``, with a ``%s``
    for each number: count, mean, min, max and total per metric."""
    inner, leaf = pad + "  ", pad + "    "
    numbers = ("," + leaf).join(f'"{k}": %s' for k in ("count", "mean", "min", "max", "total"))
    metrics = (f'"{metric}": {{{leaf}{numbers}{inner}}}' for metric in METRICS)
    return "{" + inner + ("," + inner).join(metrics) + pad + "}"


_OVERALL_TEMPLATE = _cell_template("\n  ")
_CELL_TEMPLATE = _cell_template("\n    ")


def _cell_text(template: str, cell: list) -> str:
    count, totals, minima, maxima = cell
    if not count:  # the overall cell of an empty report has no mean or extremes
        return template % tuple(v for total in totals for v in (0, "null", "null", "null", total))
    numbers = []
    for total, vmin, vmax in zip(totals, minima, maxima):
        numbers += (count, total / count, vmin, vmax, total)
    return template % tuple(numbers)


def sidecar_text(stats: StatsReport) -> str:
    """The stats sidecar ``generate`` writes and ``verify`` expects, byte for byte.

    These are the bytes json writes with ``indent=2`` and a closing newline
    for ``{"count", "overall", "cells"}``, where each cell holds the count,
    mean, min, max and total of every metric, and a count of 0 has ``null``
    for its mean and extremes; ``tests/oracles.ReferenceStats`` checks them.
    Each cell is formatted from one template, ``str`` spelling each finite
    number as json does, in under half the time of json's pure-Python
    indenting encoder; ``verify`` renders one per sidecar it checks.
    """
    overall = _empty_cell()  # all cells folded into one, in insertion order
    for cell in stats.cells.values():
        _fold(overall, *cell)
    cells = ",".join(f'\n    "{x}x{y}": {_cell_text(_CELL_TEMPLATE, cell)}'
                     for (x, y), cell in sorted(stats.cells.items()))
    cells = f"{{{cells}\n  }}" if cells else "{}"  # json writes an empty object on one line
    return (f'{{\n  "count": {overall[0]},'
            f'\n  "overall": {_cell_text(_OVERALL_TEMPLATE, overall)},'
            f'\n  "cells": {cells}\n}}\n')


TRAIN_SIZE_RANGE = (TRAIN_PARAMS.size_min, TRAIN_PARAMS.size_max)
HEATMAP_SIZE_RANGE = (TEST_PARAMS.size_min, TEST_PARAMS.size_max)


def export_heatmap(
    report: StatsReport, metric: str, out_dir: str | Path
) -> list[Path]:
    """Write ``<metric>.csv`` and ``<metric>.svg`` under ``out_dir``.

    The CSV is a (size_y rows) x (size_x cols) matrix of per-cell means with
    4 fractional digits, blank where no data. The SVG shades the same matrix
    (darker = higher) and outlines the training size range in red.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lo_s, hi_s = HEATMAP_SIZE_RANGE
    sizes = range(lo_s, hi_s + 1)

    i = METRICS.index(metric)
    means = {key: totals[i] / count for key, (count, totals, _, _) in report.cells.items() if count}

    csv_path = out / f"{metric}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + [str(x) for x in sizes])
        for y in sizes:
            row = [str(y)]
            for x in sizes:
                v = means.get((x, y))
                row.append("" if v is None else f"{v:.4f}")
            writer.writerow(row)

    svg_path = out / f"{metric}.svg"
    svg_path.write_text(_heatmap_svg(means, metric))
    return [csv_path, svg_path]


def _shade(t: float) -> str:
    # light-to-dark blue ramp
    lo, hi = (247, 251, 255), (8, 48, 107)
    r, g, b = (round(a + (b_ - a) * t) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def _heatmap_svg(means: dict[tuple[int, int], float], metric: str) -> str:
    lo_s, hi_s = HEATMAP_SIZE_RANGE
    n = hi_s - lo_s + 1
    cell = 26
    left, top = 56, 40
    right, bottom = 96, 48
    width = left + n * cell + right
    height = top + n * cell + bottom

    vmin = min(means.values()) if means else 0.0
    vmax = max(means.values()) if means else 1.0
    spread = (vmax - vmin) or 1.0

    def cx(size_x: int) -> int:
        return left + (size_x - lo_s) * cell

    def cy(size_y: int) -> int:
        # larger size_y drawn higher up
        return top + (hi_s - size_y) * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + n * cell / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="14">{metric} (mean)</text>',
    ]
    for (x, y), v in sorted(means.items()):
        if not (lo_s <= x <= hi_s and lo_s <= y <= hi_s):
            continue
        t = (v - vmin) / spread
        parts.append(
            f'<rect x="{cx(x)}" y="{cy(y)}" width="{cell}" height="{cell}" '
            f'fill="{_shade(t)}"><title>{x}x{y}: {v:.4f}</title></rect>'
        )
    # training size range outline
    t_lo, t_hi = TRAIN_SIZE_RANGE
    parts.append(
        f'<rect x="{cx(t_lo)}" y="{cy(t_hi)}" width="{(t_hi - t_lo + 1) * cell}" '
        f'height="{(t_hi - t_lo + 1) * cell}" fill="none" stroke="red" stroke-width="2.5"/>'
    )
    for s in range(lo_s, hi_s + 1, 2):
        parts.append(
            f'<text x="{cx(s) + cell / 2:.0f}" y="{top + n * cell + 18}" '
            f'text-anchor="middle">{s}</text>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{cy(s) + cell / 2 + 4:.0f}" '
            f'text-anchor="end">{s}</text>'
        )
    parts.append(
        f'<text x="{left + n * cell / 2:.0f}" y="{height - 10}" '
        f'text-anchor="middle">size_x</text>'
    )
    parts.append(
        f'<text x="16" y="{top + n * cell / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + n * cell / 2:.0f})">size_y</text>'
    )
    # colorbar
    bar_x = left + n * cell + 24
    parts.append(
        '<defs><linearGradient id="ramp" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{_shade(0.0)}"/>'
        f'<stop offset="1" stop-color="{_shade(1.0)}"/>'
        "</linearGradient></defs>"
    )
    parts.append(
        f'<rect x="{bar_x}" y="{top}" width="14" height="{n * cell}" '
        'fill="url(#ramp)" stroke="black" stroke-width="0.5"/>'
    )
    parts.append(f'<text x="{bar_x + 20}" y="{top + 10}">{vmax:.2f}</text>')
    parts.append(f'<text x="{bar_x + 20}" y="{top + n * cell}">{vmin:.2f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
