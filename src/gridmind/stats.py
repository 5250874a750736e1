"""Path complexity, dataset aggregates, and heatmap export.

Complexity measures how much choice the solution path offers: the sum over
its states (goal excluded) of the natural log of the number of valid moves.
A corridor contributes nothing; every binary fork adds ln 2 (about 0.69).

Aggregates are grouped per (size_x, size_y) cell. Their counts, minima and
maxima merge exactly in any order, but a float total does not: float
addition is not associative, so its last bits depend on the order of the
additions. Records are therefore added in index order, which keeps the stats
sidecar byte-identical across reruns. Heatmaps are written as a CSV matrix and
a standalone SVG with the training size range outlined in red.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .grid import GridSpec

METRICS = (
    "complexity",
    "instruction_chars",
    "thought_chars",
    "plan_chars",
    "instruction_words",
    "thought_words",
    "plan_words",
)


def complexity(spec: GridSpec) -> float:
    """Sum of ln(number of valid moves) over solution states, goal excluded.

    Computed once per spec and kept on it, beside its solution.
    """
    return spec._complexity


@dataclass
class MetricAgg:
    """Count, total, min and max of one metric.

    ``merge`` is exact for count, min and max; the float ``total`` of a merge
    can differ in its last bits from adding the same values one by one.
    """

    count: int = 0
    total: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def merge(self, other: "MetricAgg") -> None:
        self.count += other.count
        self.total += other.total
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "total": self.total,
        }


@dataclass
class StatsReport:
    """Per-size-cell aggregates for every metric in METRICS."""

    cells: dict[tuple[int, int], dict[str, MetricAgg]] = field(default_factory=dict)

    def _cell(self, size_x: int, size_y: int) -> dict[str, MetricAgg]:
        key = (size_x, size_y)
        if key not in self.cells:
            self.cells[key] = {m: MetricAgg() for m in METRICS}
        return self.cells[key]

    def add(self, size_x: int, size_y: int, values: dict[str, float]) -> None:
        cell = self._cell(size_x, size_y)
        for metric, value in values.items():
            cell[metric].add(value)

    def merge(self, other: "StatsReport") -> "StatsReport":
        for key, metrics in other.cells.items():
            cell = self._cell(*key)
            for metric, agg in metrics.items():
                cell[metric].merge(agg)
        return self

    def overall(self, metric: str) -> MetricAgg:
        """Merge of the metric's aggregates across all cells."""
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        total = MetricAgg()
        for metrics in self.cells.values():
            total.merge(metrics[metric])
        return total

    @property
    def count(self) -> int:
        return sum(m["complexity"].count for m in self.cells.values())

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "overall": {m: self.overall(m).to_dict() for m in METRICS},
            "cells": {
                f"{x}x{y}": {m: agg.to_dict() for m, agg in metrics.items()}
                for (x, y), metrics in sorted(self.cells.items())
            },
        }


def record_metrics(record) -> tuple[int, int, dict[str, float]]:
    """Extract (size_x, size_y, metric values) from a record object or dict.

    The sizes and lengths must be exactly ints and the complexity a finite
    float; anything else raises ValueError. The record decoder relies on
    this check too, so it is the one place that holds the rule.
    """
    try:
        if isinstance(record, dict):
            spec = record["spec"]
            size_x, size_y = spec["size_x"], spec["size_y"]
            comp = record["complexity"]
            lengths = record["lengths"]
        else:
            size_x, size_y = record.spec.size_x, record.spec.size_y
            comp = record.complexity
            lengths = record.lengths
        if type(comp) is not float or not math.isfinite(comp):
            raise TypeError(f"complexity {comp!r} is not a finite float")
        values = {"complexity": comp}
        for metric in METRICS[1:]:
            if type(n := lengths[metric]) is not int:
                raise TypeError(f"lengths hold a value that is not an int: {metric}={n!r}")
            values[metric] = float(n)
        if type(size_x) is not int or type(size_y) is not int:
            raise TypeError(f"size {size_x!r}x{size_y!r} is not a pair of ints")
    except (KeyError, AttributeError, TypeError, OverflowError) as exc:
        raise ValueError(f"record does not match the dataset schema: {exc}") from exc
    return size_x, size_y, values


TRAIN_SIZE_RANGE = (2, 10)
HEATMAP_SIZE_RANGE = (2, 20)


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

    means: dict[tuple[int, int], float] = {}
    for (x, y), metrics in report.cells.items():
        agg = metrics[metric]
        if agg.count:
            means[(x, y)] = agg.mean

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
