"""Columnar table output and static vector charts.

Tables are comma-separated with a header row, UTF-8, LF line endings and a
stable column order. Charts are self-contained SVG files written directly
(no plotting dependency) so that identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """One CSV table; the csv module writes floats as their shortest round-trip
    ``repr`` (so infinities as ``inf``/``-inf``) and other values with ``str``.
    Rows are written as they are made; if making one raises, the table is
    removed rather than left cut short."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        except BaseException:
            fh.close()
            Path(path).unlink(missing_ok=True)
            raise


def read_table(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


class _Svg:
    W, H = 880, 460
    LEFT, RIGHT, TOP, BOTTOM = 70, 230, 40, 50

    def __init__(self, title: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" height="{self.H}" '
            f'viewBox="0 0 {self.W} {self.H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{self.W}" height="{self.H}" fill="white"/>',
            f'<text x="{self.LEFT}" y="24" font-size="15" font-weight="bold">{_esc(title)}</text>',
        ]

    def plot_area(self) -> tuple[float, float, float, float]:
        return (
            self.LEFT,
            self.TOP,
            self.W - self.RIGHT,
            self.H - self.BOTTOM,
        )

    def axes(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, x_ticks: bool = True):
        x0, y0, x1, y1 = self.plot_area()
        self.parts.append(
            f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        )
        for t in _ticks(y_lo, y_hi):
            py = self._py(t, y_lo, y_hi)
            self.parts.append(
                f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>'
                f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
            )
        if not x_ticks:
            return
        for t in sorted({round(t) for t in _ticks(x_lo, x_hi)}):
            px = self._px(t, x_lo, x_hi)
            self.parts.append(
                f'<line x1="{px:.1f}" y1="{y1}" x2="{px:.1f}" y2="{y1 + 4}" stroke="black"/>'
                f'<text x="{px:.1f}" y="{y1 + 18}" text-anchor="middle">{int(t)}</text>'
            )

    def _px(self, x: float, lo: float, hi: float) -> float:
        x0, _, x1, _ = self.plot_area()
        if hi == lo:
            return (x0 + x1) / 2
        return x0 + (x - lo) / (hi - lo) * (x1 - x0)

    def _py(self, y: float, lo: float, hi: float) -> float:
        _, y0, _, y1 = self.plot_area()
        if hi == lo:
            return y1
        return y1 - (y - lo) / (hi - lo) * (y1 - y0)

    def legend(self, labels: list[str]) -> None:
        x = self.W - self.RIGHT + 16
        for i, label in enumerate(labels):
            y = self.TOP + 14 + i * 18
            color = PALETTE[i % len(PALETTE)]
            self.parts.append(
                f'<rect x="{x}" y="{y - 9}" width="12" height="12" fill="{color}"/>'
                f'<text x="{x + 18}" y="{y + 2}">{_esc(label)}</text>'
            )

    def write(self, path: str | Path) -> None:
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts) + "\n", encoding="utf-8")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(
    path: str | Path,
    title: str,
    series: dict[str, list[tuple[float, float]]],
) -> None:
    """One polyline per series over a shared year axis."""
    svg = _Svg(title)
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        svg.write(path)
        return
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys) or 1.0
    y_hi *= 1.05
    svg.axes(x_lo, x_hi, y_lo, y_hi)
    labels = list(series)
    for i, label in enumerate(labels):
        pts = sorted(series[label])
        if not pts:
            continue
        coords = " ".join(
            f"{svg._px(x, x_lo, x_hi):.1f},{svg._py(y, y_lo, y_hi):.1f}" for x, y in pts
        )
        color = PALETTE[i % len(PALETTE)]
        svg.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    svg.legend(labels)
    svg.write(path)


def stacked_bar_chart(
    path: str | Path,
    title: str,
    categories: list[str],
    stacks: dict[str, list[float]],
) -> None:
    """One bar per category, stacked segments in ``stacks`` order."""
    svg = _Svg(title)
    if not categories:
        svg.write(path)
        return
    totals = [sum(vals[i] for vals in stacks.values()) for i in range(len(categories))]
    y_hi = (max(totals) or 1.0) * 1.05
    svg.axes(0, len(categories), 0.0, y_hi, x_ticks=False)
    x0, _, x1, y_base = svg.plot_area()
    width = (x1 - x0) / max(len(categories), 1)
    bar_w = width * 0.6
    labels = list(stacks)
    for ci, cat in enumerate(categories):
        x = x0 + ci * width + (width - bar_w) / 2
        y_cursor = 0.0
        for si, label in enumerate(labels):
            v = stacks[label][ci]
            if v <= 0:
                continue
            py_top = svg._py(y_cursor + v, 0.0, y_hi)
            py_bot = svg._py(y_cursor, 0.0, y_hi)
            svg.parts.append(
                f'<rect x="{x:.1f}" y="{py_top:.1f}" width="{bar_w:.1f}" '
                f'height="{py_bot - py_top:.1f}" fill="{PALETTE[si % len(PALETTE)]}"/>'
            )
            y_cursor += v
        svg.parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y_base + 32}" text-anchor="middle" '
            f'font-size="10">{_esc(cat)}</text>'
        )
    svg.legend(labels)
    svg.write(path)


def render_text_table(header: Sequence[str], rows: list[Sequence[str]]) -> str:
    """Fixed-width text rendering for the report summary."""
    cols = [list(map(str, col)) for col in zip(header, *rows)] if rows else [[h] for h in header]
    widths = [max(len(v) for v in col) for col in cols]
    def fmt_row(row: Sequence[str]) -> str:
        return "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
    lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines) + "\n"
