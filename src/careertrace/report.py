"""The report command: a text summary and static SVG charts drawn from the
tables of an ``indicators`` output directory.

Charts are self-contained SVG files written directly (no plotting
dependency) so that identical inputs give identical bytes.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import InvalidConfig, MalformedTable
from .tables import INDICATOR_HEADER, STOCK_HEADER, read_table, write_manifest

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


class _Svg:
    W, H = 880, 460
    X0, Y0, X1, Y1 = 70, 40, W - 230, H - 50  # the plot area's edges; the legend is right of it

    def __init__(self, title: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" height="{self.H}" '
            f'viewBox="0 0 {self.W} {self.H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{self.W}" height="{self.H}" fill="white"/>',
            f'<text x="{self.X0}" y="24" font-size="15" font-weight="bold">{_esc(title)}</text>',
        ]

    def axes(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, x_ticks: bool = True):
        self.parts.append(
            f'<line x1="{self.X0}" y1="{self.Y1}" x2="{self.X1}" y2="{self.Y1}" stroke="black"/>'
            f'<line x1="{self.X0}" y1="{self.Y0}" x2="{self.X0}" y2="{self.Y1}" stroke="black"/>'
        )
        for t in _ticks(y_lo, y_hi):
            py = self._py(t, y_lo, y_hi)
            self.parts.append(
                f'<line x1="{self.X0 - 4}" y1="{py:.1f}" x2="{self.X0}" y2="{py:.1f}" stroke="black"/>'
                f'<text x="{self.X0 - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
            )
        if not x_ticks:
            return
        for t in sorted({round(t) for t in _ticks(x_lo, x_hi)}):
            px = self._px(t, x_lo, x_hi)
            self.parts.append(
                f'<line x1="{px:.1f}" y1="{self.Y1}" x2="{px:.1f}" y2="{self.Y1 + 4}" stroke="black"/>'
                f'<text x="{px:.1f}" y="{self.Y1 + 18}" text-anchor="middle">{int(t)}</text>'
            )

    def _px(self, x: float, lo: float, hi: float) -> float:
        if hi == lo:
            return (self.X0 + self.X1) / 2
        return self.X0 + (x - lo) / (hi - lo) * (self.X1 - self.X0)

    def _py(self, y: float, lo: float, hi: float) -> float:
        if hi == lo:
            return self.Y1
        return self.Y1 - (y - lo) / (hi - lo) * (self.Y1 - self.Y0)

    def legend(self, labels: list[str]) -> None:
        x = self.X1 + 16
        for i, label in enumerate(labels):
            y = self.Y0 + 14 + i * 18
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
    width = (svg.X1 - svg.X0) / max(len(categories), 1)
    bar_w = width * 0.6
    labels = list(stacks)
    for ci, cat in enumerate(categories):
        x = svg.X0 + ci * width + (width - bar_w) / 2
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
            f'<text x="{x + bar_w / 2:.1f}" y="{svg.Y1 + 32}" text-anchor="middle" '
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


# column types of the tables report reads: indicator tables, then stocks.csv
_INDICATOR_TYPES = (str, int, str, str, float)
_STOCK_TYPES = (str, int, float, float, float)
# what a chart's file name may be made of, so that no chart leaves the report directory
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _class_stem(class_key: str) -> str:
    """``Overseas(CHN,USA)`` -> ``Overseas_CHN_USA``, the class's chart file stem."""
    return class_key.replace("(", "_").replace(")", "").replace(",", "_")


def _read_report_table(
    path: Path, expected: list[str], types: tuple, names: Callable[[list[str]], Iterable[str]]
) -> tuple[list[str], list[list[str]], list[list]]:
    """Header, text rows and the rows converted by ``types``; a table report
    cannot read, a header other than ``expected``, or a row whose ``names``
    (the parts of its chart's file name) are not plain, is one error naming
    its file and line."""
    try:
        header, rows = read_table(path)
    except UnicodeDecodeError:
        raise MalformedTable(f"{path}: not valid UTF-8") from None
    if header != expected:
        raise MalformedTable(f"{path}: line 1: header {','.join(header)!r}, expected {','.join(expected)!r}")
    values = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(types):
            raise MalformedTable(f"{path}: line {line_no}: {len(row)} columns, expected {len(types)}")
        try:
            values.append([kind(text) for kind, text in zip(types, row)])
        except ValueError as exc:
            raise MalformedTable(f"{path}: line {line_no}: {exc}") from None
        for name in names(row):
            if not _PLAIN_NAME.fullmatch(name):
                raise MalformedTable(f"{path}: line {line_no}: {name!r} does not make a plain "
                                     "file name (letters, digits, '_' and '-')")
    return header, rows, values


def _chart_indicator_table(values: list[list], out_dir: Path) -> list[str]:
    """Line charts per (metric, counting) found in one indicator table."""
    written = []
    groups: dict[tuple[str, str], dict[str, list[tuple[float, float]]]] = {}
    for population, year, metric, counting, value in values:
        if math.isinf(value):
            continue
        groups.setdefault((metric, counting), {}).setdefault(population, []).append((year, value))
    for (metric, counting), series in sorted(groups.items()):
        name = f"{metric}_{counting}.svg"
        line_chart(out_dir / name, f"{metric} ({counting})", series)
        written.append(name)
    return written


def write_report(src: Path, out_dir: Path) -> None:
    """``summary.txt``, the charts and a manifest in ``out_dir``, from the
    tables found in the indicators directory ``src``."""
    if not src.is_dir():
        raise NotADirectoryError(f"{src} is not a directory")
    if out_dir.resolve() == src.resolve():
        raise InvalidConfig(f"report directory {out_dir} is the indicators directory {src}, "
                            "whose manifest it would replace")
    # every table is read and checked before the first file is written
    tables = [
        (name, _read_report_table(src / f"{name}.csv", INDICATOR_HEADER, _INDICATOR_TYPES,
                                  lambda row: row[2:4]))
        for name in ("pp10", "shares", "intl", "class_intl", "direction", "ratio")
        if (src / f"{name}.csv").exists()
    ]
    stocks_path = src / "stocks.csv"
    stocks = (_read_report_table(stocks_path, STOCK_HEADER, _STOCK_TYPES,
                                 lambda row: [_class_stem(row[0])])
              if stocks_path.exists() else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_parts = []
    charts: list[str] = []
    for name, (header, rows, values) in tables:
        charts.extend(_chart_indicator_table(values, out_dir))
        summary_parts.append(f"== {name} ==\n" + render_text_table(header, rows))
    if stocks is not None:
        header, rows, values = stocks
        summary_parts.append("== stocks ==\n" + render_text_table(header, rows))
        by_class: dict[str, dict[int, tuple[float, float]]] = {}
        for class_key, year, preceding, new, _total in values:
            if class_key.startswith(("Overseas(", "ReturneeResident(")):
                by_class.setdefault(class_key, {})[year] = (preceding, new)
        for class_key in sorted(by_class):
            years = sorted(by_class[class_key])
            name = f"stocks_{_class_stem(class_key)}.svg"
            stacked_bar_chart(
                out_dir / name,
                f"stock of {class_key}: preceding vs new movement",
                [str(y) for y in years],
                {
                    "preceding": [by_class[class_key][y][0] for y in years],
                    "new movement": [by_class[class_key][y][1] for y in years],
                },
            )
            charts.append(name)
    (out_dir / "summary.txt").write_text("\n".join(summary_parts), encoding="utf-8")
    write_manifest(out_dir, "report", {"source": str(src)}, {},
                   [{"stage": "report", "cache": "off", "charts": len(charts)}])
