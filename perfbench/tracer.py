"""Span recorder for the benchmark's traced run.

The tracer wraps each layer's entry points where their callers look them up:
a function is replaced in every ``careertrace`` module that binds it, and a
method is replaced on its class. Each call records a span (layer, start, end,
parent span, command) in memory; ``self_times`` turns the spans into per-layer
self time. A name that no longer exists marks its layer missing instead of
failing the run, so the traced run survives refactors of the package.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

COMMAND = "cli.command"
COUNTING = "trace.count"

_ROWS = tuple(f"IndicatorEngine.{m}_rows" for m in ("pp10", "share", "intl", "class_intl", "direction"))

# layer -> entry points it covers; "Class.method" names a method
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus.parse": ("parse_corpus",),
    "corpus.validate": ("iter_diagnostics",),
    "timeline.build": ("build_timelines",),
    "mobility.detect": ("detect_moves",),
    "mobility.classify": ("classify",),
    "stocks.statuses": ("build_statuses",),
    "stocks.table": ("stock_table",),
    "indicators.engine": ("IndicatorEngine.__init__",),
    "indicators.baselines": ("citation_baselines",),
    "indicators.top10": ("top10_flags",),
    "indicators.rows": _ROWS,
    "cli.serialize": ("timelines_to_rows", "rows_to_timelines", "states_to_rows", "rows_to_states"),
    "cli.sha256": ("sha256_file",),
    "cli.cache_load": ("Cache.load",),
    "cli.cache_store": ("Cache.store",),
    "report.write": ("write_table",),
    "report.read": ("read_table",),
    "report.render": ("line_chart", "stacked_bar_chart", "render_text_table"),
}


def _tied(weights: dict) -> bool:
    top = max(weights.values())
    return sum(1 for w in weights.values() if w == top) > 1


# entry point -> (count names, function of the entry point's result giving their increments)
COUNTERS = {
    "parse_corpus": (("corpus.records", "corpus.parse_calls"), lambda r: (len(r.records), 1)),
    "build_timelines": (
        ("timeline.positions", "timeline.tied_positions", "timeline.calls"),
        lambda r: (
            sum(len(tl.positions) for tl in r.values()),
            sum(1 for tl in r.values() for p in tl.positions if _tied(p.weights)),
            1,
        ),
    ),
    "detect_moves": (("mobility.moves",), lambda r: (len(r),)),
    "classify": (("mobility.state_rows",), lambda r: (len(r),)),
    "build_statuses": (("stocks.grid_cells", "stocks.statuses_calls"), lambda r: (len(r), 1)),
    "stock_table": (("stocks.cells",), lambda r: (len(r),)),
    **{name: (("indicators.rows",), lambda r: (len(r),)) for name in _ROWS},
}


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores every name."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent span, command span]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # entry points not found in the package
        self.broken_counts: set[str] = set()  # entry points whose result could not be counted
        self.command = -1  # index of the current command's span
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "careertrace" or name.startswith("careertrace."))
        ]
        for layer, names in LAYERS.items():
            for name in names:
                if not self._wrap(layer, name, modules):
                    self.missing.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, modules: list) -> bool:
        if "." in name:
            cls_name, method = name.split(".", 1)
            classes = {
                id(c): c for m in modules
                if isinstance(c := getattr(m, cls_name, None), type) and method in vars(c)
            }
            for cls in classes.values():
                self._patch(cls, method, self._wrapper(layer, name, vars(cls)[method]))
            return bool(classes)
        wrappers: dict[int, object] = {}
        for m in modules:
            fn = vars(m).get(name)
            if not callable(fn):
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrapper(layer, name, fn)
            self._patch(m, name, wrappers[id(fn)])
        return bool(wrappers)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, layer: str, name: str, fn):
        counter = COUNTERS.get(name)
        # a generator's work happens while it is consumed, so consume it inside the span
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(name, counter, result)
            return iter(result) if eager else result

        return traced

    # -- recording --------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.command])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, counter, result) -> None:
        # counting is the tracer's own work: its span keeps it out of the caller's self time
        idx = self._open(COUNTING)
        try:
            keys, count = counter
            self.counts.update(dict(zip(keys, count(result))))
        except (AttributeError, TypeError, ValueError):
            self.broken_counts.add(name)
        finally:
            self._close(idx)

    def run_command(self, run, argv: list[str]) -> int:
        """Run one CLI command under a command span."""
        self.command = len(self.spans)
        idx = self._open(COMMAND)
        try:
            return run(argv)
        finally:
            self._close(idx)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus the part its children cover."""
        children = [0.0] * len(self.spans)
        for _layer, start, end, parent, _cmd in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        totals[COMMAND] = 0.0
        for i, (layer, start, end, _parent, _cmd) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - children[i]
        return totals

    def missing_layers(self) -> set[str]:
        return {layer for layer, names in LAYERS.items() if self.missing & set(names)}

    def missing_counts(self) -> set[str]:
        return {
            key for name, (keys, _count) in COUNTERS.items()
            if name in self.missing or name in self.broken_counts for key in keys
        }
