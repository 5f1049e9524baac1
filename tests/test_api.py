"""The package's top-level names are exactly the README's documented API, and the
benchmark tracer's entry points and counters resolve against the package."""

import re
from pathlib import Path

import careertrace
from careertrace.cli import run

from conftest import lines, rec


def readme_api() -> set[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from careertrace import \(([^)]*)\)", readme)
    assert block is not None, "README has no `from careertrace import (...)` block"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_all_matches_readme_api():
    documented = readme_api()
    assert documented
    assert set(careertrace.__all__) - {"__version__"} == documented
    for name in careertrace.__all__:
        assert hasattr(careertrace, name), name


def load_tracer_module():
    """The benchmark's ``perfbench/tracer.py``, loaded by path."""
    import importlib.util

    import careertrace.cli  # noqa: F401 - loads every module the commands use
    import careertrace.indicators  # noqa: F401 - loaded by the indicators command only

    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_benchmark_entry_points_resolve():
    """Every entry point the benchmark's tracer wraps still exists under its name."""
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_benchmark_counters_count_every_command(tmp_path):
    """The traced commands give every counter a value, and the stock grid
    counts one cell per author-year from each career's start to the end year."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines(
        rec("p1", 2005, [("a1", ["CHN"])], cites=3),
        rec("p2", 2007, [("a1", ["USA"])], cites=1),
        rec("p3", 2014, [("a1", ["CHN"]), ("a2", ["CHN"])], cites=8),
        rec("p4", 2014, [("a2", ["CHN"]), ("a3", ["USA"])], cites=2),
    )) + "\n", encoding="utf-8")
    c, cache = str(corpus), ["--cache-dir", str(tmp_path / "cache")]
    ind = str(tmp_path / "ind")
    commands = [
        ["validate", c],
        ["timelines", c, "-o", str(tmp_path / "t.csv"), "--no-cache"],
        ["moves", c, "-o", str(tmp_path / "moves"), "--no-cache"],
        ["stocks", c, "-o", str(tmp_path / "s.csv"), "--no-cache", "--end-year", "2016"],
        ["indicators", c, "-o", str(tmp_path / "cold"), "--no-cache", "--end-year", "2016"],
        ["indicators", c, "-o", ind, *cache, "--end-year", "2016"],  # cache miss: builds
        ["indicators", c, "-o", ind, *cache, "--end-year", "2016"],  # cache hit: loads
        ["report", ind],
    ]
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for argv in commands:
            assert tracer.run_command(run, argv) == 0, argv
    finally:
        tracer.uninstall()
    assert tracer.broken_counts == set()
    assert tracer.missing_counts() == set()
    counters = {key for keys, _count in tracer_module.COUNTERS.values() for key in keys}
    assert counters <= set(tracer.counts)
    # a1 2005-2016, a2 and a3 2014-2016; built by stocks, the cold and the cache-miss run
    assert tracer.counts["stocks.statuses_calls"] == 3
    assert tracer.counts["stocks.grid_cells"] == 3 * (12 + 3 + 3)
