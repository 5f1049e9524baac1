"""The package's top-level names are exactly the README's documented API, the
pipeline loads without the report module, the indicator header matches the
engine's rows, only the stocks module binds the status grid, and the
benchmark tracer's entry points and counters resolve against the package."""

import ast
import re
from pathlib import Path

import careertrace
from careertrace.cli import run
from careertrace.indicators import IndicatorRow
from careertrace.tables import INDICATOR_HEADER, read_table

from conftest import lines, rec, run_fresh

README = Path(__file__).parent.parent / "README.md"


def readme_api() -> set[str]:
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"from careertrace import \(([^)]*)\)", readme)
    assert block is not None, "README has no `from careertrace import (...)` block"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_all_matches_readme_api():
    documented = readme_api()
    assert documented
    assert set(careertrace.__all__) - {"__version__"} == documented
    for name in careertrace.__all__:
        assert hasattr(careertrace, name), name


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    """The README's Python API block runs on the Quick start corpus, and its
    last line is the class key ``moves`` writes for that author's first year."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README has no python block"
    *body, last = ast.parse(block.group(1)).body
    assert isinstance(last, ast.Expr)
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--seed", "7", "--n-authors", "500",
                "-o", "corpus.jsonl", "--truth", "truth.jsonl"]) == 0
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    klass = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    assert run(["moves", "corpus.jsonl", "--home", "CHN", "-o", "moves", "--no-cache"]) == 0
    _header, rows = read_table("moves/states.csv")
    assert klass == next(row[2] for row in rows if row[0] == "a000042")


def test_pipeline_loads_without_the_report_module():
    """The table format and the manifest live in ``tables``, so a fresh
    interpreter that imports the pipeline has not loaded the report's charts."""
    code = "import sys, careertrace.pipeline; sys.exit('careertrace.report' in sys.modules)"
    assert run_fresh(code).returncode == 0


def test_indicator_header_is_the_engine_row():
    """``tables`` holds the indicator header without importing the engine's
    module, so that ``report`` does not load it; the two must agree."""
    assert INDICATOR_HEADER == list(IndicatorRow._fields)


def test_only_the_stocks_module_binds_the_status_grid():
    """``stocks`` owns the countable-years rule: with the cli and every module
    a command loads lazily imported, no other module binds ``build_statuses``."""
    code = ("import sys, careertrace.cli, careertrace.indicators, careertrace.pipeline, "
            "careertrace.synth\n"
            "print(*sorted(name for name, m in sys.modules.items()\n"
            "              if name.split('.')[0] == 'careertrace' and 'build_statuses' in vars(m)))")
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["careertrace.stocks"]


def load_tracer_module():
    """The benchmark's ``perfbench/tracer.py``, loaded by path."""
    import importlib.util

    # the modules the benchmark process holds when it installs the tracer,
    # whichever test modules were collected first
    import careertrace.cli  # noqa: F401
    import careertrace.config  # noqa: F401
    import careertrace.indicators  # noqa: F401 - loaded by the indicators command only
    import careertrace.pipeline  # noqa: F401 - loaded by the commands that run stages
    import careertrace.report  # noqa: F401
    import careertrace.tables  # noqa: F401

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
