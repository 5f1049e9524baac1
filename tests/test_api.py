"""The package's top-level names are exactly the README's documented API."""

import re
from pathlib import Path

import careertrace


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


def test_benchmark_entry_points_resolve():
    """Every entry point the benchmark's tracer wraps still exists under its name."""
    import importlib.util

    import careertrace.cli  # noqa: F401 - loads every module the commands use

    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
