"""careertrace command line: validate, timelines, moves, stocks, indicators,
synth and report subcommands.

Data outputs are deterministic: fixed inputs and configuration produce
byte-identical files regardless of input line order. Every output
directory carries exactly one ``manifest.json`` (file outputs get a
``<name>.manifest.json`` sidecar) echoing the effective configuration,
input hashes and per-stage cache usage. A command that ends on a data,
table or configuration error writes no output file: every stage runs,
and every input table is checked, before the first one is written.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .corpus import default_scheme_path, iter_diagnostics, load_scheme, open_corpus
from .errors import CareerTraceError, InvalidConfig, MalformedTable
from .mobility import HOST_ATTRIBUTIONS
from .pipeline import (
    ALL_METRICS,
    MOVE_HEADER,
    STATE_HEADER,
    STOCK_HEADER,
    TIMELINE_HEADER,
    Cache,
    Pipeline,
    RunConfig,
    load_run_config,
    moves_to_rows,
    parse_metrics,
    read_config_text,
    sha256_file,
    states_to_rows,
    stocks_to_rows,
    timelines_to_rows,
)
from .report import (
    line_chart,
    read_table,
    render_text_table,
    stacked_bar_chart,
    write_table,
)
from .timeline import TIE_RULES


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_run_config(args.config).items():
            setattr(cfg, key, value)
    for field in fields(RunConfig):  # every flag defaults to None, so a set flag wins
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    if not cfg.metrics:
        raise InvalidConfig(f"metrics must name at least one of: {', '.join(ALL_METRICS)}")
    unknown = set(cfg.metrics) - set(ALL_METRICS)
    if unknown:
        raise InvalidConfig(f"unknown metrics {sorted(unknown)}; known: {', '.join(ALL_METRICS)}")
    if cfg.host_attribution not in HOST_ATTRIBUTIONS:
        raise InvalidConfig(f"host_attribution must be {' or '.join(map(repr, HOST_ATTRIBUTIONS))}")
    if cfg.tie_rule not in TIE_RULES:
        raise InvalidConfig(f"tie_rule must be {' or '.join(map(repr, TIE_RULES))}")
    if cfg.grace_years < 0:
        raise InvalidConfig("grace_years must be >= 0")
    if (cfg.year_min is None) != (cfg.year_max is None):
        raise InvalidConfig("year_min and year_max must be set together")
    if cfg.window is not None and cfg.year_min > cfg.year_max:
        raise InvalidConfig(f"year_min {cfg.year_min} is after year_max {cfg.year_max}")
    return cfg


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def write_manifest(
    path: Path,
    subcommand: str,
    config: dict,
    inputs: dict[str, str],
    stages: list[dict],
) -> None:
    obj = {
        "tool": "careertrace",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "config": config,
        "stages": stages,
        "timestamp": utc_now(),
    }
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _add_common(parser: argparse.ArgumentParser, output: str | None = None) -> None:
    parser.add_argument("corpus", help="line-delimited corpus file")
    parser.add_argument("--scheme", default=None, help="region scheme JSON file")
    parser.add_argument("--config", default=None, help="run configuration file (key = value)")
    parser.add_argument("--year-min", type=int, default=None, dest="year_min")
    parser.add_argument("--year-max", type=int, default=None, dest="year_max")
    if output:  # commands that write tables build cacheable stages; validate does neither
        parser.add_argument("-o", "--output", required=True, help=output)
        parser.add_argument("--no-cache", action="store_true", help="bypass the table cache")
        parser.add_argument("--cache-dir", default=None, help="cache directory")


def _add_home_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--home", default=None, help="home region label (default CHN)")
    parser.add_argument("--end-year", type=int, default=None, dest="end_year",
                        help="observation horizon for the trailing grace rule")
    parser.add_argument("--grace", type=int, default=None, dest="grace_years",
                        help="trailing grace years before retirement")
    parser.add_argument("--host-attribution", choices=HOST_ATTRIBUTIONS, default=None,
                        dest="host_attribution")
    parser.add_argument("--tie-rule", choices=TIE_RULES, default=None,
                        dest="tie_rule", help="dominant-region tie handling")
    parser.add_argument("--intl-requires-distinct-authors", action="store_true", default=None,
                        dest="intl_requires_distinct_authors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="careertrace",
        description="career timelines, mobility, stocks and indicators from publication metadata",
    )
    parser.add_argument("--version", action="version", version=f"careertrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file")
    _add_common(p)

    p = sub.add_parser("timelines", help="write the author-year position table")
    _add_common(p, output="output CSV file")
    p.add_argument("--tie-rule", choices=TIE_RULES, default=None,
                   dest="tie_rule", help="dominant-region tie handling")

    p = sub.add_parser("moves", help="write move and mobility-state tables")
    _add_common(p, output="output directory")
    _add_home_opts(p)

    p = sub.add_parser("stocks", help="write the stock table (class, year, preceding, new)")
    _add_common(p, output="output CSV file")
    _add_home_opts(p)

    p = sub.add_parser("indicators", help="write indicator tables")
    _add_common(p, output="output directory")
    _add_home_opts(p)
    p.add_argument("--metrics", type=parse_metrics, default=None,
                   help=f"comma list from: {', '.join(ALL_METRICS)}")

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--config", default=None, help="scenario config JSON file")
    p.add_argument("--scheme", default=None, help="region scheme JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--n-authors", type=int, default=None, dest="n_authors")
    p.add_argument("-o", "--output", required=True, help="corpus output file")
    p.add_argument("--truth", required=True, help="ground-truth output file")
    p.add_argument("--gap-probability", type=float, default=0.0, dest="gap_probability")
    p.add_argument("--dual-affiliation-probability", type=float, default=0.0,
                   dest="dual_affiliation_probability")

    p = sub.add_parser("report", help="render tables and SVG charts from an indicators directory")
    p.add_argument("directory", help="indicators output directory")
    p.add_argument("-o", "--output", default=None, help="report directory (default <dir>/report)")

    return parser


def _scheme_path(args: argparse.Namespace) -> Path:
    return Path(args.scheme) if getattr(args, "scheme", None) else default_scheme_path()


def _make_pipeline(args: argparse.Namespace) -> Pipeline:
    cfg = build_run_config(args)
    cache_root = Path(args.cache_dir) if args.cache_dir else Path.home() / ".cache" / "careertrace"
    cache = None if args.no_cache else Cache(cache_root)
    return Pipeline(Path(args.corpus), _scheme_path(args), cfg, cache)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    load_scheme(_scheme_path(args))  # the records need no scheme, but a bad --scheme is an error
    problems = 0
    with open_corpus(args.corpus) as fh:
        for diag in iter_diagnostics(fh, cfg.window):
            print(f"careertrace: {args.corpus}: {diag}", file=sys.stderr)
            problems += 1
    if problems:
        print(f"careertrace: {args.corpus}: {problems} problem(s) found", file=sys.stderr)
        return 1
    return 0


def cmd_timelines(args: argparse.Namespace) -> int:
    pipe = _make_pipeline(args)
    timelines = pipe.timelines()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, TIMELINE_HEADER, timelines_to_rows(timelines, pipe.scheme))
    write_manifest(out.with_name(out.name + ".manifest.json"), "timelines",
                   pipe.cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_moves(args: argparse.Namespace) -> int:
    pipe = _make_pipeline(args)
    moves, states, timelines = pipe.moves(), pipe.states(), pipe.timelines()
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(out_dir / "moves.csv", MOVE_HEADER, moves_to_rows(moves))
    write_table(out_dir / "states.csv", STATE_HEADER, states_to_rows(states))
    # classes follow move patterns only; the origin table lets consumers
    # break any population down by where a career started
    origin_rows = (
        [a, timelines[a].origin_region, "1" if timelines[a].origin_ambiguous else "0"]
        for a in sorted(timelines)
    )
    write_table(out_dir / "origins.csv", ["author_id", "origin", "origin_ambiguous"], origin_rows)
    write_manifest(out_dir / "manifest.json", "moves",
                   pipe.cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_stocks(args: argparse.Namespace) -> int:
    pipe = _make_pipeline(args)
    cells = pipe.stock_cells()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, STOCK_HEADER, stocks_to_rows(cells))
    write_manifest(out.with_name(out.name + ".manifest.json"), "stocks",
                   pipe.cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_indicators(args: argparse.Namespace) -> int:
    from .indicators import INDICATOR_HEADER, IndicatorEngine, ratio_rows  # only this command needs it

    pipe = _make_pipeline(args)
    cfg = pipe.cfg
    want = set(cfg.metrics)
    # every stage runs before the output directory is made; a table's rows
    # are built only while it is written
    build: dict[str, Callable[[], Iterable]] = {}
    if want & {"pp10", "shares", "intl", "class_intl", "direction"}:
        # the engine keeps no record, so the corpus is freed when it returns
        engine = IndicatorEngine(*pipe.engine_inputs(), cfg.home, cfg.intl_requires_distinct_authors)
        pipe.stages.append({"stage": "indicators", "cache": "off"})
        build.update(pp10=engine.pp10_rows, shares=engine.share_rows, intl=engine.intl_rows,
                     class_intl=engine.class_intl_rows, direction=engine.direction_rows)
    if want & {"stocks", "ratio"}:
        cells = pipe.stock_cells()
        hosts = [r for r in pipe.scheme.labels if r != cfg.home]
        build.update(stocks=lambda: stocks_to_rows(cells),
                     ratio=lambda: ratio_rows(cells, cfg.home, hosts))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric, rows in build.items():
        if metric in want:
            header = STOCK_HEADER if metric == "stocks" else INDICATOR_HEADER
            write_table(out_dir / f"{metric}.csv", header, rows())
    write_manifest(out_dir / "manifest.json", "indicators", cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import ScenarioConfig, degrade, generate  # only this command needs it

    if args.config:
        text = read_config_text(args.config)
        try:
            config = ScenarioConfig.from_json(text)
        except InvalidConfig as exc:
            raise InvalidConfig(f"{args.config}: {exc}") from None
    else:
        config = ScenarioConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.n_authors is not None:
        config.n_authors = args.n_authors
    scheme_path = _scheme_path(args)
    scheme = load_scheme(scheme_path)
    corpus, truth = generate(config, scheme)
    if args.gap_probability or args.dual_affiliation_probability:
        corpus = degrade(
            corpus,
            truth,
            gap_probability=args.gap_probability,
            dual_affiliation_probability=args.dual_affiliation_probability,
            seed=config.seed,
        )
    out = Path(args.output)
    _write_lines(out, corpus.dump_lines())
    _write_lines(Path(args.truth), truth.dump_lines())
    manifest_config = json.loads(config.to_json())
    manifest_config["gap_probability"] = args.gap_probability
    manifest_config["dual_affiliation_probability"] = args.dual_affiliation_probability
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "synth",
        manifest_config,
        {"scheme": str(scheme_path), "scheme_sha256": sha256_file(scheme_path)},
        [{"stage": "generate", "cache": "off"}],
    )
    return 0


# column types of the tables report reads: indicator tables, then stocks.csv
_INDICATOR_TYPES = (str, int, str, str, float)
_STOCK_TYPES = (str, int, float, float, float)
# what a chart's file name may be made of, so that no chart leaves the report directory
_PLAIN_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _class_stem(class_key: str) -> str:
    """``Overseas(CHN,USA)`` -> ``Overseas_CHN_USA``, the class's chart file stem."""
    return class_key.replace("(", "_").replace(")", "").replace(",", "_")


def _read_report_table(
    path: Path, types: tuple, names: Callable[[list[str]], Iterable[str]]
) -> tuple[list[str], list[list[str]], list[list]]:
    """Header, text rows and the rows converted by ``types``; a table report
    cannot read, or a row whose ``names`` (the parts of its chart's file name)
    are not plain, is one error naming its file and line."""
    try:
        header, rows = read_table(path)
    except UnicodeDecodeError:
        raise MalformedTable(f"{path}: not valid UTF-8") from None
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


def cmd_report(args: argparse.Namespace) -> int:
    src = Path(args.directory)
    if not src.is_dir():
        print(f"careertrace: error: {src} is not a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.output) if args.output else src / "report"
    # every table is read and checked before the first file is written
    tables = [
        (name, _read_report_table(src / f"{name}.csv", _INDICATOR_TYPES, lambda row: row[2:4]))
        for name in ("pp10", "shares", "intl", "class_intl", "direction", "ratio")
        if (src / f"{name}.csv").exists()
    ]
    stocks_path = src / "stocks.csv"
    stocks = (_read_report_table(stocks_path, _STOCK_TYPES, lambda row: [_class_stem(row[0])])
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
            by_class.setdefault(class_key, {})[year] = (preceding, new)
        for class_key in sorted(by_class):
            if not (class_key.startswith("Overseas(") or class_key.startswith("ReturneeResident(")):
                continue
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
    write_manifest(
        out_dir / "manifest.json",
        "report",
        {"source": str(src)},
        {},
        [{"stage": "report", "cache": "off", "charts": len(charts)}],
    )
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "timelines": cmd_timelines,
    "moves": cmd_moves,
    "stocks": cmd_stocks,
    "indicators": cmd_indicators,
    "synth": cmd_synth,
    "report": cmd_report,
}


def run(argv: list[str]) -> int:
    # A command's records, positions and states form no reference cycles,
    # so the cyclic collector would only rescan them. Reference counting
    # frees the records once the pipeline's last reader drops them, and the
    # rest when the command ends. The caller's collector state comes back as
    # it was, because tests and the benchmark's traced run call run in-process.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return _COMMANDS[args.command](args)
        except (CareerTraceError, OSError) as exc:
            print(f"careertrace: error: {exc}", file=sys.stderr)
            return 1
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
