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
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from . import __version__
from .config import ALL_METRICS, RunConfig, load_run_config, parse_metrics, read_config_text
from .corpus import default_scheme_path, iter_diagnostics, load_scheme, open_corpus
from .errors import CareerTraceError, InvalidConfig
from .mobility import HOST_ATTRIBUTIONS
from .report import write_report  # loaded eagerly: the benchmark's tracer wraps its charts
from .tables import (
    INDICATOR_HEADER,
    MOVE_HEADER,
    STATE_HEADER,
    STOCK_HEADER,
    TIMELINE_HEADER,
    write_manifest,
    write_table,
)
from .timeline import TIE_RULES

if TYPE_CHECKING:
    from .pipeline import Pipeline


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_run_config(args.config).items():
            setattr(cfg, key, value)
    for name in RunConfig._fields:  # every flag defaults to None, so a set flag wins
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
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


def _add_common(parser: argparse.ArgumentParser, output: str | None = None) -> None:
    parser.add_argument("corpus", help="line-delimited corpus file")
    parser.add_argument("--scheme", default=None, help="region scheme JSON file")
    parser.add_argument("--config", default=None, help="run configuration file (key = value)")
    parser.add_argument("--year-min", type=int, default=None, dest="year_min")
    parser.add_argument("--year-max", type=int, default=None, dest="year_max")
    if output:  # commands that write tables build timelines and cache stages; validate does neither
        parser.add_argument("-o", "--output", required=True, help=output)
        parser.add_argument("--no-cache", action="store_true", help="bypass the table cache")
        parser.add_argument("--cache-dir", default=None, help="cache directory")
        parser.add_argument("--tie-rule", choices=TIE_RULES, default=None,
                            dest="tie_rule", help="dominant-region tie handling")


def _add_home_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--home", default=None, help="home region label (default CHN)")
    parser.add_argument("--end-year", type=int, default=None, dest="end_year",
                        help="observation horizon for the trailing grace rule")
    parser.add_argument("--grace", type=int, default=None, dest="grace_years",
                        help="trailing grace years before retirement")
    parser.add_argument("--host-attribution", choices=HOST_ATTRIBUTIONS, default=None,
                        dest="host_attribution")
    parser.add_argument("--intl-requires-distinct-authors", action="store_true", default=None,
                        dest="intl_requires_distinct_authors")


def _add_timelines(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, output="output CSV file")


def _add_moves(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, output="output directory")
    _add_home_opts(parser)


def _add_stocks(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, output="output CSV file")
    _add_home_opts(parser)


def _add_indicators(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, output="output directory")
    _add_home_opts(parser)
    parser.add_argument("--metrics", type=parse_metrics, default=None,
                        help=f"comma list from: {', '.join(ALL_METRICS)}")


def _add_synth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="scenario config JSON file")
    parser.add_argument("--scheme", default=None, help="region scheme JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--n-authors", type=int, default=None, dest="n_authors")
    parser.add_argument("-o", "--output", required=True, help="corpus output file")
    parser.add_argument("--truth", required=True, help="ground-truth output file")
    parser.add_argument("--gap-probability", type=float, default=0.0, dest="gap_probability")
    parser.add_argument("--dual-affiliation-probability", type=float, default=0.0,
                        dest="dual_affiliation_probability")


def _add_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory", help="indicators output directory")
    parser.add_argument("-o", "--output", default=None, help="report directory (default <dir>/report)")


# subcommand -> (help, its arguments), in the order -h lists them
_SUBPARSERS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "validate": ("validate a corpus file", _add_common),
    "timelines": ("write the author-year position table", _add_timelines),
    "moves": ("write move and mobility-state tables", _add_moves),
    "stocks": ("write the stock table (class, year, preceding, new)", _add_stocks),
    "indicators": ("write indicator tables", _add_indicators),
    "synth": ("generate a synthetic corpus with ground truth", _add_synth),
    "report": ("render tables and SVG charts from an indicators directory", _add_report),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. When ``command`` names a subcommand, only its
    subparser is built, which is all that parsing that command's arguments
    needs; otherwise every subparser is."""
    parser = argparse.ArgumentParser(
        prog="careertrace",
        description="career timelines, mobility, stocks and indicators from publication metadata",
    )
    parser.add_argument("--version", action="version", version=f"careertrace {__version__}")
    names = [command] if command in _SUBPARSERS else list(_SUBPARSERS)
    # with one subparser built, the usage line a later error prints still names every command
    metavar = None if len(names) > 1 else "{" + ",".join(_SUBPARSERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _SUBPARSERS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _scheme_path(args: argparse.Namespace) -> Path:
    return Path(args.scheme) if getattr(args, "scheme", None) else default_scheme_path()


def _make_pipeline(args: argparse.Namespace) -> Pipeline:
    from .pipeline import Cache, Pipeline  # only the commands that run stages load it

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
    from .pipeline import timelines_to_rows

    pipe = _make_pipeline(args)
    timelines = pipe.timelines()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, TIMELINE_HEADER, timelines_to_rows(timelines, pipe.scheme))
    write_manifest(out.with_name(out.name + ".manifest.json"), "timelines",
                   pipe.cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_moves(args: argparse.Namespace) -> int:
    from .pipeline import moves_to_rows, states_to_rows

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
    from .pipeline import stocks_to_rows

    pipe = _make_pipeline(args)
    cells = pipe.stock_cells()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, STOCK_HEADER, stocks_to_rows(cells))
    write_manifest(out.with_name(out.name + ".manifest.json"), "stocks",
                   pipe.cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_indicators(args: argparse.Namespace) -> int:
    from .indicators import IndicatorEngine, ratio_rows  # only this command needs it
    from .pipeline import stocks_to_rows

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
    from .pipeline import sha256_file
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


def cmd_report(args: argparse.Namespace) -> int:
    src = Path(args.directory)
    write_report(src, Path(args.output) if args.output else src / "report")
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
        parser = build_parser(argv[0] if argv else None)
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
