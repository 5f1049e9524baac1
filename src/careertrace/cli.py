"""careertrace command line: validate, timelines, moves, stocks, indicators,
synth and report subcommands.

Data outputs are deterministic: fixed inputs and configuration produce
byte-identical files regardless of input line order. Every output
directory carries exactly one ``manifest.json`` (file outputs get a
``<name>.manifest.json`` sidecar) echoing the effective configuration,
input hashes and per-stage cache usage.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corpus import (
    Corpus,
    RegionScheme,
    default_scheme_path,
    iter_diagnostics,
    load_corpus,
    load_scheme,
    open_corpus,
)
from .errors import CareerTraceError, InvalidConfig, UndefinedRatio
from .indicators import IndicatorEngine, IndicatorRow
from .mobility import MobilityClass, MobilityState, MoveEvent, classify, detect_moves
from .report import (
    line_chart,
    read_table,
    render_text_table,
    stacked_bar_chart,
    write_table,
)
from .stocks import (
    DEFAULT_GRACE_YEARS,
    StockCell,
    build_statuses,
    return_ratio,
    stock_lookup,
    stock_table,
)
from .synth import ScenarioConfig, degrade, generate
from .timeline import CareerTimeline, YearPosition, build_timelines

ALL_METRICS = ("pp10", "shares", "intl", "class_intl", "direction", "stocks", "ratio")


@dataclass
class RunConfig:
    """Effective run configuration; file values are overridden by flags."""

    home: str = "CHN"
    end_year: int | None = None
    grace_years: int = DEFAULT_GRACE_YEARS
    host_attribution: str = "latest"
    tie_rule: str = "hysteresis"
    intl_requires_distinct_authors: bool = False
    metrics: tuple[str, ...] = ALL_METRICS
    year_min: int | None = None
    year_max: int | None = None

    def as_dict(self) -> dict:
        return {
            "home": self.home,
            "end_year": self.end_year,
            "grace_years": self.grace_years,
            "host_attribution": self.host_attribution,
            "tie_rule": self.tie_rule,
            "intl_requires_distinct_authors": self.intl_requires_distinct_authors,
            "metrics": list(self.metrics),
            "year_min": self.year_min,
            "year_max": self.year_max,
        }


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _read_config_text(path: str | Path) -> str:
    """Text of a configuration file; bytes that are not UTF-8 are a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InvalidConfig(f"{path}: not valid UTF-8") from None


def load_run_config(path: str | Path) -> dict:
    """Parse the flat ``key = value`` run-configuration file."""
    values: dict = {}
    for line_no, raw in enumerate(_read_config_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("end_year", "grace_years", "year_min", "year_max"):
            try:
                values[key] = int(value)
            except ValueError:
                raise InvalidConfig(f"{path}:{line_no}: {key} must be an integer") from None
        elif key == "intl_requires_distinct_authors":
            if value.lower() not in _BOOL_VALUES:
                raise InvalidConfig(f"{path}:{line_no}: {key} must be true/false")
            values[key] = _BOOL_VALUES[value.lower()]
        elif key == "metrics":
            values[key] = tuple(m.strip() for m in value.split(",") if m.strip())
        elif key in ("home", "host_attribution", "tie_rule"):
            values[key] = value
        else:
            raise InvalidConfig(f"{path}:{line_no}: unknown key {key!r}")
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_run_config(args.config).items():
            setattr(cfg, key, value)
    for key in ("home", "end_year", "grace_years", "host_attribution", "tie_rule",
                "year_min", "year_max"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "intl_requires_distinct_authors", False):
        cfg.intl_requires_distinct_authors = True
    if getattr(args, "metrics", None):
        cfg.metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    unknown = set(cfg.metrics) - set(ALL_METRICS)
    if unknown:
        raise InvalidConfig(f"unknown metrics {sorted(unknown)}; known: {', '.join(ALL_METRICS)}")
    if cfg.host_attribution not in ("first", "latest"):
        raise InvalidConfig("host_attribution must be 'first' or 'latest'")
    if cfg.tie_rule not in ("hysteresis", "label_order"):
        raise InvalidConfig("tie_rule must be 'hysteresis' or 'label_order'")
    if cfg.grace_years < 0:
        raise InvalidConfig("grace_years must be >= 0")
    return cfg


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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


class Cache:
    """Content-addressed table cache; corrupted entries are rebuilt, never trusted."""

    def __init__(self, root: Path, enabled: bool):
        self.root = root
        self.enabled = enabled

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.csv", self.root / f"{key}.csv.sha256"

    @staticmethod
    def key(stage: str, parts: list[str]) -> str:
        return hashlib.sha256("|".join([stage] + parts).encode()).hexdigest()[:40]

    def load(self, key: str) -> list[list[str]] | None:
        if not self.enabled:
            return None
        data_path, digest_path = self._paths(key)
        if not data_path.exists() or not digest_path.exists():
            return None
        try:
            blob = data_path.read_bytes()
            expect = digest_path.read_text(encoding="utf-8").strip()
            if hashlib.sha256(blob).hexdigest() != expect:
                raise ValueError("digest mismatch")
            header, rows = read_table(data_path)
            if not header:
                raise ValueError("empty cache table")
            return rows
        except Exception as exc:  # noqa: BLE001 - any corruption means rebuild
            print(f"careertrace: warning: discarding corrupt cache entry {data_path.name}: {exc}",
                  file=sys.stderr)
            for p in self._paths(key):
                try:
                    p.unlink()
                except OSError:
                    pass
            return None

    def store(self, key: str, header: list[str], rows: list[list[str]]) -> None:
        if not self.enabled:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        data_path, digest_path = self._paths(key)
        write_table(data_path, header, rows)
        digest_path.write_text(hashlib.sha256(data_path.read_bytes()).hexdigest() + "\n",
                               encoding="utf-8")


_TIMELINE_HEADER = ["author_id", "year", "source_pub", "dominant", "weights", "origin_ambiguous"]
_STATE_HEADER = ["author_id", "year", "class", "since_year"]
_MOVE_HEADER = ["author_id", "from", "to", "year"]
_STOCK_HEADER = ["class", "year", "preceding", "new_movement", "total"]
_INDICATOR_HEADER = ["population", "year", "metric", "counting", "value"]


def _format_weights(weights: dict[str, float], scheme: RegionScheme) -> str:
    return "|".join(f"{r}:{weights[r]!r}" for r in sorted(weights, key=scheme.rank))


def _parse_weights(text: str) -> dict[str, float]:
    out = {}
    for part in text.split("|"):
        region, _, value = part.partition(":")
        out[region] = float(value)
    return out


def timelines_to_rows(
    timelines: dict[str, CareerTimeline], scheme: RegionScheme
) -> list[list[str]]:
    rows = []
    for author_id in sorted(timelines):
        tl = timelines[author_id]
        for pos in tl.positions:
            rows.append(
                [
                    author_id,
                    str(pos.year),
                    pos.source_pub,
                    pos.dominant,
                    _format_weights(pos.weights, scheme),
                    "1" if tl.origin_ambiguous else "0",
                ]
            )
    return rows


def rows_to_timelines(rows: list[list[str]]) -> dict[str, CareerTimeline]:
    grouped: dict[str, list[list[str]]] = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row)
    out: dict[str, CareerTimeline] = {}
    for author_id, author_rows in grouped.items():
        author_rows.sort(key=lambda r: int(r[1]))
        positions = [
            YearPosition(
                year=int(r[1]),
                weights=_parse_weights(r[4]),
                source_pub=r[2],
                dominant=r[3],
            )
            for r in author_rows
        ]
        out[author_id] = CareerTimeline(
            author_id=author_id,
            positions=positions,
            origin_region=positions[0].dominant,
            first_year=positions[0].year,
            last_year=positions[-1].year,
            origin_ambiguous=author_rows[0][5] == "1",
        )
    return out


def states_to_rows(states: dict[str, list[MobilityState]]) -> list[list[str]]:
    rows = []
    for author_id in sorted(states):
        for st in states[author_id]:
            rows.append([author_id, str(st.year), st.klass.key(), str(st.since_year)])
    return rows


def rows_to_states(rows: list[list[str]]) -> dict[str, list[MobilityState]]:
    out: dict[str, list[MobilityState]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(
            MobilityState(
                author_id=row[0],
                year=int(row[1]),
                klass=MobilityClass.parse_key(row[2]),
                since_year=int(row[3]),
            )
        )
    for sts in out.values():
        sts.sort(key=lambda s: s.year)
    return out


class Pipeline:
    """Shared corpus -> timelines -> moves -> states staging with caching."""

    def __init__(
        self,
        corpus_path: Path,
        scheme_path: Path,
        cfg: RunConfig,
        cache: Cache,
    ):
        self.corpus_path = corpus_path
        self.scheme_path = scheme_path
        self.cfg = cfg
        self.cache = cache
        self.scheme = load_scheme(scheme_path)
        self.corpus_hash = sha256_file(corpus_path)
        self.scheme_hash = sha256_file(scheme_path)
        self.stages: list[dict] = []
        self._corpus: Corpus | None = None
        self._timelines: dict[str, CareerTimeline] | None = None
        self._moves: dict[str, list[MoveEvent]] | None = None
        self._states: dict[str, list[MobilityState]] | None = None

    def _window(self) -> tuple[int, int] | None:
        if self.cfg.year_min is not None and self.cfg.year_max is not None:
            return (self.cfg.year_min, self.cfg.year_max)
        return None

    def _stage(self, name: str, cache_state: str) -> None:
        self.stages.append({"stage": name, "cache": cache_state})

    def _built(self, name: str, key: str, header: list[str], rows) -> None:
        """Record a built stage; ``rows()`` serializes it, only for an enabled cache."""
        if self.cache.enabled:
            self.cache.store(key, header, rows())
            self._stage(name, "miss")
        else:
            self._stage(name, "off")

    def corpus(self) -> Corpus:
        if self._corpus is None:
            self._corpus = load_corpus(self.corpus_path, self.scheme, self._window())
            self._stage("parse", "off")
        return self._corpus

    def _key(self, stage: str, extra: list[str] | None = None) -> str:
        parts = [__version__, self.corpus_hash, self.scheme_hash,
                 json.dumps(self.cfg.as_dict(), sort_keys=True)]
        return Cache.key(stage, parts + (extra or []))

    def timelines(self) -> dict[str, CareerTimeline]:
        if self._timelines is not None:
            return self._timelines
        key = self._key("timelines")
        cached = self.cache.load(key)
        if cached is not None:
            self._timelines = rows_to_timelines(cached)
            self._stage("timelines", "hit")
        else:
            self._timelines = build_timelines(self.corpus(), self.cfg.tie_rule)
            self._built("timelines", key, _TIMELINE_HEADER,
                        lambda: timelines_to_rows(self._timelines, self.scheme))
        return self._timelines

    def moves(self) -> dict[str, list[MoveEvent]]:
        if self._moves is not None:
            return self._moves
        key = self._key("moves")
        cached = self.cache.load(key)
        if cached is not None:
            moves: dict[str, list[MoveEvent]] = {}
            for author_id, frm, to, year in cached:
                moves.setdefault(author_id, []).append(
                    MoveEvent(author_id=author_id, from_region=frm, to_region=to, year=int(year))
                )
            self._moves = moves
            self._stage("moves", "hit")
        else:
            self._moves = {a: detect_moves(tl) for a, tl in self.timelines().items()}
            self._built("moves", key, _MOVE_HEADER, lambda: [
                [a, m.from_region, m.to_region, str(m.year)]
                for a in sorted(self._moves)
                for m in self._moves[a]
            ])
        return self._moves

    def states(self) -> dict[str, list[MobilityState]]:
        if self._states is not None:
            return self._states
        key = self._key("states")
        cached = self.cache.load(key)
        if cached is not None:
            self._states = rows_to_states(cached)
            self._stage("states", "hit")
        else:
            timelines = self.timelines()
            moves = self.moves()
            self._states = {
                a: classify(tl, moves.get(a, []), self.cfg.home, self.scheme,
                            self.cfg.host_attribution)
                for a, tl in timelines.items()
            }
            self._built("states", key, _STATE_HEADER, lambda: states_to_rows(self._states))
        return self._states

    def stock_cells(self) -> list[StockCell]:
        key = self._key("stocks")
        cached = self.cache.load(key)
        if cached is not None:
            self._stage("stocks", "hit")
            return [StockCell(r[0], int(r[1]), int(r[2]), int(r[3])) for r in cached]
        corpus = self.corpus()
        end_year = self.cfg.end_year if self.cfg.end_year is not None else corpus.window[1]
        year_range = (corpus.window[0], end_year)
        statuses = build_statuses(self.timelines(), year_range, grace=self.cfg.grace_years)
        cells = stock_table(self.states(), statuses, year_range)
        self._built("stocks", key, _STOCK_HEADER[:4], lambda: [
            [c.class_key, str(c.year), str(c.preceding), str(c.new_movement)] for c in cells
        ])
        return cells

    def inputs(self) -> dict[str, str]:
        return {
            "corpus": str(self.corpus_path),
            "corpus_sha256": self.corpus_hash,
            "scheme": str(self.scheme_path),
            "scheme_sha256": self.scheme_hash,
        }


def _indicator_rows_to_table(rows: list[IndicatorRow]) -> list[list[object]]:
    return [[r.population, r.year, r.metric, r.counting, r.value] for r in rows]


def _add_common(parser: argparse.ArgumentParser, output: str | None = None) -> None:
    parser.add_argument("corpus", help="line-delimited corpus file")
    parser.add_argument("--scheme", default=None, help="region scheme JSON file")
    parser.add_argument("--config", default=None, help="run configuration file (key = value)")
    parser.add_argument("--year-min", type=int, default=None, dest="year_min")
    parser.add_argument("--year-max", type=int, default=None, dest="year_max")
    if output:
        parser.add_argument("-o", "--output", required=True, help=output)
    parser.add_argument("--no-cache", action="store_true", help="bypass the table cache")
    parser.add_argument("--cache-dir", default=None, help="cache directory")


def _add_home_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--home", default=None, help="home region label (default CHN)")
    parser.add_argument("--end-year", type=int, default=None, dest="end_year",
                        help="observation horizon for the trailing grace rule")
    parser.add_argument("--grace", type=int, default=None, dest="grace_years",
                        help="trailing grace years before retirement")
    parser.add_argument("--host-attribution", choices=("first", "latest"), default=None,
                        dest="host_attribution")
    parser.add_argument("--tie-rule", choices=("hysteresis", "label_order"), default=None,
                        dest="tie_rule", help="dominant-region tie handling")
    parser.add_argument("--intl-requires-distinct-authors", action="store_true",
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
    p.add_argument("--tie-rule", choices=("hysteresis", "label_order"), default=None,
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
    p.add_argument("--metrics", default=None,
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


def _make_pipeline(args: argparse.Namespace, cfg: RunConfig) -> Pipeline:
    cache_root = Path(args.cache_dir) if args.cache_dir else Path.home() / ".cache" / "careertrace"
    cache = Cache(cache_root, enabled=not args.no_cache)
    return Pipeline(Path(args.corpus), _scheme_path(args), cfg, cache)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    scheme = load_scheme(_scheme_path(args))
    window = (cfg.year_min, cfg.year_max) if cfg.year_min is not None and cfg.year_max is not None else None
    problems = 0
    with open_corpus(args.corpus) as fh:
        for diag in iter_diagnostics(fh, scheme, window):
            print(f"careertrace: {args.corpus}: {diag}", file=sys.stderr)
            problems += 1
    if problems:
        print(f"careertrace: {args.corpus}: {problems} problem(s) found", file=sys.stderr)
        return 1
    return 0


def cmd_timelines(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    pipe = _make_pipeline(args, cfg)
    rows = timelines_to_rows(pipe.timelines(), pipe.scheme)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(out, _TIMELINE_HEADER, rows)
    write_manifest(out.with_name(out.name + ".manifest.json"), "timelines",
                   cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_moves(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    pipe = _make_pipeline(args, cfg)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    moves = pipe.moves()
    move_rows = []
    for author_id in sorted(moves):
        for mv in moves[author_id]:
            move_rows.append([author_id, mv.from_region, mv.to_region, str(mv.year)])
    write_table(out_dir / "moves.csv", _MOVE_HEADER, move_rows)
    write_table(out_dir / "states.csv", _STATE_HEADER, states_to_rows(pipe.states()))
    # classes follow move patterns only; the origin table lets consumers
    # break any population down by where a career started
    timelines = pipe.timelines()
    origin_rows = [
        [a, timelines[a].origin_region, "1" if timelines[a].origin_ambiguous else "0"]
        for a in sorted(timelines)
    ]
    write_table(out_dir / "origins.csv", ["author_id", "origin", "origin_ambiguous"], origin_rows)
    write_manifest(out_dir / "manifest.json", "moves", cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_stocks(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    pipe = _make_pipeline(args, cfg)
    cells = pipe.stock_cells()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_table(
        out,
        _STOCK_HEADER,
        [[c.class_key, c.year, c.preceding, c.new_movement, c.total] for c in cells],
    )
    write_manifest(out.with_name(out.name + ".manifest.json"), "stocks",
                   cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_indicators(args: argparse.Namespace) -> int:
    cfg = build_run_config(args)
    pipe = _make_pipeline(args, cfg)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    want = set(cfg.metrics)
    engine: IndicatorEngine | None = None
    if want & {"pp10", "shares", "intl", "class_intl", "direction"}:
        engine = IndicatorEngine(
            pipe.corpus(), pipe.states(), cfg.home, cfg.intl_requires_distinct_authors
        )
        pipe.stages.append({"stage": "indicators", "cache": "off"})
    if engine is not None:
        for metric, rows in (
            ("pp10", engine.pp10_rows()),
            ("shares", engine.share_rows()),
            ("intl", engine.intl_rows()),
            ("class_intl", engine.class_intl_rows()),
            ("direction", engine.direction_rows()),
        ):
            if metric in want:
                write_table(out_dir / f"{metric}.csv", _INDICATOR_HEADER,
                            _indicator_rows_to_table(rows))
    if want & {"stocks", "ratio"}:
        cells = pipe.stock_cells()
        if "stocks" in want:
            write_table(
                out_dir / "stocks.csv",
                _STOCK_HEADER,
                [[c.class_key, c.year, c.preceding, c.new_movement, c.total] for c in cells],
            )
        if "ratio" in want:
            lookup = stock_lookup(cells)
            ratio_rows = []
            years = sorted({c.year for c in cells})
            for host in [r for r in pipe.scheme.labels if r != cfg.home]:
                for year in years:
                    try:
                        value = return_ratio(lookup, cfg.home, host, year)
                    except UndefinedRatio:
                        continue
                    ratio_rows.append([host, year, "overseas_returnee_ratio", "full", value])
            write_table(out_dir / "ratio.csv", _INDICATOR_HEADER, ratio_rows)
    write_manifest(out_dir / "manifest.json", "indicators", cfg.as_dict(), pipe.inputs(), pipe.stages)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.config:
        text = _read_config_text(args.config)
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
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        for line in corpus.dump_lines():
            fh.write(line + "\n")
    truth_path = Path(args.truth)
    truth_path.parent.mkdir(parents=True, exist_ok=True)
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        for line in truth.dump_lines():
            fh.write(line + "\n")
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "synth",
        json.loads(config.to_json()),
        {"scheme": str(scheme_path), "scheme_sha256": sha256_file(scheme_path)},
        [{"stage": "generate", "cache": "off"}],
    )
    return 0


def _chart_indicator_file(path: Path, out_dir: Path) -> list[str]:
    """Line charts per (metric, counting) found in one indicator table."""
    header, rows = read_table(path)
    if not header:
        return []
    written = []
    groups: dict[tuple[str, str], dict[str, list[tuple[float, float]]]] = {}
    for population, year, metric, counting, value in rows:
        v = float(value)
        if math.isinf(v):
            continue
        groups.setdefault((metric, counting), {}).setdefault(population, []).append(
            (int(year), v)
        )
    for (metric, counting), series in sorted(groups.items()):
        name = f"{metric}_{counting}.svg"
        line_chart(out_dir / name, f"{metric} ({counting})", series)
        written.append(name)
    return written


def cmd_report(args: argparse.Namespace) -> int:
    src = Path(args.directory)
    if not src.is_dir():
        print(f"careertrace: {src} is not a directory", file=sys.stderr)
        return 1
    out_dir = Path(args.output) if args.output else src / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_parts = []
    charts: list[str] = []
    for name in ("pp10", "shares", "intl", "class_intl", "direction", "ratio"):
        path = src / f"{name}.csv"
        if not path.exists():
            continue
        charts.extend(_chart_indicator_file(path, out_dir))
        header, rows = read_table(path)
        summary_parts.append(f"== {name} ==\n" + render_text_table(header, rows))
    stocks_path = src / "stocks.csv"
    if stocks_path.exists():
        header, rows = read_table(stocks_path)
        summary_parts.append("== stocks ==\n" + render_text_table(header, rows))
        by_class: dict[str, dict[int, tuple[float, float]]] = {}
        for class_key, year, preceding, new, _total in rows:
            by_class.setdefault(class_key, {})[int(year)] = (float(preceding), float(new))
        for class_key in sorted(by_class):
            if not (class_key.startswith("Overseas(") or class_key.startswith("ReturneeResident(")):
                continue
            years = sorted(by_class[class_key])
            safe = class_key.replace("(", "_").replace(")", "").replace(",", "_")
            name = f"stocks_{safe}.svg"
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CareerTraceError as exc:
        print(f"careertrace: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"careertrace: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
