"""The staged corpus -> timelines -> moves -> states -> stocks pass behind the
data commands: its content-addressed table cache, each cached table's row
codec (shared by the cache and the command outputs), and the input digests
that key the cache and go into the manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import weakref
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .config import RunConfig
from .corpus import Corpus, RegionScheme, load_corpus, load_scheme
from .errors import HomeMismatch
from .mobility import MobilityState, MoveEvent, classify, detect_moves
from .stocks import StockCell, stock_table
from .tables import (MOVE_HEADER, STATE_HEADER, STOCK_HEADER, TIMELINE_HEADER, sha256_file,
                     write_manifest, write_table)
from .timeline import CareerTimeline, YearPosition, build_timelines


class Cache:
    """Content-addressed table cache; corrupted entries are rebuilt, never trusted."""

    def __init__(self, root: Path):
        self.root = root

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.csv", self.root / f"{key}.csv.sha256"

    @staticmethod
    def key(stage: str, parts: list[str]) -> str:
        return hashlib.sha256("|".join([stage] + parts).encode()).hexdigest()[:40]

    def load(self, key: str) -> Iterator[list[str]] | None:
        """The entry's rows after its header, decoded lazily from the bytes whose
        digest was checked, or None when there is no sound entry. A row that
        turns out not to decode is the caller's to ``discard``."""
        data_path, digest_path = self._paths(key)
        if not data_path.exists() or not digest_path.exists():
            return None
        try:
            blob = data_path.read_bytes()
            expect = digest_path.read_text(encoding="utf-8").strip()
            if hashlib.sha256(blob).hexdigest() != expect:
                raise ValueError("digest mismatch")
            # decode the bytes just verified: reading the file again could see
            # another run's store half done
            rows = csv.reader(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", newline=""))
            if not next(rows, None):
                raise ValueError("empty cache table")
            return rows
        except Exception as exc:  # noqa: BLE001 - any corruption means rebuild
            self.discard(key, exc)
            return None

    def discard(self, key: str, reason: Exception) -> None:
        """Warn about a corrupt entry and delete it, so that it is rebuilt."""
        data_path = self._paths(key)[0]
        print(f"careertrace: warning: discarding corrupt cache entry {data_path.name}: {reason}",
              file=sys.stderr)
        for p in self._paths(key):
            try:
                p.unlink()
            except OSError:
                pass

    def store(self, key: str, header: list[str], rows: Iterable[list[object]]) -> None:
        data_path, digest_path = self._paths(key)
        write_table(data_path, header, rows)
        digest_path.write_text(hashlib.sha256(data_path.read_bytes()).hexdigest() + "\n",
                               encoding="utf-8")


def _format_weights(weights: dict[str, float], scheme: RegionScheme) -> str:
    return "|".join(f"{r}:{weights[r]!r}" for r in sorted(weights, key=scheme.rank))


def _parse_weights(text: str, labels: frozenset[str]) -> dict[str, float]:
    out = {}
    for part in text.split("|"):
        region, _, value = part.partition(":")
        if region not in labels:
            raise ValueError(f"region {region!r} is not in the scheme")
        out[region] = float(value)
    return out


class _Years(dict):
    """Years decoded by their text, so that equal years share one int."""

    def __missing__(self, text: str) -> int:
        year = self[text] = int(text)
        return year


def timelines_to_rows(
    timelines: dict[str, CareerTimeline], scheme: RegionScheme
) -> Iterator[list[str]]:
    # positions share weights dicts (one per country tuple), and the timelines
    # keep each alive while the rows stream, so each is formatted once by identity
    texts: dict[int, str] = {}
    for author_id in sorted(timelines):
        tl = timelines[author_id]
        ambiguous = "1" if tl.origin_ambiguous else "0"
        for pos in tl.positions:
            text = texts.get(id(pos.weights))
            if text is None:
                text = texts[id(pos.weights)] = _format_weights(pos.weights, scheme)
            yield [author_id, str(pos.year), pos.source_pub, pos.dominant, text, ambiguous]


def rows_to_timelines(
    rows: Iterable[list[str]], scheme: RegionScheme
) -> dict[str, CareerTimeline]:
    """Timelines decoded from rows in ``timelines_to_rows`` order (by author,
    then year). Positions with the same weights text share one dict, which
    must not be mutated (as with ``regionalize``), and equal years one int.
    A region that ``scheme`` does not list is a ValueError, so that a cache
    entry naming one is rebuilt rather than failing a later stage."""
    labels = frozenset(scheme.labels)
    weights_of: dict[str, dict[str, float]] = {}
    years = _Years()
    out: dict[str, CareerTimeline] = {}
    for author_id, year, source_pub, dominant, text, _ambiguous in rows:
        weights = weights_of.get(text)
        if weights is None:
            weights = weights_of[text] = _parse_weights(text, labels)
        if dominant not in labels:
            raise ValueError(f"region {dominant!r} is not in the scheme")
        pos = YearPosition(years[year], weights, source_pub, dominant)
        tl = out.get(author_id)
        if tl is None:
            out[author_id] = CareerTimeline([pos])
        else:
            tl.positions.append(pos)
    return out


def moves_to_rows(moves: dict[str, list[MoveEvent]]) -> Iterator[list[str]]:
    for author_id in sorted(moves):
        for mv in moves[author_id]:
            yield [author_id, mv.from_region, mv.to_region, str(mv.year)]


def rows_to_moves(rows: Iterable[list[str]]) -> dict[str, list[MoveEvent]]:
    out: dict[str, list[MoveEvent]] = {}
    for author_id, frm, to, year in rows:
        out.setdefault(author_id, []).append(MoveEvent(frm, to, int(year)))
    return out


def states_to_rows(states: dict[str, list[MobilityState]]) -> Iterator[list[str]]:
    for author_id in sorted(states):
        for st in states[author_id]:
            yield [author_id, str(st.year), st.klass, str(st.since_year)]


def rows_to_states(rows: Iterable[list[str]]) -> dict[str, list[MobilityState]]:
    """States decoded from rows in ``states_to_rows`` order (by author, then
    year); each distinct class key is one shared string, as ``classify`` gives,
    and each distinct year one int."""
    classes: dict[str, str] = {}
    years = _Years()
    out: dict[str, list[MobilityState]] = {}
    for author_id, year, key, since_year in rows:
        out.setdefault(author_id, []).append(
            MobilityState(years[year], classes.setdefault(key, key), years[since_year]))
    return out


def stocks_to_rows(cells: list[StockCell]) -> Iterator[list[object]]:
    """Rows under ``STOCK_HEADER``; the cache keeps the first four columns."""
    for c in cells:
        yield [c.class_key, c.year, c.preceding, c.new_movement, c.total]


class Pipeline:
    """Shared corpus -> timelines -> moves -> states -> stocks staging with caching."""

    def __init__(
        self,
        corpus_path: Path,
        scheme_path: Path,
        cfg: RunConfig,
        cache: Cache | None,
    ):
        self.corpus_path = corpus_path
        self.scheme_path = scheme_path
        self.cfg = cfg
        self.cache = cache
        self.scheme = load_scheme(scheme_path)
        self.corpus_hash = sha256_file(corpus_path)
        self.scheme_hash = sha256_file(scheme_path)
        self.stages: list[dict] = []
        self._corpus: weakref.ref[Corpus] | None = None
        self._built: dict[str, object] = {}

    def corpus(self) -> Corpus:
        """The parsed corpus. The pipeline holds it only by weak reference, so
        the records are freed as soon as their last reader drops them: building
        timelines, or the indicator engine (see ``engine_inputs``). A stage built
        after that parses again, which the stages list shows; that happens only
        when the cache lost a timelines entry that a later stage needs."""
        corpus = self._corpus() if self._corpus is not None else None
        if corpus is None:
            corpus = load_corpus(self.corpus_path, self.scheme, self.cfg.window)
            self._corpus = weakref.ref(corpus)
            self.stages.append({"stage": "parse", "cache": "off"})
        return corpus

    def engine_inputs(self) -> tuple[Corpus, dict[str, list[MobilityState]]]:
        """The corpus and states the indicator engine reads. The corpus is taken
        first, so that states built cold read this same parse; it is freed once
        the caller drops it."""
        corpus = self.corpus()
        return corpus, self.states()

    def _cached(self, stage: str, header: list[str], build, to_rows, from_rows):
        """One stage's value, built once per run: decoded from the cache on a hit,
        otherwise built, and serialized into the cache only when there is one."""
        if stage in self._built:
            return self._built[stage]
        key = Cache.key(stage, [__version__, self.corpus_hash, self.scheme_hash,
                                json.dumps(self.cfg.as_dict(), sort_keys=True)])
        rows = self.cache.load(key) if self.cache is not None else None
        outcome = None
        if rows is not None:
            try:
                value, outcome = from_rows(rows), "hit"
            except (ValueError, csv.Error) as exc:  # bytes or rows that do not decode
                self.cache.discard(key, exc)
        if outcome is None:
            value = build()
            if self.cache is not None:
                self.cache.store(key, header, to_rows(value))
                outcome = "miss"
            else:
                outcome = "off"
        self._built[stage] = value
        self.stages.append({"stage": stage, "cache": outcome})
        return value

    def timelines(self) -> dict[str, CareerTimeline]:
        return self._cached(
            "timelines", TIMELINE_HEADER,
            lambda: build_timelines(self.corpus(), self.cfg.tie_rule),
            lambda timelines: timelines_to_rows(timelines, self.scheme),
            lambda rows: rows_to_timelines(rows, self.scheme),
        )

    def moves(self) -> dict[str, list[MoveEvent]]:
        return self._cached(
            "moves", MOVE_HEADER,
            lambda: {a: detect_moves(tl) for a, tl in self.timelines().items()},
            moves_to_rows, rows_to_moves,
        )

    def _build_states(self) -> dict[str, list[MobilityState]]:
        timelines = self.timelines()
        moves = self.moves()
        shared: dict = {}  # one object per equal state, across all authors
        return {
            a: classify(tl, moves.get(a, []), self.cfg.home, self.scheme, self.cfg.host_attribution,
                        shared=shared)
            for a, tl in timelines.items()
        }

    def _check_home(self) -> None:
        """Runs before the cache lookup of every stage built for the home region,
        so that no entry stored under a home the scheme lacks is ever read."""
        if self.cfg.home not in self.scheme.labels:
            raise HomeMismatch(self.cfg.home)

    def states(self) -> dict[str, list[MobilityState]]:
        self._check_home()
        return self._cached("states", STATE_HEADER, self._build_states,
                            states_to_rows, rows_to_states)

    def _build_stock_cells(self) -> list[StockCell]:
        timelines = self.timelines()  # before the states: the manifest lists the stages in order
        window_end = self.cfg.window[1] if self.cfg.window else None
        end_year = window_end if self.cfg.end_year is None else self.cfg.end_year
        return stock_table(self.states(), timelines, end_year, grace=self.cfg.grace_years)

    def stock_cells(self) -> list[StockCell]:
        self._check_home()
        return self._cached(
            "stocks", STOCK_HEADER[:4], self._build_stock_cells,
            lambda cells: (row[:4] for row in stocks_to_rows(cells)),
            lambda rows: [StockCell(k, int(y), int(p), int(n)) for k, y, p, n in rows],
        )

    def write_manifest(self, output: Path, subcommand: str) -> None:
        """``output``'s manifest: the configuration, the input digests and the stages run."""
        inputs = {"corpus": str(self.corpus_path), "corpus_sha256": self.corpus_hash,
                  "scheme": str(self.scheme_path), "scheme_sha256": self.scheme_hash}
        write_manifest(output, subcommand, self.cfg.as_dict(), inputs, self.stages)
