"""The stage-row codecs behind the table cache: each stage survives a round
trip through its rows, and the decoders share what they can. No stage or
codec writes to the records, timelines, moves or states it reads, and the
pipeline releases the parsed corpus after its last reader."""

import copy
import json
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace import cli, pipeline
from careertrace.cli import run
from careertrace.config import RunConfig
from careertrace.corpus import default_scheme, default_scheme_path, parse_corpus
from careertrace.indicators import IndicatorEngine
from careertrace.mobility import HOST_ATTRIBUTIONS, MobilityState, classify, detect_moves
from careertrace.pipeline import (
    Cache,
    Pipeline,
    moves_to_rows,
    rows_to_moves,
    rows_to_states,
    rows_to_timelines,
    states_to_rows,
    timelines_to_rows,
)
from careertrace.stocks import stock_table
from careertrace.tables import STATE_HEADER, TIMELINE_HEADER, write_table
from careertrace.timeline import TIE_RULES, build_timelines

from conftest import lines, random_records

@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    home=st.sampled_from(default_scheme().labels),
    tie_rule=st.sampled_from(TIE_RULES),
    host_attribution=st.sampled_from(HOST_ATTRIBUTIONS),
)
def test_stage_codecs_round_trip(seed, home, tie_rule, host_attribution):
    """A quarter of random authorships list two countries, so positions carry
    multi-region weights and ties under both rules."""
    scheme = default_scheme()
    corpus = parse_corpus(lines(*random_records(random.Random(seed), 60)), scheme)
    timelines = build_timelines(corpus, tie_rule)
    moves = {a: detect_moves(tl) for a, tl in timelines.items()}
    states = {a: classify(tl, moves[a], home, scheme, host_attribution)
              for a, tl in timelines.items()}

    rows = list(timelines_to_rows(timelines, scheme))
    decoded = rows_to_timelines(rows, scheme)
    assert decoded == timelines
    assert list(timelines_to_rows(decoded, scheme)) == rows
    weights_of, years = {}, {}
    positions = [pos for a in sorted(decoded) for pos in decoded[a].positions]
    assert len(positions) == len(rows)
    for pos, row in zip(positions, rows):
        assert weights_of.setdefault(row[4], pos.weights) is pos.weights
        assert years.setdefault(pos.year, pos.year) is pos.year

    rows = list(moves_to_rows(moves))
    assert rows_to_moves(rows) == {a: mvs for a, mvs in moves.items() if mvs}
    assert list(moves_to_rows(rows_to_moves(rows))) == rows

    rows = list(states_to_rows(states))
    decoded_states = rows_to_states(rows)
    assert decoded_states == states
    assert list(states_to_rows(decoded_states)) == rows
    # fresh key strings, as the cache's CSV reader gives them
    fresh = rows_to_states([[cell.encode().decode() for cell in row] for row in rows])
    assert fresh == states
    shared = {}
    for sts in fresh.values():
        for s in sts:
            for value in (s.klass, s.year, s.since_year):
                assert shared.setdefault(value, value) is value


def _positions(timelines):
    return [pos for a in sorted(timelines) for pos in timelines[a].positions]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stages_leave_their_inputs_unmutated(seed):
    """Per-record objects are not frozen, so nothing may write to them once
    built: every stage and codec leaves its inputs equal to a deep copy taken
    before, and positions keep the weights dicts they shared."""
    scheme = default_scheme()
    corpus = parse_corpus(lines(*random_records(random.Random(seed), 80)), scheme)
    timelines = build_timelines(corpus)
    moves = {a: detect_moves(tl) for a, tl in timelines.items()}
    states = {a: classify(tl, moves[a], "CHN", scheme) for a, tl in timelines.items()}
    inputs = (corpus.records, timelines, moves, states)
    before = copy.deepcopy(inputs)
    decoded = rows_to_timelines(timelines_to_rows(timelines, scheme), scheme)
    decoded_before = copy.deepcopy(decoded)
    weights_ids = [id(pos.weights) for tls in (timelines, decoded) for pos in _positions(tls)]

    for tls in (timelines, decoded):
        for host_attribution in HOST_ATTRIBUTIONS:
            for a, tl in tls.items():
                classify(tl, moves[a], "USA", scheme, host_attribution)
        stock_table(states, tls, corpus.window[1])
        rows_to_timelines(timelines_to_rows(tls, scheme), scheme)
    engine = IndicatorEngine(corpus, states, "CHN")
    for family in (engine.pp10_rows, engine.share_rows, engine.intl_rows,
                   engine.class_intl_rows, engine.direction_rows):
        family()
    rows_to_moves(moves_to_rows(moves))
    rows_to_states(states_to_rows(states))

    assert inputs == before
    assert decoded == decoded_before
    assert [id(pos.weights) for tls in (timelines, decoded) for pos in _positions(tls)] == weights_ids
    shared = {}
    for pos in _positions(decoded):
        assert shared.setdefault(tuple(pos.weights.items()), pos.weights) is pos.weights


def _watch_parses(monkeypatch) -> list[weakref.ref]:
    """Weak references to every corpus the pipeline parses, in order."""
    refs = []
    load = pipeline.load_corpus

    def watched(*args, **kwargs):
        corpus = load(*args, **kwargs)
        refs.append(weakref.ref(corpus))
        return corpus

    monkeypatch.setattr(pipeline, "load_corpus", watched)
    return refs


def _corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines(*random_records(random.Random(4), 80))) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("stage", ["timelines", "moves", "states", "stock_cells"])
def test_stages_release_the_corpus_once_timelines_are_built(stage, tmp_path, monkeypatch):
    """No stage after timelines reads records, so none keeps them, and none
    parses them a second time."""
    refs = _watch_parses(monkeypatch)
    pipe = Pipeline(_corpus_file(tmp_path), default_scheme_path(), RunConfig(), None)
    getattr(pipe, stage)()
    pipe.stock_cells()
    assert len(refs) == 1 and refs[0]() is None
    assert [s["stage"] for s in pipe.stages].count("parse") == 1


def test_indicators_release_the_corpus_when_the_engine_returns(tmp_path, monkeypatch):
    """Cold, the timelines stage and the engine read one parse; with a warm
    cache only the engine does. Either way no record is alive once the
    output tables are written."""
    refs = _watch_parses(monkeypatch)
    alive_at_write = []
    write = cli.write_table

    def watched_write(*args):
        alive_at_write.append(any(ref() is not None for ref in refs))
        return write(*args)

    monkeypatch.setattr(cli, "write_table", watched_write)
    corpus = _corpus_file(tmp_path)
    for outcome in ("miss", "hit"):
        out = tmp_path / outcome
        alive_at_write.clear()
        assert run(["indicators", str(corpus), "-o", str(out),
                    "--cache-dir", str(tmp_path / "cache")]) == 0
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        assert [s["stage"] for s in stages].count("parse") == 1
        assert [s["cache"] for s in stages if s["stage"] == "states"] == [outcome]
        assert alive_at_write and not any(alive_at_write), outcome
    assert len(refs) == 2


def test_indicators_rebuild_a_lost_timelines_entry_after_the_release(tmp_path, capsys):
    """``moves`` caches timelines, moves and states but no stocks. When the
    timelines entry is then corrupt, ``indicators`` takes the states from the
    cache, the engine releases the corpus, and the stocks stage must rebuild
    the timelines: it parses again, and every table equals a ``--no-cache``
    run's."""
    corpus, cache = _corpus_file(tmp_path), tmp_path / "cache"
    assert run(["moves", str(corpus), "-o", str(tmp_path / "moves"), "--cache-dir", str(cache)]) == 0
    header = ",".join(TIMELINE_HEADER).encode()
    (entry,) = [p for p in cache.glob("*.csv") if p.read_bytes().startswith(header)]
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert run(["indicators", str(corpus), "-o", str(warm), "--cache-dir", str(cache)]) == 0
    assert f"discarding corrupt cache entry {entry.name}" in capsys.readouterr().err
    assert run(["indicators", str(corpus), "-o", str(cold), "--no-cache"]) == 0
    tables = sorted(p.name for p in cold.glob("*.csv"))
    assert tables == sorted(p.name for p in warm.glob("*.csv")) and "stocks.csv" in tables
    for name in tables:
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name
    stages = json.loads((warm / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert [(s["stage"], s["cache"]) for s in stages] == [
        ("parse", "off"), ("states", "hit"), ("indicators", "off"),
        ("parse", "off"), ("timelines", "miss"), ("stocks", "miss"),
    ]


def _traced(fn) -> tuple[int, int]:
    """Bytes ``fn`` allocated and freed again (tracemalloc's peak above what is
    still allocated when it returns), and bytes still held by its result."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841 - held while the figures are read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, current


def test_state_rows_stream_through_the_table_and_the_cache(tmp_path):
    """30k state rows are written, stored and decoded a row at a time: neither
    writing the table nor a cache hit holds a list of the rows. Here such a
    list costs about 6 MB; writing peaks near 0.25 MB, and a hit near the
    entry's 1.1 MB of bytes."""
    classes = ["Domestic(CHN)", "Overseas(CHN,USA)", "ReturneeResident(CHN,USA)"]
    states = {
        f"a{i:05d}": [MobilityState(year=1990 + i % 20 + j, klass=klass, since_year=1990 + i % 20 + j)
                      for j, klass in enumerate(classes)]
        for i in range(10_000)
    }
    _, rows_bytes = _traced(lambda: list(states_to_rows(states)))
    write_peak, _ = _traced(
        lambda: write_table(tmp_path / "states.csv", STATE_HEADER, states_to_rows(states)))
    assert write_peak < rows_bytes / 8, (write_peak, rows_bytes)

    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("", encoding="utf-8")
    pipes = [Pipeline(corpus, default_scheme_path(), RunConfig(), Cache(tmp_path / "cache"))
             for _ in range(2)]
    for pipe in pipes:
        pipe._build_states = lambda: states
    pipes[0].states()
    (entry,) = (tmp_path / "cache").glob("*.csv")
    hit_peak, _ = _traced(pipes[1].states)
    assert pipes[1].stages == [{"stage": "states", "cache": "hit"}]
    assert pipes[1].states() == states
    assert hit_peak < entry.stat().st_size + rows_bytes / 8, (hit_peak, rows_bytes)
