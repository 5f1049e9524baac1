"""The indicator engine's per-signature geometry and per-author state cursor.

The engine computes what depends only on a record's authorship countries once
per distinct country signature, and reads each author's classes through a
cursor into that author's states. These tests build the inputs that would
expose either shortcut: records that share signatures but not classes, records
out of year order, and states with holes.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace.corpus import Corpus, default_scheme, parse_corpus
from careertrace.errors import NoStateForYear
from careertrace.indicators import IndicatorEngine
from careertrace.mobility import MobilityState, classify, detect_moves
from careertrace.synth import ScenarioConfig, generate
from careertrace.timeline import build_timelines
from conftest import corpus_of, lines, rec, random_records
from equivalence import compare_pipeline_to_oracle

ROWS = ("pp10_rows", "share_rows", "intl_rows", "class_intl_rows", "direction_rows")


def states_for(corpus, home="CHN"):
    return {a: classify(tl, detect_moves(tl), home, corpus.scheme)
            for a, tl in build_timelines(corpus).items()}


def all_rows(engine):
    return {name: getattr(engine, name)() for name in ROWS}


def shared_signature_records(rng: random.Random, n_signatures: int, n_records: int):
    """Records whose authorships follow one of a few country signatures, filled
    at random from a small author pool. Each signature spans two regions or
    more, so an author's dominant region changes with the slots they fill, and
    records with one signature hold authors of different classes."""
    countries = ["CHN", "USA", "DEU", "FRA", "JPN"]
    signatures = []
    for _ in range(n_signatures):
        signature = [[c] for c in rng.sample(["CHN", "USA", "DEU", "JPN"], 2)]
        signature += [[rng.choice(countries) for _ in range(1 if rng.random() < 0.8 else 2)]
                      for _ in range(rng.randint(0, 2))]
        rng.shuffle(signature)
        signatures.append(signature)
    authors = [f"x{i:02d}" for i in range(10)]
    records = []
    for i in range(n_records):
        signature = rng.choice(signatures)
        team = rng.sample(authors, k=len(signature))
        records.append(rec(f"p{i:03d}", rng.randint(2000, 2008), list(zip(team, signature)),
                           seq=rng.randint(0, 3), fields=[rng.choice(["F1", "F2"])],
                           cites=rng.randint(0, 30)))
    return records


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_signatures=st.integers(1, 4),
       home=st.sampled_from(["CHN", "USA", "EU28"]), distinct=st.booleans())
def test_engine_matches_oracle_when_signatures_repeat_across_classes(
        seed, n_signatures, home, distinct):
    """Every row family equals the brute-force oracle's on corpora where many
    records share a country signature while their authors' classes differ, so
    a class-dependent value kept with the signature's geometry shows."""
    scheme = default_scheme()
    records = shared_signature_records(random.Random(seed), n_signatures, 60)
    corpus_lines = lines(*records)
    corpus = parse_corpus(corpus_lines, scheme)
    states = states_for(corpus, home)
    classes = {(a, s.year): s.klass for a, sts in states.items() for s in sts}
    held_by_signature: dict[tuple, set] = {}
    for r in corpus.records:
        signature = tuple(a.countries for a in r.authorships)
        held = tuple(classes[(a.author_id, r.year)] for a in r.authorships)
        held_by_signature.setdefault(signature, set()).add(held)
    # the corpus exercises the case: some signature recurs with other classes
    assert max(map(len, held_by_signature.values())) > 1
    compare_pipeline_to_oracle(corpus_lines, scheme, home, require_distinct_authors=distinct)


def interleaved(records, rng: random.Random):
    """The records with their years interleaved at random, each year's records
    keeping their canonical order: every per-year sum then adds the same
    values in the same order."""
    slots = [r.year for r in records]
    rng.shuffle(slots)
    by_year: dict[int, list] = {}
    for r in reversed(records):
        by_year.setdefault(r.year, []).append(r)
    return [by_year[year].pop() for year in slots]


@pytest.mark.parametrize("order", ["descending", "interleaved"])
def test_rows_do_not_depend_on_record_year_order(scheme, order):
    corpus = corpus_of(*random_records(random.Random(43), 150))
    states = states_for(corpus)
    if order == "descending":
        records = sorted(corpus.records, key=lambda r: -r.year)  # stable within a year
    else:
        records = interleaved(corpus.records, random.Random(43))
    years = [r.year for r in records]
    assert years != sorted(years)
    assert sorted(records, key=lambda r: r.year) == corpus.records
    shuffled = Corpus(records=records, scheme=corpus.scheme, window=corpus.window)
    for require_distinct_authors in (False, True):
        expected = all_rows(IndicatorEngine(corpus, states, "CHN", require_distinct_authors))
        got = all_rows(IndicatorEngine(shuffled, states, "CHN", require_distinct_authors))
        assert got == expected


def first_missing_state(records, states):
    """The (author, year) the engine must name: the first authorship, in record
    order, whose author has no state in the record's year."""
    held = {(a, s.year) for a, sts in states.items() for s in sts}
    for r in records:
        for a in r.authorships:
            if (a.author_id, r.year) not in held:
                return a.author_id, r.year
    return None


def career_corpus():
    """Three authors over 2003-2007; x2 publishes every year."""
    return corpus_of(
        rec("p1", 2003, [("x1", ["CHN"]), ("x2", ["CHN"])]),
        rec("p2", 2004, [("x2", ["USA"])]),
        rec("p3", 2005, [("x1", ["USA"]), ("x2", ["USA"]), ("x3", ["DEU"])]),
        rec("p4", 2006, [("x2", ["CHN"]), ("x3", ["CHN"])]),
        rec("p5", 2007, [("x1", ["CHN"]), ("x2", ["CHN"])]),
    )


@pytest.mark.parametrize("author,year", [("x2", 2003), ("x2", 2005), ("x2", 2007),
                                         ("x1", 2005), ("x3", 2006)])
@pytest.mark.parametrize("descending", [False, True])
def test_missing_author_year_names_the_first_authorship_without_a_state(
        scheme, author, year, descending):
    corpus = career_corpus()
    states = states_for(corpus)
    states[author] = [s for s in states[author] if s.year != year]
    records = sorted(corpus.records, key=lambda r: -r.year) if descending else corpus.records
    c = Corpus(records=records, scheme=corpus.scheme, window=corpus.window)
    expected = first_missing_state(records, states)
    assert expected is not None
    with pytest.raises(NoStateForYear) as exc:
        IndicatorEngine(c, states, "CHN")
    assert (exc.value.author_id, exc.value.year) == expected


@pytest.mark.parametrize("descending", [False, True])
def test_author_absent_from_states_raises(scheme, descending):
    corpus = career_corpus()
    states = states_for(corpus)
    del states["x3"]
    records = sorted(corpus.records, key=lambda r: -r.year) if descending else corpus.records
    c = Corpus(records=records, scheme=corpus.scheme, window=corpus.window)
    with pytest.raises(NoStateForYear) as exc:
        IndicatorEngine(c, states, "CHN")
    assert (exc.value.author_id, exc.value.year) == ("x3", 2006 if descending else 2005)
    states["x3"] = []
    with pytest.raises(NoStateForYear) as exc:
        IndicatorEngine(c, states, "CHN")
    assert (exc.value.author_id, exc.value.year) == ("x3", 2006 if descending else 2005)


def test_states_beyond_the_records_are_skipped(scheme):
    """States in years the author has no record in are passed over by the
    cursor, not read as a later record's."""
    corpus = career_corpus()
    states = states_for(corpus)
    expected = all_rows(IndicatorEngine(corpus, states, "CHN"))
    padded = {}
    for a, sts in states.items():
        extra = [MobilityState(y, "Overseas(CHN,OTHER)", y)
                 for y in range(1990, 2011) if y not in {s.year for s in sts}]
        padded[a] = sorted(sts + extra, key=lambda s: s.year)
    assert all_rows(IndicatorEngine(corpus, padded, "CHN")) == expected


# tracemalloc peak of IndicatorEngine(...) on the corpus below, on Python
# 3.11, when the engine built a {year: class} dict per author and computed
# each record's geometry itself: 1,989,500 bytes.
ENGINE_PEAK_BEFORE = 1_989_500


def test_engine_peak_memory_stays_below_the_author_year_dicts():
    """The engine's transient stays at most what it was with one class dict
    per author: a per-signature memo kept alongside those dicts exceeds it."""
    scheme = default_scheme()
    cfg = ScenarioConfig(
        seed=1, n_authors=2500, year_range=(1988, 2017), pub_probability=0.8,
        retire_hazard=0.02, return_hazard=0.1,
        move_hazard={"CHN": {"USA": 0.03, "EU28": 0.015}, "USA": {"CHN": 0.01},
                     "EU28": {"CHN": 0.01}},
    )
    generated, _truth = generate(cfg, scheme)
    corpus = parse_corpus(list(generated.dump_lines()), scheme)
    del generated
    assert len(corpus.records) == 26_067
    states = states_for(corpus)
    tracemalloc.start()
    try:
        IndicatorEngine(corpus, states, "CHN")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ENGINE_PEAK_BEFORE, peak
