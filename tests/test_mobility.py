import random

import pytest

from careertrace.errors import HomeMismatch, NoStateForYear
from careertrace.indicators import IndicatorEngine
from careertrace.mobility import (
    RETURNEE_ABROAD,
    RETURNEE_RESIDENT,
    classify,
    detect_moves,
    domestic,
    overseas,
    returnee_abroad,
    returnee_resident,
)

RETURNEE_KINDS = (RETURNEE_RESIDENT, RETURNEE_ABROAD)
from careertrace.timeline import build_timelines

from conftest import corpus_of, rec


def timeline_for(scheme, *year_countries, author="a1"):
    records = [
        rec(f"p{i}", year, [(author, list(countries))])
        for i, (year, *countries) in enumerate(year_countries)
    ]
    corpus = corpus_of(*records)
    return build_timelines(corpus)[author], corpus


def test_return_path_yields_both_moves(scheme):
    tl, _ = timeline_for(scheme, (2005, "CHN"), (2007, "USA"), (2014, "CHN"))
    moves = detect_moves(tl)
    assert [(m.from_region, m.to_region, m.year) for m in moves] == [
        ("CHN", "USA", 2007),
        ("USA", "CHN", 2014),
    ]


def test_chain_semantics_no_transitive_move(scheme):
    tl, _ = timeline_for(scheme, (2006, "USA"), (2009, "DEU"), (2012, "CHN"))
    moves = detect_moves(tl)
    assert [(m.from_region, m.to_region, m.year) for m in moves] == [
        ("USA", "EU28", 2009),
        ("EU28", "CHN", 2012),
    ]
    assert ("USA", "CHN") not in {(m.from_region, m.to_region) for m in moves}


def test_no_region_change_no_moves(scheme):
    tl, _ = timeline_for(scheme, (2005, "CHN"), (2006, "CHN"), (2010, "CHN"))
    assert detect_moves(tl) == []


def test_classify_returnee_path(scheme):
    tl, _ = timeline_for(scheme, (2005, "CHN"), (2007, "USA"), (2014, "CHN"))
    states = classify(tl, detect_moves(tl), "CHN", scheme)
    assert [(s.year, s.klass) for s in states] == [
        (2005, domestic("CHN")),
        (2007, overseas("CHN", "USA")),
        (2014, returnee_resident("CHN", "USA")),
    ]
    assert [s.since_year for s in states] == [2005, 2007, 2014]


def test_classify_multi_cycle_returnee(scheme):
    tl, _ = timeline_for(
        scheme, (2005, "CHN"), (2008, "DEU"), (2010, "CHN"), (2012, "FRA"), (2015, "CHN")
    )
    states = classify(tl, detect_moves(tl), "CHN", scheme)
    by_year = {s.year: s.klass for s in states}
    assert by_year[2010] == returnee_resident("CHN", "EU28")
    assert by_year[2012] == returnee_abroad("CHN", "EU28")
    assert by_year[2015] == returnee_resident("CHN", "EU28")


def test_single_position_timeline_is_domestic(scheme):
    tl, _ = timeline_for(scheme, (2005, "CHN"))
    states = classify(tl, [], "CHN", scheme)
    assert [(s.year, s.klass, s.since_year) for s in states] == [
        (2005, domestic("CHN"), 2005)
    ]


def test_foreign_origin_mover_becomes_returnee(scheme):
    # classification is by move pattern only: an inbound move into home
    # makes a returnee regardless of origin
    tl, _ = timeline_for(scheme, (2006, "USA"), (2010, "CHN"))
    states = classify(tl, detect_moves(tl), "CHN", scheme)
    assert states[-1].klass == returnee_resident("CHN", "USA")


def test_foreign_origin_bounce_back_reverts_to_domestic(scheme):
    # while abroad the author is overseas; back at a non-home origin they
    # are domestic again (never entered home)
    tl, _ = timeline_for(scheme, (2005, "USA"), (2008, "DEU"), (2012, "USA"))
    states = classify(tl, detect_moves(tl), "CHN", scheme)
    assert [s.klass for s in states] == [
        domestic("USA"),
        overseas("USA", "EU28"),
        domestic("USA"),
    ]
    assert states[-1].since_year == 2012


def test_host_attribution_latest_vs_first(scheme):
    tl, _ = timeline_for(
        scheme, (2005, "CHN"), (2006, "USA"), (2008, "CHN"), (2010, "DEU"), (2012, "CHN")
    )
    moves = detect_moves(tl)
    latest = classify(tl, moves, "CHN", scheme, host_attribution="latest")
    first = classify(tl, moves, "CHN", scheme, host_attribution="first")
    assert latest[-1].klass == returnee_resident("CHN", "EU28")
    assert first[-1].klass == returnee_resident("CHN", "USA")
    # the attribution window starts at the first inbound move either way
    assert {s.year: s.klass.partition("(")[0] for s in latest}[2008] in RETURNEE_KINDS
    assert {s.year: s.klass.partition("(")[0] for s in first}[2008] in RETURNEE_KINDS


def test_home_mismatch(scheme):
    tl, _ = timeline_for(scheme, (2005, "CHN"))
    with pytest.raises(HomeMismatch):
        classify(tl, [], "MARS", scheme)


def test_returnee_never_reverts(scheme):
    rng = random.Random(23)
    regions = ["CHN", "USA", "DEU"]
    for _ in range(200):
        seq = [(2000 + i, rng.choice(regions)) for i in range(rng.randint(1, 10))]
        tl, _ = timeline_for(scheme, *seq)
        states = classify(tl, detect_moves(tl), "CHN", scheme)
        seen_returnee = False
        for s in states:
            if s.klass.partition("(")[0] in RETURNEE_KINDS:
                seen_returnee = True
            if seen_returnee:
                assert s.klass.partition("(")[0] in RETURNEE_KINDS


def test_move_count_equals_dominant_changes(scheme):
    rng = random.Random(31)
    regions = ["CHN", "USA", "DEU", "JPN"]
    for _ in range(200):
        seq = [(2000 + i, rng.choice(regions)) for i in range(rng.randint(1, 12))]
        tl, _ = timeline_for(scheme, *seq)
        moves = detect_moves(tl)
        doms = [p.dominant for p in tl.positions]
        changes = sum(1 for i in range(1, len(doms)) if doms[i] != doms[i - 1])
        assert len(moves) == changes
        # chain property: every event joins adjacent dominants
        for m in moves:
            i = [p.year for p in tl.positions].index(m.year)
            assert doms[i - 1] == m.from_region and doms[i] == m.to_region


def test_class_of_publication_attribution(scheme):
    records = [
        rec("p1", 2005, [("a1", ["CHN"])]),
        rec("p2", 2007, [("a1", ["USA"])]),
        rec("p3", 2014, [("a1", ["CHN"])]),
        rec("p4", 2014, [("a1", ["CHN"])], seq=1),
    ]
    corpus = corpus_of(*records)
    tl = build_timelines(corpus)["a1"]
    states = {"a1": classify(tl, detect_moves(tl), "CHN", scheme)}
    classes = {s.year: s.klass for s in states["a1"]}
    by_id = {r.pub_id: r for r in corpus.records}
    assert classes[by_id["p3"].year] == returnee_resident("CHN", "USA")
    assert classes[by_id["p4"].year] == returnee_resident("CHN", "USA")
    assert classes[by_id["p1"].year] == domestic("CHN")
    # a record dated in a year the author has no state for is an error
    later = corpus_of(*records, rec("px", 2099, [("a1", ["CHN"])]))
    with pytest.raises(NoStateForYear) as exc:
        IndicatorEngine(later, states, "CHN")
    assert (exc.value.author_id, exc.value.year) == ("a1", 2099)


def test_returnee_abroad_publication_not_returnee_output(scheme):
    tl, corpus = timeline_for(scheme, (2005, "DEU"), (2008, "CHN"), (2012, "DEU"))
    classes = {s.year: s.klass for s in classify(tl, detect_moves(tl), "CHN", scheme)}
    by_year = {r.year: r for r in corpus.records}
    assert classes[by_year[2012].year] == returnee_abroad("CHN", "EU28")


def test_class_key_round_trip():
    for make, args, key in (
        (domestic, ("CHN",), "Domestic(CHN)"),
        (overseas, ("CHN", "USA"), "Overseas(CHN,USA)"),
        (returnee_resident, ("CHN", "EU28"), "ReturneeResident(CHN,EU28)"),
        (returnee_abroad, ("CHN", "OTHER"), "ReturneeAbroad(CHN,OTHER)"),
    ):
        klass = make(*args)
        assert klass == key
        assert make(*args) is klass
