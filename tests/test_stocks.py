import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from careertrace.indicators import ratio_rows
from careertrace.mobility import classify, detect_moves
from careertrace.stocks import (
    ACTIVE,
    GAP_FILLED,
    RETIRED,
    StockCell,
    build_statuses,
    stock_table,
)
from careertrace.timeline import build_timelines

from conftest import corpus_of, lines, random_records, rec
from equivalence import oracle_scheme


def timeline_of(scheme, *year_countries, author="a1"):
    records = [
        rec(f"q{i}", year, [(author, [c])]) for i, (year, c) in enumerate(year_countries)
    ]
    return build_timelines(corpus_of(*records))[author]


def status_of(tl, year, grace=2):
    """The status ``build_statuses`` gives one author-year, None when it has no cell."""
    return build_statuses({"a": tl}, (year, year), grace=grace).get(("a", year))


def pipeline_states(scheme, records, home="CHN"):
    timelines = build_timelines(corpus_of(*records))
    states = {
        a: classify(tl, detect_moves(tl), home, scheme) for a, tl in timelines.items()
    }
    return states, timelines


def test_interior_gap_is_filled(scheme):
    tl = timeline_of(scheme, (2010, "CHN"), (2013, "CHN"))
    assert status_of(tl, 2011) == GAP_FILLED
    assert status_of(tl, 2012) == GAP_FILLED


def test_trailing_grace_hand_table(scheme):
    # last publication 2014: counted through 2016, retired from 2017 on
    tl = timeline_of(scheme, (2012, "CHN"), (2014, "CHN"))
    expected = {
        2014: ACTIVE,
        2015: GAP_FILLED,
        2016: GAP_FILLED,
        2017: RETIRED,
        2018: RETIRED,
    }
    for year, status in expected.items():
        assert status_of(tl, year) == status, year


def test_active_at_position_year(scheme):
    tl = timeline_of(scheme, (2010, "CHN"))
    assert status_of(tl, 2010) == ACTIVE


def test_no_status_before_career(scheme):
    tl = timeline_of(scheme, (2010, "CHN"))
    assert status_of(tl, 2009) is None
    statuses = build_statuses({"a1": tl}, (2005, 2011))
    assert sorted(statuses) == [("a1", 2010), ("a1", 2011)]


def test_grace_boundary_exhaustive(scheme):
    """Last publication in year L counts through L+1 and L+2, never L+3."""
    for last in range(2005, 2015):
        tl = timeline_of(scheme, (2000, "CHN"), (last, "CHN"))
        for year in range(2000, last + 6):
            status = status_of(tl, year)
            if year in (2000, last):
                assert status == ACTIVE
            elif year < last:
                assert status == GAP_FILLED
            elif year <= last + 2:
                assert status == GAP_FILLED
            else:
                assert status == RETIRED


def test_configurable_grace(scheme):
    tl = timeline_of(scheme, (2010, "CHN"))
    assert status_of(tl, 2011, grace=0) == RETIRED
    assert status_of(tl, 2013, grace=3) == GAP_FILLED
    assert status_of(tl, 2014, grace=3) == RETIRED


def test_interior_gap_filled_regardless_of_length(scheme):
    tl = timeline_of(scheme, (2000, "CHN"), (2015, "CHN"))
    for year in range(2001, 2015):
        assert status_of(tl, year) == GAP_FILLED


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    grace=st.integers(0, 3),
    end_offset=st.integers(-3, 4),
)
def test_statuses_and_stocks_match_oracle(seed, n, grace, end_offset):
    """Every cell equals ``bf.status``, none precedes a career, and the stock
    table equals ``bf.stocks``, for any grace and an end year from three years
    before the last publication to four past it."""
    records = random_records(random.Random(seed), n)
    corpus = corpus_of(*records)
    scheme = corpus.scheme
    year_range = (corpus.window[0], corpus.window[1] + end_offset)
    timelines = build_timelines(corpus)
    statuses = build_statuses(timelines, year_range, grace=grace)

    bf_timelines = bf.timelines(bf.parse_records(lines(*records)), oracle_scheme(scheme))
    expected = {
        (a, year): bf.status(positions, year, grace)
        for a, positions in bf_timelines.items()
        for year in range(year_range[0], year_range[1] + 1)
        if year >= positions[0][0]
    }
    assert statuses == expected
    assert all(year >= timelines[a].first_year for a, year in statuses)
    shared = {}  # authors share each year's int, not one per cell
    assert all(shared.setdefault(year, year) is year for _, year in statuses)

    states = {a: classify(tl, detect_moves(tl), "CHN", scheme) for a, tl in timelines.items()}
    bf_classes = {
        a: bf.classes(positions, bf.moves(positions), "CHN")
        for a, positions in bf_timelines.items()
    }
    cells = stock_table(states, timelines, year_range[1], grace=grace)
    got = {(c.class_key, c.year): (c.preceding, c.new_movement) for c in cells}
    assert got == bf.stocks(bf_timelines, bf_classes, year_range, grace)


def test_stock_table_overseas_entry(scheme):
    records = [
        rec("p0", 2009, [("a1", ["CHN"])]),
        rec("p1", 2010, [("a1", ["USA"])]),
        rec("p2", 2011, [("a1", ["USA"])]),
        rec("p3", 2012, [("a1", ["USA"])]),
    ]
    states, timelines = pipeline_states(scheme, records)
    cells = stock_table(states, timelines, 2012)
    overseas = {(c.year): c for c in cells if c.class_key == "Overseas(CHN,USA)"}
    assert (overseas[2010].preceding, overseas[2010].new_movement) == (0, 1)
    assert (overseas[2011].preceding, overseas[2011].new_movement) == (1, 0)
    assert (overseas[2012].preceding, overseas[2012].new_movement) == (1, 0)


def test_stock_table_empty_corpus(scheme):
    assert stock_table({}, {}) == []
    assert stock_table({}, {}, 2010) == []


def test_stock_table_returnee_grace_window(scheme):
    records = [
        rec("p0", 2010, [("a1", ["CHN"])]),
        rec("p1", 2012, [("a1", ["USA"])]),
        rec("p2", 2014, [("a1", ["CHN"])]),
    ]
    states, timelines = pipeline_states(scheme, records)
    cells = stock_table(states, timelines, 2018)
    ret = {c.year: c for c in cells if c.class_key == "ReturneeResident(CHN,USA)"}
    assert set(ret) == {2014, 2015, 2016}
    assert (ret[2014].preceding, ret[2014].new_movement) == (0, 1)
    assert (ret[2015].preceding, ret[2015].new_movement) == (1, 0)
    assert (ret[2016].preceding, ret[2016].new_movement) == (1, 0)


def test_retired_years_are_excluded(scheme):
    records = [rec("p0", 2010, [("a1", ["CHN"])])]
    states, timelines = pipeline_states(scheme, records)
    cells = stock_table(states, timelines, 2016)
    years = {c.year for c in cells}
    assert years == {2010, 2011, 2012}


def test_gap_years_keep_class_and_entry_year(scheme):
    records = [
        rec("p0", 2010, [("a1", ["USA"])]),
        rec("p1", 2011, [("a1", ["CHN"])]),
        rec("p2", 2015, [("a1", ["CHN"])]),
    ]
    states, timelines = pipeline_states(scheme, records)
    cells = stock_table(states, timelines, 2015)
    ret = {c.year: (c.preceding, c.new_movement) for c in cells
           if c.class_key == "ReturneeResident(CHN,USA)"}
    # gap years 2012-2014 carry the class forward as preceding stock
    assert ret == {2011: (0, 1), 2012: (1, 0), 2013: (1, 0), 2014: (1, 0), 2015: (1, 0)}


RATIO = "overseas_returnee_ratio"


def ratio_lists(cells, home, hosts):
    return [list(r) for r in ratio_rows(cells, home, hosts)]


def test_ratio_rows_values():
    cells = [
        StockCell("Overseas(CHN,USA)", 2017, 10, 4),
        StockCell("ReturneeResident(CHN,USA)", 2017, 9, 1),
        StockCell("Overseas(CHN,EU28)", 2017, 5, 4),
        StockCell("ReturneeResident(CHN,EU28)", 2017, 8, 2),
    ]
    assert ratio_lists(cells, "CHN", ["USA", "EU28"]) == [
        ["USA", 2017, RATIO, "full", pytest.approx(1.4)],
        ["EU28", 2017, RATIO, "full", pytest.approx(0.9)],
    ]


def test_ratio_rows_zero_numerator():
    cells = [StockCell("ReturneeResident(CHN,USA)", 2017, 5, 0)]
    assert ratio_lists(cells, "CHN", ["USA"]) == [["USA", 2017, RATIO, "full", 0.0]]


def test_ratio_rows_infinite_when_no_returnees():
    cells = [StockCell("Overseas(CHN,USA)", 2017, 5, 0)]
    assert ratio_lists(cells, "CHN", ["USA"]) == [["USA", 2017, RATIO, "full", math.inf]]


def test_ratio_rows_omitted_when_both_empty():
    # 2017 has stock, but none of it overseas in or returned from USA or EU28
    cells = [StockCell("Domestic(CHN)", 2017, 3, 0), StockCell("Overseas(CHN,EU28)", 2018, 1, 0)]
    assert ratio_lists(cells, "CHN", ["USA", "EU28"]) == [["EU28", 2018, RATIO, "full", math.inf]]
    assert ratio_rows([], "CHN", ["USA"]) == []
