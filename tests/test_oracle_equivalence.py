import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from careertrace.corpus import default_scheme, parse_corpus
from careertrace.indicators import ratio_rows
from careertrace.mobility import (
    DOMESTIC,
    HOST_ATTRIBUTIONS,
    OVERSEAS,
    classify,
    detect_moves,
)
from careertrace.stocks import build_statuses, stock_table
from careertrace.synth import ScenarioConfig, degrade, generate
from careertrace.timeline import build_timelines

from conftest import guest_affiliations, random_records
from equivalence import compare_pipeline_to_oracle, oracle_scheme


def test_random_corpora_match_oracle(scheme):
    for seed in range(5):
        records = random_records(random.Random(seed), 120)
        compare_pipeline_to_oracle([json.dumps(r) for r in records], scheme)


def test_synthetic_corpora_match_oracle(scheme):
    guests = 0
    for seed in range(3):
        cfg = ScenarioConfig(seed=seed, n_authors=30, year_range=(2004, 2011))
        corpus = degrade(*generate(cfg, scheme), dual_affiliation_probability=0.15, seed=seed)
        guests += guest_affiliations(corpus)
        compare_pipeline_to_oracle(list(corpus.dump_lines()), scheme)
    assert guests > 0


every_home_and_grace = given(
    seed=st.integers(0, 2**32 - 1),
    home=st.sampled_from(default_scheme().labels),
    grace=st.integers(0, 3),
)


@settings(max_examples=25, deadline=None)
@every_home_and_grace
def test_oracle_holds_for_every_home_and_grace(seed, home, grace):
    records = random_records(random.Random(seed), 80)
    compare_pipeline_to_oracle([json.dumps(r) for r in records], default_scheme(), home, grace)


@settings(max_examples=25, deadline=None)
@every_home_and_grace
def test_ratio_rows_match_oracle(seed, home, grace):
    corpus_lines = [json.dumps(r) for r in random_records(random.Random(seed), 80)]
    scheme = default_scheme()
    corpus = parse_corpus(corpus_lines, scheme)
    timelines = build_timelines(corpus)
    states = {a: classify(tl, detect_moves(tl), home, scheme) for a, tl in timelines.items()}
    cells = stock_table(states, build_statuses(timelines, corpus.window, grace=grace),
                        corpus.window)

    bf_timelines = bf.timelines(bf.parse_records(corpus_lines), oracle_scheme(scheme))
    bf_classes = {a: bf.classes(p, bf.moves(p), home) for a, p in bf_timelines.items()}
    bf_cells = bf.stocks(bf_timelines, bf_classes, corpus.window, grace)
    hosts = [r for r in scheme.labels if r != home]
    assert [list(r) for r in ratio_rows(cells, home, hosts)] == bf.ratios(bf_cells, home, hosts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_label_order_timelines_match_oracle(seed):
    """A quarter of random authorships list two countries, so ties occur; under
    ``label_order`` they ignore the previous year."""
    corpus_lines = [json.dumps(r) for r in random_records(random.Random(seed), 80)]
    scheme = default_scheme()
    timelines = build_timelines(parse_corpus(corpus_lines, scheme), "label_order")
    expected = bf.timelines(bf.parse_records(corpus_lines), oracle_scheme(scheme),
                            hysteresis=False)
    assert {
        a: [(p.year, p.source_pub, p.dominant) for p in tl.positions]
        for a, tl in timelines.items()
    } == {a: [(y, pub, dom) for y, _w, pub, dom in positions] for a, positions in expected.items()}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    home=st.sampled_from(default_scheme().labels),
    host_attribution=st.sampled_from(HOST_ATTRIBUTIONS),
)
def test_moves_and_classes_match_oracle(seed, home, host_attribution):
    """Moves and classes equal the oracle's under either host attribution; every
    move joins two consecutive positions (A->B->C never gives A->C), and once a
    returnee, an author never reverts to Domestic or Overseas."""
    corpus_lines = [json.dumps(r) for r in random_records(random.Random(seed), 80)]
    scheme = default_scheme()
    timelines = build_timelines(parse_corpus(corpus_lines, scheme))
    bf_timelines = bf.timelines(bf.parse_records(corpus_lines), oracle_scheme(scheme))
    for author, tl in timelines.items():
        positions = bf_timelines[author]
        moves = detect_moves(tl)
        got = [(m.from_region, m.to_region, m.year) for m in moves]
        assert got == bf.moves(positions), author
        steps = {(p.dominant, q.dominant, q.year) for p, q in zip(tl.positions, tl.positions[1:])}
        assert set(got) <= steps, author

        states = classify(tl, moves, home, scheme, host_attribution)
        assert {s.year: (s.klass, s.since_year) for s in states} == bf.classes(
            positions, bf.moves(positions), home, host_attribution), author
        kinds = [s.klass.partition("(")[0] for s in states]
        returned = [k not in (DOMESTIC, OVERSEAS) for k in kinds]
        assert returned == sorted(returned), author
