import itertools
import json
import random

from careertrace.corpus import parse_corpus
from careertrace.timeline import build_timelines, dominant_region

from conftest import corpus_of, random_records, rec


def test_positions_from_yearly_first_publication(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])]),
        rec("p2", 2007, [("a1", ["USA"])]),
    )
    tl = build_timelines(corpus)["a1"]
    assert [(p.year, p.weights, p.dominant) for p in tl.positions] == [
        (2005, {"CHN": 1.0}, "CHN"),
        (2007, {"USA": 1.0}, "USA"),
    ]
    assert tl.origin_region == "CHN"
    assert tl.first_year == 2005 and tl.last_year == 2007


def test_first_of_year_rule_uses_seq(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])], seq=0),
        rec("p2", 2005, [("a1", ["USA"])], seq=1),
    )
    tl = build_timelines(corpus)["a1"]
    assert len(tl.positions) == 1
    assert tl.positions[0].weights == {"CHN": 1.0}
    assert tl.positions[0].source_pub == "p1"


def test_first_of_year_falls_back_to_pub_id(scheme):
    corpus = corpus_of(
        rec("pB", 2005, [("a1", ["USA"])]),
        rec("pA", 2005, [("a1", ["CHN"])]),
    )
    tl = build_timelines(corpus)["a1"]
    assert tl.positions[0].source_pub == "pA"
    assert tl.positions[0].dominant == "CHN"


def test_multi_country_first_publication(scheme):
    corpus = corpus_of(rec("p1", 2005, [("a1", ["CHN", "USA"])]))
    tl = build_timelines(corpus)["a1"]
    pos = tl.positions[0]
    assert pos.weights == {"CHN": 0.5, "USA": 0.5}
    # no previous year: the tie resolves by label order
    assert pos.dominant == "CHN"
    assert tl.origin_ambiguous


def test_dominant_unique_maximum(scheme):
    assert dominant_region({"CHN": 1.0}, None, scheme) == "CHN"
    assert dominant_region({"CHN": 0.25, "USA": 0.75}, "CHN", scheme) == "USA"


def test_dominant_tie_hysteresis(scheme):
    assert dominant_region({"CHN": 0.5, "USA": 0.5}, "USA", scheme) == "USA"


def test_dominant_tie_label_order_fallback(scheme):
    assert dominant_region({"CHN": 0.5, "USA": 0.5}, None, scheme) == "CHN"
    # previous dominant not among the tied regions
    assert dominant_region({"USA": 0.5, "EU28": 0.5}, "CHN", scheme) == "USA"


def test_dominant_two_region_tie_table(scheme):
    """Exhaustive table over two-region ties and every previous-dominant value."""
    regions = ["CHN", "USA", "EU28", "OTHER"]
    for a, b in itertools.combinations(regions, 2):
        weights = {a: 0.5, b: 0.5}
        for prev in [None] + regions:
            got = dominant_region(weights, prev, scheme)
            if prev in (a, b):
                expected = prev
            else:
                expected = min((a, b), key=scheme.rank)
            assert got == expected, (a, b, prev)


def test_hysteresis_prevents_flapping(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["USA"])]),
        rec("p2", 2006, [("a1", ["CHN", "USA"])]),
        rec("p3", 2007, [("a1", ["USA", "CHN"])]),
    )
    tl = build_timelines(corpus)["a1"]
    assert [p.dominant for p in tl.positions] == ["USA", "USA", "USA"]


def test_one_position_per_active_year(scheme):
    rng = random.Random(11)
    records = random_records(rng, 150)
    corpus = corpus_of(*records)
    timelines = build_timelines(corpus)
    pairs = {(a["id"], r["year"]) for r in records for a in r["authors"]}
    assert sum(len(tl.positions) for tl in timelines.values()) == len(pairs)
    for tl in timelines.values():
        years = [p.year for p in tl.positions]
        assert years == sorted(years)
        assert len(set(years)) == len(years)
        assert tl.origin_region == tl.positions[0].dominant


def test_build_timelines_permutation_invariant(scheme):
    records = random_records(random.Random(5), 120)
    lns = [json.dumps(r) for r in records]
    shuffled = list(lns)
    random.Random(17).shuffle(shuffled)
    t1 = build_timelines(parse_corpus(lns, scheme))
    t2 = build_timelines(parse_corpus(shuffled, scheme))
    assert t1.keys() == t2.keys()
    for author in t1:
        p1 = [(p.year, p.source_pub, p.dominant, p.weights) for p in t1[author].positions]
        p2 = [(p.year, p.source_pub, p.dominant, p.weights) for p in t2[author].positions]
        assert p1 == p2


def test_tied_weights_shared_by_authors_keep_each_previous_region(scheme):
    """Authors share one weights dict per country tuple, but a tie is settled
    by each author's own previous region, so no tie-broken result is shared.
    The authors meet the tie in one order in 2005 and in the reverse order,
    with the countries listed the other way round, in 2006."""
    corpus = corpus_of(
        rec("p1", 2004, [("a1", ["USA"]), ("a2", ["CHN"]), ("a3", ["DEU"])]),
        rec("p2", 2005, [("a1", ["CHN", "USA"]), ("a2", ["CHN", "USA"]),
                         ("a3", ["CHN", "USA"]), ("a4", ["CHN", "USA"])]),
        rec("p3", 2006, [("a4", ["USA", "CHN"]), ("a3", ["USA", "CHN"]),
                         ("a2", ["USA", "CHN"]), ("a1", ["USA", "CHN"])]),
    )
    for tie_rule, expected in [
        # a3's previous region is not among the tied ones; a4 has none in 2005
        ("hysteresis", {"a1": ["USA", "USA", "USA"], "a2": ["CHN", "CHN", "CHN"],
                        "a3": ["EU28", "CHN", "CHN"], "a4": ["CHN", "CHN"]}),
        ("label_order", {"a1": ["USA", "CHN", "CHN"], "a2": ["CHN", "CHN", "CHN"],
                         "a3": ["EU28", "CHN", "CHN"], "a4": ["CHN", "CHN"]}),
    ]:
        timelines = build_timelines(corpus, tie_rule)
        assert {a: [p.dominant for p in tl.positions] for a, tl in timelines.items()} == expected
        assert timelines["a1"].positions[1].weights is timelines["a4"].positions[0].weights
