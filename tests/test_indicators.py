import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from careertrace.corpus import Corpus, default_scheme, parse_corpus, regionalize
from careertrace.indicators import (
    IndicatorEngine,
    citation_baselines,
    fwci,
    intl_copub,
    nearest_rank_90th,
    top10_flags,
)
from careertrace.mobility import classify, detect_moves
from careertrace.timeline import build_timelines
from conftest import corpus_of, lines, random_records, rec
from equivalence import compare_pipeline_to_oracle, oracle_record_weights, pooled_direction_share


def states_for(corpus, home="CHN"):
    timelines = build_timelines(corpus)
    return {
        a: classify(tl, detect_moves(tl), home, corpus.scheme)
        for a, tl in timelines.items()
    }


def engine_for(corpus, home="CHN"):
    return IndicatorEngine(corpus, states_for(corpus, home), home)


def share_rows(engine):
    """(population, year, counting) -> value of the output_share rows."""
    return {
        (r.population, r.year, r.counting): r.value
        for r in engine.share_rows()
        if r.metric == "output_share"
    }


def class_intl_rows(engine):
    return {(r.population, r.year, r.counting): r.value for r in engine.class_intl_rows()}


def test_baseline_mean(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])], cites=10),
        rec("p2", 2005, [("a2", ["CHN"])], cites=0),
        rec("p3", 2005, [("a3", ["CHN"])], cites=5),
        rec("p4", 2005, [("a4", ["CHN"])], cites=5),
    )
    base = citation_baselines(corpus)
    assert base[("F1", 2005, "ar")] == 5.0


def test_baseline_singleton(scheme):
    corpus = corpus_of(rec("p1", 2005, [("a1", ["CHN"])], cites=7))
    assert citation_baselines(corpus)[("F1", 2005, "ar")] == 7.0


def test_baseline_all_zero(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])], cites=0),
        rec("p2", 2005, [("a2", ["CHN"])], cites=0),
    )
    assert citation_baselines(corpus)[("F1", 2005, "ar")] == 0.0


def test_multi_field_record_joins_every_cohort(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])], fields=("F1", "F2"), cites=6),
        rec("p2", 2005, [("a2", ["CHN"])], fields=("F1",), cites=0),
    )
    base = citation_baselines(corpus)
    assert base == {("F1", 2005, "ar"): 3.0, ("F2", 2005, "ar"): 6.0}


def test_fwci_simple_division(scheme):
    corpus = corpus_of(rec("p1", 2005, [("a1", ["CHN"])], cites=10))
    base = {("F1", 2005, "ar"): 5.0}
    assert fwci(corpus.records[0], base) == 2.0


def test_fwci_zero_citations(scheme):
    corpus = corpus_of(rec("p1", 2005, [("a1", ["CHN"])], cites=0))
    base = {("F1", 2005, "ar"): 4.0}
    assert fwci(corpus.records[0], base) == 0.0


def test_fwci_multi_field_mean_of_baselines(scheme):
    corpus = corpus_of(rec("p1", 2005, [("a1", ["CHN"])], fields=("F1", "F2"), cites=4))
    base = {("F1", 2005, "ar"): 2.0, ("F2", 2005, "ar"): 6.0}
    assert fwci(corpus.records[0], base) == 1.0


def test_top10_twenty_distinct_values_flags_two(scheme):
    corpus = corpus_of(
        *[rec(f"p{i:02d}", 2005, [(f"a{i}", ["CHN"])], cites=i) for i in range(20)]
    )
    fwci_flags, cits_flags = top10_flags(corpus, citation_baselines(corpus))
    ids = [r.pub_id for r in corpus.records]
    flagged = [p for p, flag in zip(ids, fwci_flags) if flag]
    assert sorted(flagged) == ["p18", "p19"]
    flagged_cits = [p for p, flag in zip(ids, cits_flags) if flag]
    assert sorted(flagged_cits) == ["p18", "p19"]


def test_top10_identical_values_flags_none(scheme):
    corpus = corpus_of(
        *[rec(f"p{i}", 2005, [(f"a{i}", ["CHN"])], cites=5) for i in range(10)]
    )
    fwci_flags, cits_flags = top10_flags(corpus, citation_baselines(corpus))
    assert not any(f or c for f, c in zip(fwci_flags, cits_flags))


def test_nearest_rank_90th():
    assert nearest_rank_90th(list(range(1, 21))) == 18
    assert nearest_rank_90th([5.0]) == 5.0
    assert nearest_rank_90th([1.0, 2.0]) == 2.0


def test_top10_year_cohorts_are_separate(scheme):
    records = [rec(f"p{i:02d}", 2005, [(f"a{i}", ["CHN"])], cites=i) for i in range(10)]
    records += [rec(f"q{i:02d}", 2006, [(f"b{i}", ["CHN"])], cites=100 + i) for i in range(10)]
    corpus = corpus_of(*records)
    _fwci_flags, cits_flags = top10_flags(corpus, citation_baselines(corpus))
    # each year cohort flags its own top value only
    assert {r.pub_id for r, flag in zip(corpus.records, cits_flags) if flag} == {"p09", "q09"}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_top10_flags_by_position_match_oracle(seed):
    """The flags are index-aligned with the records they are given, also when
    those are not in year order (``synth`` builds corpora directly)."""
    corpus_lines = lines(*random_records(random.Random(seed), 80, years=(2000, 2003)))
    expected = bf.top10(bf.parse_records(corpus_lines))
    corpus = parse_corpus(corpus_lines, default_scheme())
    shuffled = list(corpus.records)
    random.Random(seed).shuffle(shuffled)
    assert [r.year for r in shuffled] != sorted(r.year for r in shuffled)
    for records in (corpus.records, shuffled):
        c = Corpus(records=records, scheme=corpus.scheme, window=corpus.window)
        fwci_flags, cits_flags = top10_flags(c, citation_baselines(c))
        assert len(fwci_flags) == len(cits_flags) == len(records) == len(expected)
        for rec, got_fwci, got_cits in zip(records, fwci_flags, cits_flags):
            _score, t_fwci, t_cits = expected[rec.pub_id]
            assert (got_fwci, got_cits) == (t_fwci, t_cits), rec.pub_id


def test_pp10_rank_invariance_under_citation_scaling(scheme):
    rng = random.Random(9)
    records = random_records(rng, 120)
    corpus_a = corpus_of(*records)
    scaled = [dict(r, cites=r["cites"] * 7) for r in records]
    corpus_b = corpus_of(*scaled)
    fwci_a, cits_a = top10_flags(corpus_a, citation_baselines(corpus_a))
    fwci_b, cits_b = top10_flags(corpus_b, citation_baselines(corpus_b))
    # scaling moves no record, so position i is the same pub_id in both
    assert [r.pub_id for r in corpus_a.records] == [r.pub_id for r in corpus_b.records]
    assert fwci_a == fwci_b
    assert cits_a == cits_b


def test_output_share_zero_population(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"])]))
    rows = share_rows(engine_for(corpus))
    assert rows[("ALL->CHN", 2014, "frac")] == 0.0
    assert rows[("ALL->CHN", 2014, "full")] == 0.0


def test_output_share_returnee_weights(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])]),
        rec("p2", 2007, [("a1", ["USA"])]),
        rec("p3", 2014, [("a1", ["CHN"]), ("a2", ["CHN"])]),
    )
    # p3 is the only 2014 record and has home weight 1, so its returnee
    # weight (0.5) and full-count membership (1) are the 2014 shares
    rows = share_rows(engine_for(corpus))
    assert rows[("USA->CHN", 2014, "frac")] == pytest.approx(0.5)
    assert rows[("USA->CHN", 2014, "full")] == pytest.approx(1.0)


def test_output_share_empty_reference(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["USA"])]))
    engine = engine_for(corpus)
    assert engine.years() == [2014]
    assert not any(year == 2014 for _, year, _ in share_rows(engine))


def test_intl_copub_domestic_record(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"]), ("a2", ["CHN"])]))
    flag, pairs = intl_copub(corpus.records[0], scheme)
    assert flag is False and pairs == set()


def test_intl_copub_two_countries(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"]), ("a2", ["USA"])]))
    flag, pairs = intl_copub(corpus.records[0], scheme)
    assert flag is True and pairs == {("CHN", "USA")}


def test_intl_copub_single_author_multi_country(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN", "USA"])]))
    flag, pairs = intl_copub(corpus.records[0], scheme)
    assert flag is True and pairs == {("CHN", "USA")}
    flag, pairs = intl_copub(corpus.records[0], scheme, require_distinct_authors=True)
    assert flag is False and pairs == set()


def test_intl_copub_same_region_countries_have_no_pairs(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["DEU"]), ("a2", ["FRA"])]))
    flag, pairs = intl_copub(corpus.records[0], scheme)
    assert flag is True
    assert pairs == set()


def test_intl_copub_three_regions(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"]), ("a2", ["USA"]), ("a3", ["DEU"])]))
    _, pairs = intl_copub(corpus.records[0], scheme)
    assert pairs == {("CHN", "USA"), ("CHN", "EU28"), ("USA", "EU28")}


def test_class_intl_share_no_international_records(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"])]))
    engine = engine_for(corpus)
    assert engine.years() == [2014]
    assert not any(year == 2014 for _, year, _ in class_intl_rows(engine))


def test_class_intl_share_fifty_percent(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("a1", ["CHN"])]),
        rec("p2", 2007, [("a1", ["USA"])]),
        # returnee-side international record and a purely domestic-side one,
        # with equal home weights
        rec("p3", 2014, [("a1", ["CHN"]), ("c1", ["USA"])]),
        rec("p4", 2014, [("b1", ["CHN"]), ("b2", ["USA"])]),
    )
    rows = class_intl_rows(engine_for(corpus))
    assert rows[("USA->CHN", 2014, "frac")] == pytest.approx(0.5)
    assert rows[("USA->CHN", 2014, "full")] == pytest.approx(0.5)


def test_copub_direction_leans_to_former_host(scheme):
    corpus = corpus_of(
        rec("p1", 2005, [("r1", ["DEU"])]),
        rec("p2", 2008, [("r1", ["CHN"])]),
        rec("p3", 2009, [("r1", ["CHN"]), ("e1", ["FRA"])]),
        rec("p4", 2009, [("d1", ["CHN"]), ("u1", ["USA"])]),
    )
    rows = {(r.population, r.year, r.metric): r.value for r in engine_for(corpus).direction_rows()}
    toward_host = rows[("EU28->CHN", 2009, "direction_CHN-EU28")]
    toward_other = rows[("EU28->CHN", 2009, "direction_CHN-USA")]
    assert toward_host == pytest.approx(0.5)
    assert toward_other == 0.0


def test_copub_direction_empty_series(scheme):
    corpus = corpus_of(rec("p1", 2014, [("a1", ["CHN"])]))
    engine = engine_for(corpus)
    assert not [r for r in engine.direction_rows() if r.metric == "direction_CHN-EU28"]
    assert pooled_direction_share(engine, "EU28->CHN", "EU28") is None


def test_output_share_constructed_thirteen_percent(scheme):
    """100 home papers of unit weight, 13 by resident returnees: share 13%."""
    records = []
    for i in range(13):
        records.append(rec(f"h{i:02d}", 2005, [(f"r{i}", ["CHN"])]))
        records.append(rec(f"a{i:02d}", 2007, [(f"r{i}", ["USA"])]))
    target = []
    for i in range(13):
        target.append(rec(f"t{i:02d}", 2014, [(f"r{i}", ["CHN"])]))
    for i in range(87):
        target.append(rec(f"d{i:02d}", 2014, [(f"d{i}", ["CHN"])]))
    corpus = corpus_of(*(records + target))
    rows = share_rows(engine_for(corpus))
    assert abs(rows[("ALL->CHN", 2014, "frac")] - 0.13) < 1e-12
    assert rows[("ALL->CHN", 2014, "full")] == pytest.approx(0.13)


def test_class_intl_share_constructed_twenty_seven_percent(scheme):
    """International home records with exactly 27% of home weight held by returnees."""
    history = [
        rec("h0", 2005, [("r0", ["CHN"])]),
        rec("h1", 2007, [("r0", ["USA"])]),
        rec("h2", 2014, [("r0", ["CHN"])]),  # position-defining, domestic-country
    ]
    intl = []
    # 27 returnee-side international records and 73 domestic-side ones,
    # all with home weight 0.5
    for i in range(27):
        intl.append(rec(f"i{i:02d}", 2014, [("r0", ["CHN"]), (f"u{i}", ["USA"])], seq=1))
    for i in range(73):
        intl.append(rec(f"j{i:02d}", 2014, [(f"c{i}", ["CHN"]), (f"v{i}", ["USA"])], seq=1))
    corpus = corpus_of(*(history + intl))
    share = class_intl_rows(engine_for(corpus))[("ALL->CHN", 2014, "frac")]
    assert abs(share - 0.27) < 1e-9


def region_weights_of(record, scheme):
    """Fractional region weights of one record: each authorship's
    ``regionalize`` weights over the number of authorships."""
    out: dict[str, float] = {}
    n = len(record.authorships)
    for a in record.authorships:
        for region, w in regionalize(a.countries, scheme).items():
            out[region] = out.get(region, 0.0) + w / n
    return out


def test_record_weights_sum_to_one(scheme):
    rng = random.Random(13)
    records = random_records(rng, 150)
    corpus = corpus_of(*records)
    total = 0.0
    for record in corpus.records:
        weights = region_weights_of(record, scheme)
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        total += sum(weights.values())
    assert abs(total - len(corpus.records)) < 1e-9


def test_full_count_dominates_fractional_weight(scheme):
    rng = random.Random(19)
    corpus_lines = lines(*random_records(rng, 150))
    series = ("WLD", "CHN", "EU28", "ALL->CHN", "DOM", "CHN->USA")
    for weights in oracle_record_weights(corpus_lines, scheme):
        for name in series:
            frac = weights.get(name, 0.0)
            full = 1.0 if frac > 0.0 else 0.0
            assert full >= frac - 1e-12
            assert frac >= 0.0
    # the engine's full and fractional rows equal the oracle's on this corpus
    compare_pipeline_to_oracle(corpus_lines, scheme)


def test_home_output_partitions_across_classes(scheme):
    rng = random.Random(29)
    records = random_records(rng, 200)
    corpus = corpus_of(*records)
    states = states_for(corpus)
    classes = {a: {s.year: s.klass for s in sts} for a, sts in states.items()}
    home_by_year: dict[int, float] = {}
    for record in corpus.records:
        home_w = region_weights_of(record, scheme).get("CHN", 0.0)
        home_by_year[record.year] = home_by_year.get(record.year, 0.0) + home_w
        n = len(record.authorships)
        by_kind: dict[str, float] = {}
        for a in record.authorships:
            kind = classes[a.author_id][record.year].partition("(")[0]
            share = regionalize(a.countries, scheme).get("CHN", 0.0) / n
            by_kind[kind] = by_kind.get(kind, 0.0) + share
        assert abs(sum(by_kind.values()) - home_w) < 1e-12
    # the engine's fractional world share is the same home weight over the record count
    engine = IndicatorEngine(corpus, states, "CHN")
    for r in engine.share_rows():
        if r.metric == "world_share" and r.counting == "frac":
            n_year = sum(1 for rec_ in corpus.records if rec_.year == r.year)
            assert abs(r.value * n_year - home_by_year[r.year]) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
def test_fractional_weights_split_each_record_once(seed, n):
    """A record's unit weight splits over its authorships, then over each
    authorship's countries: in every year the weights sum to the oracle's
    record count, and the frac world shares of all home regions sum to 1."""
    scheme = default_scheme()
    corpus_lines = lines(*random_records(random.Random(seed), n))
    corpus = parse_corpus(corpus_lines, scheme)
    count: dict[int, int] = {}
    for record in bf.parse_records(corpus_lines):
        count[record["year"]] = count.get(record["year"], 0) + 1
    weight: dict[int, float] = {}
    for record in corpus.records:
        weight[record.year] = weight.get(record.year, 0.0) + sum(
            region_weights_of(record, scheme).values())
    assert weight.keys() == count.keys()
    for year, n_year in count.items():
        assert abs(weight[year] - n_year) < 1e-9, year

    timelines = build_timelines(corpus)
    moves = {a: detect_moves(tl) for a, tl in timelines.items()}
    world: dict[int, float] = {}
    for home in scheme.labels:
        states = {a: classify(tl, moves[a], home, scheme) for a, tl in timelines.items()}
        for r in IndicatorEngine(corpus, states, home).share_rows():
            if r.metric == "world_share" and r.counting == "frac":
                world[r.year] = world.get(r.year, 0.0) + r.value
    assert world.keys() == count.keys()
    for year, share in world.items():
        assert abs(share - 1.0) < 1e-9, year


def test_engine_matches_oracle_on_random_corpus(scheme):
    rng = random.Random(37)
    compare_pipeline_to_oracle(lines(*random_records(rng, 150)), scheme)


def test_symmetric_generator_direction_shares_balance(scheme):
    """With equal propensities the two direction shares agree statistically."""
    from careertrace.synth import ScenarioConfig, generate

    diffs = []
    for seed in range(20):
        cfg = ScenarioConfig(
            seed=seed, n_authors=300, year_range=(2000, 2012),
            origin_weights={"CHN": 0.6, "USA": 0.2, "EU28": 0.2},
            pub_probability=0.9,
            move_hazard={"CHN": {"USA": 0.05, "EU28": 0.05},
                         "USA": {"CHN": 0.02}, "EU28": {"CHN": 0.02}},
            return_hazard=0.25,
            team_size_weights={2: 0.45, 3: 0.35, 4: 0.2},
            same_region_preference=0.55,
            returnee_host_boost=1.0,
        )
        corpus, _ = generate(cfg, scheme)
        states = states_for(corpus)
        engine = IndicatorEngine(corpus, states, "CHN")
        eu = pooled_direction_share(engine, "EU28->CHN", "EU28")
        us = pooled_direction_share(engine, "EU28->CHN", "USA")
        diffs.append(eu - us)
    mean = sum(diffs) / len(diffs)
    var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
    stderr = math.sqrt(var / len(diffs))
    assert abs(mean) <= 2 * stderr, (mean, stderr)


def test_engine_pp10_world_equals_flag_share(scheme):
    rng = random.Random(41)
    records = random_records(rng, 200)
    corpus = corpus_of(*records)
    states = states_for(corpus)
    engine = IndicatorEngine(corpus, states, "CHN")
    fwci_flags, _cits_flags = top10_flags(corpus, citation_baselines(corpus))
    rows = {(r.population, r.year, r.metric, r.counting): r.value for r in engine.pp10_rows()}
    for year in sorted({r.year for r in corpus.records}):
        year_recs = [r for r in corpus.records if r.year == year]
        flagged = [r for r, flag in zip(corpus.records, fwci_flags) if flag and r.year == year]
        expected = len(flagged) / len(year_recs)
        assert rows[("WLD", year, "pp10_fwci", "full")] == pytest.approx(expected)
