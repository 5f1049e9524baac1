"""Pipeline-vs-oracle comparison used by the equivalence tests.

The left side is the production pipeline; the right side is the brute-force
reimplementation in ``bruteforce``. Counts must match exactly, ratios within
1e-9, fractional weights within 1e-12 plus accumulation slack.
"""

from __future__ import annotations

import math

import bruteforce as bf
from careertrace.corpus import parse_corpus
from careertrace.indicators import IndicatorEngine, citation_baselines, fwci, top10_flags
from careertrace.mobility import classify, detect_moves
from careertrace.stocks import stock_table
from careertrace.timeline import build_timelines

RATIO_TOL = 1e-9
WEIGHT_TOL = 1e-11


def oracle_scheme(scheme) -> bf.Scheme:
    return bf.Scheme(
        {label: sorted(scheme.countries_of(label)) for label in scheme.labels},
        list(scheme.labels),
        scheme.other_label,
    )


def assert_close(a: float, b: float, tol: float, what: str) -> None:
    if math.isinf(a) or math.isinf(b):
        assert math.isinf(a) and math.isinf(b), what
        return
    assert abs(a - b) <= tol, f"{what}: {a} vs {b}"


def pooled_direction_share(engine, series: str, partner: str) -> float | None:
    """A class series' direction share toward ``partner`` pooled over all years,
    from the engine's output rows: sum(direction value x pair ``copub_count``
    full) / sum(pair ``copub_count`` full). None when the home region and
    ``partner`` share no co-publication."""
    pair = "-".join(sorted((engine.home, partner), key=engine.scheme.rank))
    den = {r.year: r.value for r in engine.intl_rows()
           if (r.population, r.metric, r.counting) == (pair, "copub_count", "full")}
    metric = f"direction_{engine.home}-{partner}"
    num = sum(r.value * den[r.year] for r in engine.direction_rows()
              if (r.population, r.metric) == (series, metric))
    total = sum(den.values())
    return num / total if total else None


def compare_pipeline_to_oracle(corpus_lines: list[str], scheme, home: str = "CHN",
                               grace: int = 2, require_distinct_authors: bool = False) -> None:
    corpus = parse_corpus(corpus_lines, scheme)
    records = bf.parse_records(corpus_lines)
    oracle = oracle_scheme(scheme)

    # timelines
    timelines = build_timelines(corpus)
    bf_timelines = bf.timelines(records, oracle)
    assert set(timelines) == set(bf_timelines)
    for author, tl in timelines.items():
        expected = bf_timelines[author]
        got = [(p.year, p.source_pub, p.dominant) for p in tl.positions]
        assert got == [(y, pub, dom) for y, _w, pub, dom in expected], author
        for pos, (_y, weights, _p, _d) in zip(tl.positions, expected):
            assert set(pos.weights) == set(weights)
            for region, w in weights.items():
                assert_close(pos.weights[region], w, WEIGHT_TOL, f"weight {author}/{pos.year}")

    # moves
    all_moves = {}
    for author, tl in timelines.items():
        got = [(m.from_region, m.to_region, m.year) for m in detect_moves(tl)]
        assert got == bf.moves(bf_timelines[author]), author
        all_moves[author] = detect_moves(tl)

    # states
    states = {
        a: classify(tl, all_moves[a], home, scheme) for a, tl in timelines.items()
    }
    bf_classes = {
        a: bf.classes(bf_timelines[a], bf.moves(bf_timelines[a]), home) for a in timelines
    }
    for author, sts in states.items():
        got = {s.year: (s.klass, s.since_year) for s in sts}
        assert got == bf_classes[author], author

    # stocks
    year_range = corpus.window
    cells = stock_table(states, timelines, year_range[1], grace=grace)
    got_cells = {(c.class_key, c.year): (c.preceding, c.new_movement) for c in cells}
    bf_positions = bf_timelines
    expected_cells = bf.stocks(bf_positions, bf_classes, year_range, grace)
    assert got_cells == expected_cells

    # citation baselines and scores
    baselines = citation_baselines(corpus)
    bf_base = bf.baselines(records)
    assert set(baselines) == set(bf_base)
    for key, value in bf_base.items():
        assert_close(baselines[key], value, RATIO_TOL, f"baseline {key}")
    fwci_flags, cits_flags = top10_flags(corpus, baselines)
    bf_scores = bf.top10(records)
    assert len(fwci_flags) == len(cits_flags) == len(corpus.records) == len(bf_scores)
    for rec, got_fwci, got_cits in zip(corpus.records, fwci_flags, cits_flags):
        score, t_fwci, t_cits = bf_scores[rec.pub_id]
        assert_close(fwci(rec, baselines), score, RATIO_TOL, f"fwci {rec.pub_id}")
        assert got_fwci == t_fwci, rec.pub_id
        assert got_cits == t_cits, rec.pub_id

    # indicator families from the engine
    distinct = require_distinct_authors
    engine = IndicatorEngine(corpus, states, home, distinct)
    foreign = [r for r in scheme.labels if r != home]
    series_list = (["DOM"] + [f"{home}->{f}" for f in foreign]
                   + [f"{f}->{home}" for f in foreign] + [f"ALL->{home}"])
    membership = _oracle_membership(bf_classes, home)
    _compare_share_rows(engine, records, oracle, membership, home, series_list, distinct)
    _compare_pp10_rows(engine, records, oracle, membership, bf_scores, home)
    _compare_intl_rows(engine, records, oracle, distinct)
    _compare_class_intl_rows(engine, records, oracle, membership, home, series_list, distinct)
    _compare_direction(engine, records, oracle, membership, home, foreign, series_list, distinct)


def _oracle_membership(bf_classes, home: str):
    """(author, year) -> set of reporting series, plus the weight mode."""

    def series_for(key: str) -> list[tuple[str, bool]]:
        if key == f"Domestic({home})":
            return [("DOM", False)]
        if key.startswith("Overseas(") and key[9:-1].split(",")[0] == home:
            host = key[9:-1].split(",")[1]
            return [(f"{home}->{host}", True)]
        if key.startswith("ReturneeResident(") and key[17:-1].split(",")[0] == home:
            host = key[17:-1].split(",")[1]
            return [(f"{host}->{home}", False), (f"ALL->{home}", False)]
        return []

    out = {}
    for author, classes in bf_classes.items():
        for year, (key, _since) in classes.items():
            out[(author, year)] = series_for(key)
    return out


def _series_weights(rec, oracle, membership, home: str):
    """series -> fractional weight of this record (engine conventions)."""
    n = len(rec["authors"])
    weights: dict[str, float] = {"WLD": 1.0}
    home_w = 0.0
    for author in rec["authors"]:
        w = bf.country_weights(author["countries"], oracle)
        share = w.get(home, 0.0) / n
        home_w += share
        for series, whole in membership.get((author["id"], rec["year"]), []):
            weights[series] = weights.get(series, 0.0) + ((1.0 / n) if whole else share)
    if home_w > 0:
        weights[home] = home_w
    return weights


def oracle_record_weights(corpus_lines: list[str], scheme, home: str = "CHN") -> list[dict]:
    """Per record, the oracle's fractional weight toward ``WLD``, each region
    label and each reporting series it feeds."""
    records = bf.parse_records(corpus_lines)
    oracle = oracle_scheme(scheme)
    positions = bf.timelines(records, oracle)
    membership = _oracle_membership(
        {a: bf.classes(p, bf.moves(p), home) for a, p in positions.items()}, home
    )
    out = []
    for rec in records:
        weights = _series_weights(rec, oracle, membership, home)
        n = len(rec["authors"])
        for author in rec["authors"]:
            for region, w in bf.country_weights(author["countries"], oracle).items():
                if region != home:  # _series_weights already holds home
                    weights[region] = weights.get(region, 0.0) + w / n
        out.append(weights)
    return out


def _compare_share_rows(engine, records, oracle, membership, home, series_list, distinct):
    rows = {(r.population, r.year, r.metric, r.counting): r.value for r in engine.share_rows()}
    years = sorted({r["year"] for r in records})
    for year in years:
        recs = [r for r in records if r["year"] == year]
        frac = {}
        full = {}
        intl_frac = intl_full = 0.0
        for rec in recs:
            w = _series_weights(rec, oracle, membership, home)
            for series, value in w.items():
                if value > 0:
                    frac[series] = frac.get(series, 0.0) + value
                    full[series] = full.get(series, 0) + 1
            if bf.is_international(rec, distinct) and w.get(home, 0.0) > 0:
                intl_frac += w[home]
                intl_full += 1
        world_frac, world_full = frac.get("WLD", 0.0), full.get("WLD", 0)
        home_frac, home_full = frac.get(home, 0.0), full.get(home, 0)
        if world_full:
            assert_close(rows[(home, year, "world_share", "full")], home_full / world_full,
                         RATIO_TOL, f"world_share full {year}")
            assert_close(rows[(home, year, "world_share", "frac")], home_frac / world_frac,
                         RATIO_TOL, f"world_share frac {year}")
        if home_full:
            assert_close(rows[(home, year, "intl_share", "full")], intl_full / home_full,
                         RATIO_TOL, f"intl_share full {year}")
            assert_close(rows[(home, year, "intl_share", "frac")], intl_frac / home_frac,
                         RATIO_TOL, f"intl_share frac {year}")
        for series in series_list:
            if home_full:
                assert_close(rows[(series, year, "output_share", "full")],
                             full.get(series, 0) / home_full, RATIO_TOL,
                             f"output_share full {series} {year}")
            if home_frac:
                assert_close(rows[(series, year, "output_share", "frac")],
                             frac.get(series, 0.0) / home_frac, RATIO_TOL,
                             f"output_share frac {series} {year}")


def _compare_pp10_rows(engine, records, oracle, membership, bf_scores, home):
    rows = {(r.population, r.year, r.metric, r.counting): r.value for r in engine.pp10_rows()}
    years = sorted({r["year"] for r in records})
    for year in years:
        recs = [r for r in records if r["year"] == year]
        agg: dict[str, list[float]] = {}
        for rec in recs:
            w = _series_weights(rec, oracle, membership, home)
            _score, t_fwci, t_cits = bf_scores[rec["pub_id"]]
            for series, value in w.items():
                if value <= 0:
                    continue
                slot = agg.setdefault(series, [0.0, 0, 0.0, 0, 0.0, 0])
                slot[0] += value
                slot[1] += 1
                if t_fwci:
                    slot[2] += value
                    slot[3] += 1
                if t_cits:
                    slot[4] += value
                    slot[5] += 1
        for series, slot in agg.items():
            assert_close(rows[(series, year, "pp10_fwci", "frac")], slot[2] / slot[0],
                         RATIO_TOL, f"pp10_fwci frac {series} {year}")
            assert_close(rows[(series, year, "pp10_fwci", "full")], slot[3] / slot[1],
                         RATIO_TOL, f"pp10_fwci full {series} {year}")
            assert_close(rows[(series, year, "pp10_cits", "frac")], slot[4] / slot[0],
                         RATIO_TOL, f"pp10_cits frac {series} {year}")
            assert_close(rows[(series, year, "pp10_cits", "full")], slot[5] / slot[1],
                         RATIO_TOL, f"pp10_cits full {series} {year}")


def _compare_intl_rows(engine, records, oracle, distinct):
    rows = {(r.population, r.year, r.counting): r.value for r in engine.intl_rows()}
    agg: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        for pair in bf.region_pairs(rec, oracle, distinct):
            label = f"{pair[0]}-{pair[1]}"
            slot = agg.setdefault((label, rec["year"]), [0, 0.0])
            slot[0] += 1
            n = len(rec["authors"])
            pair_w = 0.0
            for author in rec["authors"]:
                w = bf.country_weights(author["countries"], oracle)
                pair_w += (w.get(pair[0], 0.0) + w.get(pair[1], 0.0)) / n
            slot[1] += pair_w
    assert set(rows) == {(label, year, c) for (label, year) in agg for c in ("full", "frac")}
    for (label, year), (count, frac) in agg.items():
        assert rows[(label, year, "full")] == count, (label, year)
        assert_close(rows[(label, year, "frac")], frac, RATIO_TOL, f"intl frac {label} {year}")


def _compare_class_intl_rows(engine, records, oracle, membership, home, series_list, distinct):
    rows = {(r.population, r.year, r.counting): r.value for r in engine.class_intl_rows()}
    expected = {}
    for year in sorted({r["year"] for r in records}):
        den_frac = den_full = 0.0
        num_frac: dict[str, float] = {}
        num_full: dict[str, int] = {}
        for rec in records:
            if rec["year"] != year or not bf.is_international(rec, distinct):
                continue
            w = _series_weights(rec, oracle, membership, home)
            home_w = w.get(home, 0.0)
            if home_w <= 0:
                continue
            den_frac += home_w
            den_full += 1
            for series, value in w.items():
                if series in ("WLD", home) or value <= 0:
                    continue
                num_frac[series] = num_frac.get(series, 0.0) + value
                num_full[series] = num_full.get(series, 0) + 1
        if den_full == 0:
            continue
        for series in series_list:
            expected[(series, year, "frac")] = num_frac.get(series, 0.0) / den_frac
            expected[(series, year, "full")] = num_full.get(series, 0) / den_full
    assert set(rows) == set(expected), "class_intl row keys"
    for key, value in expected.items():
        assert_close(rows[key], value, RATIO_TOL, f"class_intl {key}")


def _compare_direction(engine, records, oracle, membership, home, foreign, series_list,
                       distinct):
    """Every per-year direction row, and the pooled share per series."""
    rows = {(r.population, r.year, r.metric): r.value for r in engine.direction_rows()}
    expected = {}
    for partner in foreign:
        pair = tuple(sorted((home, partner), key=oracle.rank))
        den: dict[int, float] = {}
        num: dict[tuple[str, int], float] = {}
        for rec in records:
            if pair not in bf.region_pairs(rec, oracle, distinct):
                continue
            year = rec["year"]
            den[year] = den.get(year, 0.0) + 1
            n = len(rec["authors"])
            for author in rec["authors"]:
                for series, _whole in membership.get((author["id"], year), []):
                    num[(series, year)] = num.get((series, year), 0.0) + 1.0 / n
        if not den:
            continue
        metric = f"direction_{home}-{partner}"
        for year, d in den.items():
            for series in series_list:
                expected[(series, year, metric)] = num.get((series, year), 0.0) / d
        total = sum(den.values())
        for series in series_list:
            pooled = sum(v for (s, _y), v in num.items() if s == series) / total
            assert_close(pooled_direction_share(engine, series, partner), pooled, RATIO_TOL,
                         f"direction {series} {partner}")
    assert set(rows) == set(expected), "direction row keys"
    for key, value in expected.items():
        assert_close(rows[key], value, RATIO_TOL, f"direction {key}")
