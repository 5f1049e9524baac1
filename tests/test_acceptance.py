"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from careertrace.cli import run
from careertrace.corpus import Corpus, PublicationRecord, default_scheme, parse_corpus, regionalize
from careertrace.indicators import IndicatorEngine, citation_baselines, top10_flags
from careertrace.mobility import classify, detect_moves, returnee_abroad, returnee_resident
from careertrace.stocks import RETIRED, build_statuses, stock_table
from careertrace.synth import ScenarioConfig, degrade, generate
from careertrace.timeline import build_timelines

from conftest import guest_affiliations, lines, random_records, rec
from equivalence import compare_pipeline_to_oracle, oracle_record_weights, pooled_direction_share

SCHEME = default_scheme()


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _pipeline_states(corpus, home="CHN"):
    timelines = build_timelines(corpus)
    return timelines, {
        a: classify(tl, detect_moves(tl), home, corpus.scheme)
        for a, tl in timelines.items()
    }


def test_criterion_1_worked_examples():
    """Hand-written career paths classify exactly as described."""
    t0 = time.perf_counter()

    # return path: first published at home, abroad later, back home
    corpus = parse_corpus(
        lines(
            rec("p1", 2005, [("a1", ["CHN"])]),
            rec("p2", 2007, [("a1", ["USA"])]),
            rec("p3", 2014, [("a1", ["CHN"])]),
        ),
        SCHEME,
    )
    _, states = _pipeline_states(corpus)
    got = {s.year: s.klass for s in states["a1"]}
    ok1 = got == {
        2005: "Domestic(CHN)",
        2007: "Overseas(CHN,USA)",
        2014: "ReturneeResident(CHN,USA)",
    }

    # chain semantics: USA -> EU -> CHN registers no USA -> CHN event
    corpus = parse_corpus(
        lines(
            rec("q1", 2006, [("b1", ["USA"])]),
            rec("q2", 2009, [("b1", ["DEU"])]),
            rec("q3", 2012, [("b1", ["CHN"])]),
        ),
        SCHEME,
    )
    tl = build_timelines(corpus)["b1"]
    moves = [(m.from_region, m.to_region, m.year) for m in detect_moves(tl)]
    ok2 = moves == [("USA", "EU28", 2009), ("EU28", "CHN", 2012)]

    # multi-cycle: years spent abroad again are excluded from returnee output
    corpus = parse_corpus(
        lines(
            rec("r1", 2005, [("c1", ["FRA"])]),
            rec("r2", 2008, [("c1", ["CHN"])]),
            rec("r3", 2011, [("c1", ["FRA"])]),
            rec("r4", 2014, [("c1", ["CHN"])]),
        ),
        SCHEME,
    )
    _, states = _pipeline_states(corpus)
    by_year = {s.year: s.klass for s in states["c1"]}
    ok3 = (
        by_year[2008] == returnee_resident("CHN", "EU28")
        and by_year[2011] == returnee_abroad("CHN", "EU28")
        and by_year[2014] == returnee_resident("CHN", "EU28")
    )
    # the abroad-year record carries no returnee-resident attribution
    engine = IndicatorEngine(corpus, states, "CHN")
    rows = {(r.population, r.year, r.metric, r.counting): r.value for r in engine.share_rows()}
    ok3 = ok3 and ("EU28->CHN", 2011, "output_share", "frac") not in rows

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 1: worked-example fidelity",
        ok1 and ok2 and ok3 and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_oracle_equivalence():
    """50 random corpora match the brute-force recomputation."""
    t0 = time.perf_counter()
    checked = 0
    for seed in range(25):
        records = random_records(random.Random(seed), 40 + 6 * seed)
        assert len(records) <= 200
        compare_pipeline_to_oracle([json.dumps(r) for r in records], SCHEME)
        checked += 1
    guests = 0
    for seed in range(25):
        cfg = ScenarioConfig(seed=seed, n_authors=25, year_range=(2004, 2011))
        corpus, truth = generate(cfg, SCHEME)
        if seed % 2:
            corpus = degrade(corpus, truth, dual_affiliation_probability=0.1, seed=seed)
            guests += guest_affiliations(corpus)
        assert len(corpus.records) <= 200
        compare_pipeline_to_oracle(list(corpus.dump_lines()), SCHEME)
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 2: oracle equivalence on 50 corpora",
        checked == 50 and guests > 0 and elapsed < 30.0,
        f"{checked} corpora, {guests} guest affiliations, {elapsed:.1f}s",
    )


def test_criterion_3_ground_truth_recovery():
    """Noise-free scenario: move detection is perfect against ground truth."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        seed=17,
        n_authors=1000,
        year_range=(1998, 2017),
        pub_probability=1.0,
    )
    corpus, truth = generate(cfg, SCHEME)
    timelines = build_timelines(corpus)
    detected = set()
    for author, tl in timelines.items():
        for m in detect_moves(tl):
            detected.add((author, m.from_region, m.to_region, m.year))
    true = {
        (a, frm, to, year)
        for a, t in truth.authors.items()
        for frm, to, year in t.moves
    }
    tp = len(detected & true)
    precision = tp / len(detected) if detected else 1.0
    recall = tp / len(true) if true else 1.0
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 3: ground-truth recovery",
        precision == 1.0 and recall == 1.0 and len(true) > 100 and elapsed < 10.0,
        f"precision={precision} recall={recall} true_moves={len(true)} {elapsed:.1f}s",
    )


def _class_by_author_year(states, statuses, year_range):
    """(author, year) -> (class key, since) for countable years, None if retired."""
    out = {}
    for author, sts in states.items():
        if not sts:
            continue
        years = sorted(s.year for s in sts)
        by_year = {s.year: s for s in sts}
        for year in range(years[0], year_range[1] + 1):
            status = statuses.get((author, year))
            if status is None or status == RETIRED:
                continue
            known = max(y for y in years if y <= year)
            st = by_year[known]
            out[(author, year)] = (st.klass, st.since_year)
    return out


def test_criterion_4_stock_rules():
    """Grace boundary, interior gap fill and flow conservation."""
    # exhaustive grace boundary
    boundary_ok = True
    for last in range(2001, 2013):
        corpus = parse_corpus(
            lines(rec("p0", 2000, [("a1", ["CHN"])]), rec("p1", last, [("a1", ["CHN"])])),
            SCHEME,
        )
        statuses = build_statuses(build_timelines(corpus), (1999, last + 4))
        boundary_ok = boundary_ok and ("a1", 1999) not in statuses
        for year in range(2000, last + 5):
            status = statuses.get(("a1", year))
            if year <= last:
                expect = "Active" if year in (2000, last) else "GapFilled"
            elif year <= last + 2:
                expect = "GapFilled"
            else:
                expect = "Retired"
            boundary_ok = boundary_ok and status == expect

    # interior gaps never reduce stocks
    corpus = parse_corpus(
        lines(rec("p0", 2000, [("a1", ["CHN"])]), rec("p1", 2012, [("a1", ["CHN"])])),
        SCHEME,
    )
    timelines = build_timelines(corpus)
    states = {a: classify(tl, [], "CHN", SCHEME) for a, tl in timelines.items()}
    cells = stock_table(states, timelines, 2012)
    dom = {c.year: c.total for c in cells if c.class_key == "Domestic(CHN)"}
    interior_ok = all(dom.get(y) == 1 for y in range(2000, 2013))

    # flow conservation on synthetic scenarios
    conservation_ok = True
    for seed in (3, 11, 29):
        cfg = ScenarioConfig(seed=seed, n_authors=120, year_range=(2000, 2012),
                             retire_hazard=0.05, return_hazard=0.15)
        corpus, _ = generate(cfg, SCHEME)
        timelines, states = _pipeline_states(corpus)
        year_range = corpus.window
        cells = stock_table(states, timelines, year_range[1])
        statuses = build_statuses(timelines, year_range)
        totals = {(c.class_key, c.year): c.total for c in cells}
        new = {(c.class_key, c.year): c.new_movement for c in cells}
        assign = _class_by_author_year(states, statuses, year_range)
        authors = {a for a, _ in assign}
        class_keys = {k for k, _ in totals}
        for key in class_keys:
            for year in range(year_range[0] + 1, year_range[1] + 1):
                prev_members = {a for a in authors if assign.get((a, year - 1), ("", 0))[0] == key}
                departures = sum(
                    1 for a in prev_members
                    if (a, year) in assign and assign[(a, year)][0] != key
                )
                retirements = sum(1 for a in prev_members if (a, year) not in assign)
                lhs = totals.get((key, year), 0)
                rhs = (
                    totals.get((key, year - 1), 0)
                    - departures
                    - retirements
                    + new.get((key, year), 0)
                )
                if lhs != rhs:
                    conservation_ok = False
    _verdict(
        "criterion 4: stock rules",
        boundary_ok and interior_ok and conservation_ok,
        f"boundary={boundary_ok} interior={interior_ok} conservation={conservation_ok}",
    )


def _pp10_corpus(seed=5):
    fields = {f"F{i:02d}": 1.0 for i in range(15)}
    cit = {f"F{i:02d}": (4.0 + 2.5 * i, 1.0 + 0.1 * i) for i in range(15)}
    cfg = ScenarioConfig(
        seed=seed, n_authors=2600, year_range=(2000, 2009), pub_probability=0.9,
        field_weights=fields, citation_model=cit, second_field_probability=0.12,
    )
    corpus, _ = generate(cfg, SCHEME)
    return corpus


def test_criterion_5_pp10_calibration():
    """World top-decile share sits at 10% up to cohort granularity."""
    t0 = time.perf_counter()
    corpus = _pp10_corpus()
    n = len(corpus.records)
    fwci_flags, cits_flags = top10_flags(corpus, citation_baselines(corpus))
    pp10 = sum(fwci_flags) / n
    in_band = abs(pp10 - 0.10) <= 0.005

    # rank invariance: scaling every citation count leaves flags unchanged;
    # the scaled corpus keeps the record order, so the flags align by position
    scaled_records = [PublicationRecord(r.pub_id, r.year, r.seq, r.field_codes, r.doc_type,
                                        r.citation_count * 3, r.authorships) for r in corpus.records]
    scaled = Corpus(records=scaled_records, scheme=corpus.scheme, window=corpus.window)
    scaled_fwci, scaled_cits = top10_flags(scaled, citation_baselines(scaled))
    invariant = scaled_fwci == fwci_flags and scaled_cits == cits_flags
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 5: PP10 calibration",
        n >= 10_000 and in_band and invariant,
        f"n={n} world_pp10={pp10:.4f} rank_invariant={invariant} {elapsed:.1f}s",
    )


def test_criterion_6_fractional_conservation():
    """Region weights of every record sum to 1; full counting dominates."""
    corpora = [
        [json.dumps(r) for r in random_records(random.Random(s), 150)] for s in (1, 2)
    ]
    cfg = ScenarioConfig(seed=8, n_authors=150)
    guest_corpus = degrade(*generate(cfg, SCHEME), dual_affiliation_probability=0.2, seed=8)
    assert guest_affiliations(guest_corpus) > 0
    corpora.append(list(guest_corpus.dump_lines()))
    series = ["WLD", *SCHEME.labels]
    series += ["DOM", "ALL->CHN", "USA->CHN", "EU28->CHN", "OTHER->CHN"]
    series += ["CHN->USA", "CHN->EU28", "CHN->OTHER"]
    conserved = True
    dominated = True
    for corpus_lines in corpora:
        corpus = parse_corpus(corpus_lines, SCHEME)
        total = 0.0
        for record in corpus.records:
            n = len(record.authorships)
            for a in record.authorships:
                total += sum(regionalize(a.countries, SCHEME).values()) / n
        conserved = conserved and abs(total - len(corpus.records)) <= 1e-9
        for weights in oracle_record_weights(corpus_lines, SCHEME):
            for name in series:
                frac = weights.get(name, 0.0)
                if (1.0 if frac > 0.0 else 0.0) + 1e-9 < frac:
                    dominated = False
        # the engine's full and fractional rows equal the oracle's
        compare_pipeline_to_oracle(corpus_lines, SCHEME)
    _verdict(
        "criterion 6: fractional-counting conservation",
        conserved and dominated,
        f"conserved={conserved} full_dominates={dominated}",
    )


def _direction_scenario(seed: int, boost: float) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed, n_authors=400, year_range=(2000, 2014),
        origin_weights={"CHN": 0.6, "USA": 0.2, "EU28": 0.2},
        pub_probability=0.9,
        move_hazard={
            "CHN": {"USA": 0.05, "EU28": 0.05},
            "USA": {"CHN": 0.02},
            "EU28": {"CHN": 0.02},
        },
        return_hazard=0.25, retire_hazard=0.01,
        team_size_weights={2: 0.45, 3: 0.35, 4: 0.2},
        same_region_preference=0.55,
        returnee_host_boost=boost,
    )


def test_criterion_7_directionality_signal():
    """Returnees' co-publications lean toward the former host in >= 19/20 seeds."""
    t0 = time.perf_counter()
    wins = 0
    usable = 0
    for seed in range(20):
        corpus, _ = generate(_direction_scenario(seed, boost=3.0), SCHEME)
        _, states = _pipeline_states(corpus)
        engine = IndicatorEngine(corpus, states, "CHN")
        toward_host = pooled_direction_share(engine, "EU28->CHN", "EU28")
        toward_other = pooled_direction_share(engine, "EU28->CHN", "USA")
        if toward_host is None or toward_other is None:
            continue
        usable += 1
        if toward_host > toward_other:
            wins += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 7: directionality signal",
        usable == 20 and wins >= 19,
        f"wins={wins}/20 {elapsed:.1f}s",
    )


def _data_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def test_criterion_8_determinism(tmp_path):
    """Byte-identical outputs across reruns, shuffled input and a warm cache."""
    corpus_a = tmp_path / "a.jsonl"
    corpus_b = tmp_path / "b.jsonl"
    for target in (corpus_a, corpus_b):
        assert run(["synth", "--seed", "21", "--n-authors", "150",
                    "-o", str(target), "--truth", str(target) + ".truth"]) == 0
    synth_identical = corpus_a.read_bytes() == corpus_b.read_bytes()

    shuffled = tmp_path / "shuffled.jsonl"
    body = corpus_a.read_text(encoding="utf-8").splitlines()
    random.Random(4).shuffle(body)
    shuffled.write_text("\n".join(body) + "\n", encoding="utf-8")

    outputs = []
    for name, src in (("r0", corpus_a), ("r1", corpus_a), ("r2", shuffled)):
        out = tmp_path / name
        assert run(["indicators", str(src), "-o", str(out), "--no-cache",
                    "--end-year", "2017"]) == 0
        assert run(["report", str(out)]) == 0
        outputs.append(_data_files(out))
    pipeline_identical = all(o == outputs[0] for o in outputs[1:])

    # warm cache reproduces cold-run outputs
    cache = tmp_path / "cache"
    cold = tmp_path / "cold"
    warm = tmp_path / "warm"
    assert run(["indicators", str(corpus_a), "-o", str(cold), "--cache-dir", str(cache),
                "--end-year", "2017"]) == 0
    assert run(["indicators", str(corpus_a), "-o", str(warm), "--cache-dir", str(cache),
                "--end-year", "2017"]) == 0
    stages = json.loads((warm / "manifest.json").read_text())["stages"]
    # warm run rebuilds nothing: every cached stage reports a hit and the
    # timeline build never even runs
    cache_hit = (
        any(s["cache"] == "hit" for s in stages)
        and not any(s["cache"] == "miss" for s in stages)
        and "timelines" not in {s["stage"] for s in stages if s["cache"] != "hit"}
    )
    cache_identical = _data_files(cold) == _data_files(warm)

    _verdict(
        "criterion 8: determinism",
        synth_identical and pipeline_identical and cache_hit and cache_identical,
        f"synth={synth_identical} pipeline={pipeline_identical} "
        f"cache_hit={cache_hit} cache_same={cache_identical}",
    )


@pytest.mark.slow
def test_criterion_9_scale_smoke(tmp_path):
    """100k authors, 30 years, ~1M records through the full pipeline in < 5 min,
    with `indicators` peaking at no more than 615 MB."""
    scenario = {
        "seed": 1,
        "n_authors": 100_000,
        "year_range": [1988, 2017],
        "pub_probability": 0.8,
        "retire_hazard": 0.02,
        "move_hazard": {
            "CHN": {"USA": 0.03, "EU28": 0.015},
            "USA": {"CHN": 0.01},
            "EU28": {"CHN": 0.01},
        },
        "return_hazard": 0.1,
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(scenario), encoding="utf-8")
    corpus_path = tmp_path / "corpus.jsonl"
    t0 = time.perf_counter()
    assert run(["synth", "--config", str(cfg_path), "-o", str(corpus_path),
                "--truth", str(tmp_path / "truth.jsonl")]) == 0
    t1 = time.perf_counter()
    # A process of its own, so that its peak memory is the command's alone. A
    # helper starts it and reports its usage: a child started from this
    # process would count this process's own peak, over 600 MB after the synth
    # above, in its max RSS.
    helper = ("import os, subprocess, sys\n"
              "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
              "_pid, status, usage = os.wait4(proc.pid, 0)\n"
              "print(usage.ru_maxrss)\n"
              "sys.exit(os.waitstatus_to_exitcode(status))\n")
    proc = subprocess.run(
        [sys.executable, "-c", helper, sys.executable, "-m", "careertrace.cli", "indicators",
         str(corpus_path), "-o", str(tmp_path / "ind"), "--no-cache", "--end-year", "2017"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    t2 = time.perf_counter()
    max_rss_mb = int(proc.stdout) / 1024  # kilobytes on Linux
    n_records = sum(1 for _ in open(corpus_path, encoding="utf-8"))
    elapsed = t2 - t0
    _verdict(
        "criterion 9: scale smoke test",
        1_000_000 <= n_records <= 2_000_000 and elapsed < 300.0 and max_rss_mb <= 615.0,
        f"records={n_records} synth={t1 - t0:.0f}s indicators={t2 - t1:.0f}s total={elapsed:.0f}s "
        f"indicators_max_rss={max_rss_mb:.0f}MB",
    )
