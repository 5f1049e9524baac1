import json
import random
import tracemalloc
from pathlib import Path

import pytest

from careertrace.corpus import default_scheme, parse_corpus
from careertrace.errors import InvalidConfig
from careertrace.mobility import classify, detect_moves
from careertrace.synth import ScenarioConfig, _poisson, degrade, generate, validate_config
from careertrace.timeline import build_timelines

from conftest import load_workloads_module


def noise_free(seed=0, n_authors=150, years=(2000, 2011)):
    return ScenarioConfig(
        seed=seed,
        n_authors=n_authors,
        year_range=years,
        pub_probability=1.0,
    )


def detected_moves(corpus):
    timelines = build_timelines(corpus)
    out = set()
    for author, tl in timelines.items():
        for m in detect_moves(tl):
            out.add((author, m.from_region, m.to_region, m.year))
    return out


def truth_moves(truth):
    out = set()
    for author, t in truth.authors.items():
        for frm, to, year in t.moves:
            out.add((author, frm, to, year))
    return out


def test_zero_authors_empty_outputs(scheme):
    corpus, truth = generate(ScenarioConfig(n_authors=0), scheme)
    assert len(corpus.records) == 0
    assert truth.authors == {}


def test_fixed_seed_is_byte_deterministic(scheme):
    cfg = ScenarioConfig(seed=42, n_authors=60, year_range=(2000, 2010))
    corpus_a, truth_a = generate(cfg, scheme)
    corpus_b, truth_b = generate(cfg, scheme)
    assert "\n".join(corpus_a.dump_lines()) == "\n".join(corpus_b.dump_lines())
    assert "\n".join(truth_a.dump_lines()) == "\n".join(truth_b.dump_lines())


def test_different_seeds_differ(scheme):
    corpus_a, _ = generate(ScenarioConfig(seed=1, n_authors=60), scheme)
    corpus_b, _ = generate(ScenarioConfig(seed=2, n_authors=60), scheme)
    assert "\n".join(corpus_a.dump_lines()) != "\n".join(corpus_b.dump_lines())


def test_generated_corpus_passes_validation(scheme):
    corpus, _ = generate(ScenarioConfig(seed=3, n_authors=80), scheme)
    reparsed = parse_corpus(corpus.dump_lines(), scheme, window=corpus.window)
    assert len(reparsed.records) == len(corpus.records)
    assert "\n".join(reparsed.dump_lines()) == "\n".join(corpus.dump_lines())


def test_noise_free_move_recovery(scheme):
    corpus, truth = generate(noise_free(seed=5), scheme)
    detected = detected_moves(corpus)
    true = truth_moves(truth)
    assert detected == true
    assert len(true) > 0


def test_noise_free_class_recovery(scheme):
    corpus, truth = generate(noise_free(seed=6), scheme)
    timelines = build_timelines(corpus)
    for author, tl in timelines.items():
        states = classify(tl, detect_moves(tl), "CHN", scheme)
        got = {s.year: s.klass for s in states}
        assert got == truth.authors[author].classes


def test_truth_class_monotonicity(scheme):
    _, truth = generate(ScenarioConfig(seed=7, n_authors=120), scheme)
    for author, t in truth.authors.items():
        seen_returnee = False
        for year in sorted(t.classes):
            is_ret = t.classes[year].startswith("Returnee")
            if is_ret:
                seen_returnee = True
            if seen_returnee:
                assert is_ret, (author, year)


def test_truth_round_trip(scheme):
    _, truth = generate(ScenarioConfig(seed=8, n_authors=40), scheme)
    dumped = [json.loads(line) for line in truth.dump_lines()]
    assert [obj["author_id"] for obj in dumped] == sorted(truth.authors)
    for obj in dumped:
        t = truth.authors[obj["author_id"]]
        assert set(obj) == {"author_id", "origin", "moves", "classes", "retirement_year"}
        assert list(obj["classes"]) == [str(y) for y in sorted(t.classes)]
        assert obj["classes"] == {str(y): k for y, k in t.classes.items()}
        assert (obj["origin"], obj["retirement_year"]) == (t.origin, t.retirement_year)
        assert [tuple(m) for m in obj["moves"]] == t.moves


def test_degrade_zero_noise_is_identity(scheme):
    corpus, truth = generate(ScenarioConfig(seed=9, n_authors=50), scheme)
    degraded = degrade(corpus, truth, 0.0, 0.0, seed=1)
    assert "\n".join(degraded.dump_lines()) == "\n".join(corpus.dump_lines())


def test_degrade_is_deterministic(scheme):
    corpus, truth = generate(ScenarioConfig(seed=10, n_authors=50), scheme)
    d1 = degrade(corpus, truth, 0.3, 0.1, seed=4)
    d2 = degrade(corpus, truth, 0.3, 0.1, seed=4)
    assert "\n".join(d1.dump_lines()) == "\n".join(d2.dump_lines())


def test_gap_noise_reduces_recall(scheme):
    """Removing publication-years delays detections past the true move year."""
    worse = 0
    ties = 0
    for seed in range(20):
        corpus, truth = generate(noise_free(seed=seed, n_authors=80), scheme)
        true = truth_moves(truth)
        if not true:
            ties += 1
            continue
        degraded = degrade(corpus, truth, gap_probability=0.3, seed=seed + 1000)
        recall_clean = len(detected_moves(corpus) & true) / len(true)
        recall_deg = len(detected_moves(degraded) & true) / len(true)
        assert recall_clean == 1.0
        assert recall_deg <= recall_clean
        if recall_deg < recall_clean:
            worse += 1
        else:
            ties += 1
    assert worse >= 15, (worse, ties)


def test_full_dual_affiliation_freezes_dominant(scheme):
    """50/50 guest ties resolved by hysteresis never produce a move event."""
    for seed in (0, 1, 2):
        corpus, truth = generate(noise_free(seed=seed, n_authors=60), scheme)
        degraded = degrade(corpus, truth, dual_affiliation_probability=1.0, seed=seed)
        assert detected_moves(degraded) == set()


def test_invalid_config_reports_every_problem(scheme):
    cfg = ScenarioConfig(
        n_authors=-1,
        pub_probability=1.5,
        move_hazard={"CHN": {"CHN": 0.5, "XXX": 0.9}},
        home="MARS",
        field_weights={"F1": 0.0, "F2": 0.0, "F3": 0.0},
        team_size_weights={1: 0.0, 2: 0.0},
    )
    with pytest.raises(InvalidConfig) as exc:
        validate_config(cfg, scheme)
    text = str(exc.value)
    assert "n_authors" in text
    assert "pub_probability" in text
    assert "targets itself" in text
    assert "MARS" in text
    assert "field_weights must be non-negative with positive total" in text
    assert "team_size_weights must map sizes >= 1 to non-negative weights with positive total" in text


def test_config_json_round_trip(scheme):
    cfg = ScenarioConfig(seed=11, n_authors=25, year_range=(2001, 2009))
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    for key in ("bogus", "multi_affiliation_probability"):
        with pytest.raises(InvalidConfig, match=f"unknown config key '{key}'"):
            ScenarioConfig.from_json(json.dumps({key: 0.1}))


def test_retirement_year_consistency(scheme):
    corpus, truth = generate(
        ScenarioConfig(seed=12, n_authors=200, retire_hazard=0.1, year_range=(2000, 2010)),
        scheme,
    )
    for t in truth.authors.values():
        years = sorted(t.classes)
        if t.retirement_year is not None:
            assert t.retirement_year == years[-1] + 1
        else:
            assert years[-1] == 2010


def test_poisson_mean_holds_past_exp_underflow():
    """exp(-lam) underflows past a mean of about 745; large means must not cap there."""
    rng = random.Random(3)
    for lam in (1000.0, 3000.0):
        draws = [_poisson(rng, lam) for _ in range(300)]
        assert abs(sum(draws) / len(draws) / lam - 1.0) < 0.03, lam


def test_generate_memory_follows_active_years_not_span(scheme):
    """Years nobody is active in cost nothing: a span of a million years stays small."""
    cfg = ScenarioConfig(seed=2, n_authors=50, year_range=(1, 1_000_000))
    tracemalloc.start()
    try:
        corpus, truth = generate(cfg, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(truth.authors) == 50 and corpus.records
    assert peak < 10 * 2**20, peak


def test_benchmark_corpora_match_their_pins(tmp_path, monkeypatch):
    """The seed-1 corpus of every benchmark workload is byte for byte the pinned one,
    so a changed random draw fails here and not only at benchmark set-up."""
    workloads = load_workloads_module(monkeypatch)
    pins = json.loads((Path(workloads.__file__).parent / "pins.json").read_text(encoding="utf-8"))
    assert set(pins["workloads"]) == set(workloads.WORKLOADS)
    for name, pinned in pins["workloads"].items():
        _, _, digest, records = workloads.build_corpus(
            workloads.WORKLOADS[name], 1, default_scheme(), tmp_path / f"{name}.jsonl"
        )
        assert (digest, records) == (pinned["seeds"]["1"]["corpus_sha256"],
                                     pinned["seeds"]["1"]["records"]), name
