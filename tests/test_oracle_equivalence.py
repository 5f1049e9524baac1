import json
import random

from careertrace.synth import ScenarioConfig, generate

from conftest import random_records
from equivalence import compare_pipeline_to_oracle


def test_random_corpora_match_oracle(scheme):
    for seed in range(5):
        records = random_records(random.Random(seed), 120)
        compare_pipeline_to_oracle([json.dumps(r) for r in records], scheme)


def test_synthetic_corpora_match_oracle(scheme):
    for seed in range(3):
        cfg = ScenarioConfig(
            seed=seed,
            n_authors=30,
            year_range=(2004, 2011),
            multi_affiliation_probability=0.15,
        )
        corpus, _ = generate(cfg, scheme)
        compare_pipeline_to_oracle(list(corpus.dump_lines()), scheme)
