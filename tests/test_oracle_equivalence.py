import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace.corpus import default_scheme
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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    home=st.sampled_from(default_scheme().labels),
    grace=st.integers(0, 3),
)
def test_oracle_holds_for_every_home_and_grace(seed, home, grace):
    records = random_records(random.Random(seed), 80)
    compare_pipeline_to_oracle([json.dumps(r) for r in records], default_scheme(), home, grace)
