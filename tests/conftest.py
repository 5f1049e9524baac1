import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from careertrace.corpus import default_scheme, parse_corpus


def rec(pub_id, year, authors, seq=0, fields=("F1",), doc_type="ar", cites=0):
    """Record dict shorthand: authors = [(id, [countries...]), ...]."""
    return {
        "pub_id": pub_id,
        "year": year,
        "seq": seq,
        "fields": list(fields),
        "doc_type": doc_type,
        "cites": cites,
        "authors": [{"id": a, "countries": list(c)} for a, c in authors],
    }


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports the package from ``src``."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


def lines(*records):
    return [json.dumps(r) for r in records]


def corpus_of(*records, scheme=None, window=None):
    return parse_corpus(lines(*records), scheme or default_scheme(), window)


def guest_affiliations(corpus) -> int:
    """Authorships that list two countries, as dual-affiliation noise makes them."""
    return sum(len(a.countries) == 2 for r in corpus.records for a in r.authorships)


def random_records(rng: random.Random, n: int, years=(2000, 2008)):
    """Small random corpora for oracle-equivalence checks."""
    countries = ["CHN", "USA", "DEU", "FRA", "JPN", "BRA"]
    fields = ["F1", "F2", "F3"]
    doc_types = ["ar", "re"]
    n_authors = max(3, n // 4)
    author_ids = [f"x{i:03d}" for i in range(n_authors)]
    records = []
    for i in range(n):
        year = rng.randint(*years)
        team = rng.sample(author_ids, k=min(len(author_ids), rng.randint(1, 4)))
        authors = []
        for a in team:
            k = 2 if rng.random() < 0.25 else 1
            authors.append((a, [rng.choice(countries) for _ in range(k)]))
        f = rng.sample(fields, k=1 if rng.random() < 0.8 else 2)
        records.append(
            rec(
                f"p{i:04d}",
                year,
                authors,
                seq=rng.randint(0, 3),
                fields=f,
                doc_type=rng.choice(doc_types),
                cites=rng.randint(0, 40) if rng.random() > 0.1 else 0,
            )
        )
    return records


def load_workloads_module(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded by path."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def scheme():
    return default_scheme()
