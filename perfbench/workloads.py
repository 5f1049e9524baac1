"""Workload definitions for the careertrace benchmark.

A workload is a synthetic-corpus scenario plus the sequence of CLI commands
run against it. Every command path is relative to the run's work directory,
so manifests name the same paths on every machine.

    python3 perfbench/workloads.py <workload> <seed> <corpus path> <result path>

with ``PYTHONPATH`` naming the repository's ``src`` writes the workload's
corpus and, as JSON, what ``build_corpus`` returns; the benchmark times its
set-up that way, in a fresh interpreter each time.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from careertrace.corpus import Corpus, default_scheme
from careertrace.synth import ScenarioConfig, degrade, generate

CORPUS = "corpus.jsonl"
OUT = "out"
CACHE = "cache"

# The scenario of test_criterion_9_scale_smoke (1988-2017, its hazards).
CRITERION_9 = {
    "year_range": (1988, 2017),
    "pub_probability": 0.8,
    "retire_hazard": 0.02,
    "move_hazard": {
        "CHN": {"USA": 0.03, "EU28": 0.015},
        "USA": {"CHN": 0.01},
        "EU28": {"CHN": 0.01},
    },
    "return_hazard": 0.1,
}

# Authors in the small corpus that each run checks against the brute-force
# oracle before it measures anything.
ORACLE_AUTHORS = 60


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # file or directory under OUT that the command writes; None writes nothing
    output: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    n_authors: int
    scenario: dict
    commands: tuple[Command, ...]
    degrade: dict = field(default_factory=dict)

    def config(self, seed: int, n_authors: int | None = None) -> ScenarioConfig:
        cfg = ScenarioConfig(seed=seed, n_authors=n_authors or self.n_authors)
        for key, value in self.scenario.items():
            setattr(cfg, key, value)
        return cfg

    def describe(self) -> dict:
        """The scenario as recorded next to the pinned digests."""
        cfg = self.config(seed=0)
        return {
            "n_authors": cfg.n_authors,
            "year_range": list(cfg.year_range),
            "retire_hazard": cfg.retire_hazard,
            "move_hazard": cfg.move_hazard,
            "return_hazard": cfg.return_hazard,
            "pub_probability": cfg.pub_probability,
            "degrade": dict(self.degrade),
            "commands": [list(c.argv) for c in self.commands],
        }

    def generate(self, seed: int, scheme, n_authors: int | None = None) -> tuple[Corpus, float]:
        """The canonical corpus (synth.generate, then degrade where used) and the
        seconds synth.generate took."""
        t0 = time.perf_counter()
        corpus, truth = generate(self.config(seed, n_authors), scheme)
        generate_s = time.perf_counter() - t0
        if self.degrade:
            corpus = degrade(corpus, truth, seed=seed, **self.degrade)
        return corpus, generate_s


def build_corpus(workload: Workload, seed: int, scheme, path: Path) -> tuple[float, float, str, int]:
    """Write the workload's corpus file; returns (seconds, generate seconds, sha256, records).

    The timed set-up is generation, degradation, a seeded line shuffle, the
    write and a read-back digest of the written file.
    """
    t0 = time.perf_counter()
    corpus, generate_s = workload.generate(seed, scheme)
    lines = list(corpus.dump_lines())
    random.Random(seed).shuffle(lines)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return time.perf_counter() - t0, generate_s, digest, len(lines)


def _cmd(*argv: str, output: str | None = None) -> Command:
    return Command(tuple(argv), output)


# Sizes are about a quarter of a one-shot user run at 10k authors. That keeps
# a 30-second run at several iterations, for a steadier median, and lets the
# 70 runs of a full measurement finish within the hour.
WORKLOADS = {
    w.name: w
    for w in (
        # One-shot user path: parsing runs twice, the indicator engine does
        # the most work and the cache is bypassed.
        Workload(
            name="cold_batch",
            n_authors=2500,
            scenario=CRITERION_9,
            commands=(
                _cmd("validate", CORPUS),
                _cmd("indicators", CORPUS, "-o", f"{OUT}/ind", "--no-cache", "--end-year", "2017",
                     output="ind"),
                _cmd("report", f"{OUT}/ind", output="ind/report"),
            ),
        ),
        # The only workload where the cache both writes and reads: a fixed
        # sequence of commands over one corpus, starting from an empty cache.
        Workload(
            name="config_sweep",
            n_authors=1250,
            scenario=CRITERION_9,
            commands=(
                _cmd("indicators", CORPUS, "-o", f"{OUT}/s1", "--cache-dir", CACHE, output="s1"),
                _cmd("indicators", CORPUS, "-o", f"{OUT}/s2", "--cache-dir", CACHE, output="s2"),
                _cmd("indicators", CORPUS, "-o", f"{OUT}/s3", "--cache-dir", CACHE,
                     "--home", "USA", output="s3"),
                _cmd("stocks", CORPUS, "-o", f"{OUT}/s4.csv", "--cache-dir", CACHE,
                     "--home", "USA", "--end-year", "2015", output="s4.csv"),
                _cmd("moves", CORPUS, "-o", f"{OUT}/s5", "--cache-dir", CACHE, output="s5"),
                _cmd("indicators", CORPUS, "-o", f"{OUT}/s6", "--cache-dir", CACHE,
                     "--metrics", "stocks,ratio", output="s6"),
                _cmd("timelines", CORPUS, "-o", f"{OUT}/s7.csv", "--cache-dir", CACHE,
                     output="s7.csv"),
            ),
        ),
        # Long careers with gaps and dual affiliations: timelines, classes and
        # the author-year stock grid dominate and the indicator engine never runs.
        Workload(
            name="long_span_stocks",
            n_authors=2500,
            scenario={**CRITERION_9, "year_range": (1950, 2017), "retire_hazard": 0.05},
            degrade={"gap_probability": 0.15, "dual_affiliation_probability": 0.2},
            commands=(
                _cmd("moves", CORPUS, "-o", f"{OUT}/mv", "--no-cache", output="mv"),
                _cmd("stocks", CORPUS, "-o", f"{OUT}/st.csv", "--no-cache", "--end-year", "2017",
                     output="st.csv"),
            ),
        ),
    )
}


def main(argv: list[str]) -> int:
    name, seed, corpus_path, result_path = argv
    took, generate_s, digest, records = build_corpus(
        WORKLOADS[name], int(seed), default_scheme(), Path(corpus_path)
    )
    Path(result_path).write_text(json.dumps(
        {"seconds": took, "generate_s": generate_s, "sha256": digest, "records": records}
    ), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
