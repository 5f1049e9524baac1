"""Synthetic corpora from a parameterized career model, with ground truth.

The latent process: each author enters in a random year, holds one region
per year (one concrete country per stint), may relocate according to
per-year hazards, may return to origin, and may stop publishing for good.
Papers are emitted author-led with sampled teams; ground truth records the
latent origin, moves, per-year class and retirement year, so detection and
aggregation logic can be scored against a known answer.

Generation is deterministic for a fixed (config, seed): identical inputs
produce byte-identical corpus and truth dumps.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field, asdict
from typing import Iterator

from .corpus import Authorship, Corpus, PublicationRecord, RegionScheme, regionalize
from .errors import InvalidConfig
from .mobility import HOST_ATTRIBUTIONS, domestic, overseas, returnee_abroad, returnee_resident
from .timeline import dominant_region


@dataclass
class ScenarioConfig:
    seed: int = 0
    n_authors: int = 200
    year_range: tuple[int, int] = (2000, 2017)
    home: str = "CHN"
    origin_weights: dict[str, float] = field(
        default_factory=lambda: {"CHN": 0.55, "USA": 0.25, "EU28": 0.20}
    )
    pub_probability: float = 0.85
    # region -> destination -> yearly relocation probability; each row sums
    # to at most 1
    move_hazard: dict[str, dict[str, float]] = field(
        default_factory=lambda: {
            "CHN": {"USA": 0.04, "EU28": 0.02},
            "USA": {"CHN": 0.01, "EU28": 0.01},
            "EU28": {"CHN": 0.01, "USA": 0.01},
        }
    )
    return_hazard: float = 0.08
    retire_hazard: float = 0.02
    field_weights: dict[str, float] = field(
        default_factory=lambda: {"F1": 0.4, "F2": 0.35, "F3": 0.25}
    )
    second_field_probability: float = 0.1
    doc_type: str = "ar"
    # field -> (mean, dispersion); citations ~ gamma-poisson mixture
    citation_model: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {"F1": (6.0, 1.2), "F2": (10.0, 1.0), "F3": (18.0, 0.8)}
    )
    team_size_weights: dict[int, float] = field(
        default_factory=lambda: {1: 0.25, 2: 0.35, 3: 0.25, 4: 0.15}
    )
    same_region_preference: float = 0.65
    returnee_host_boost: float = 3.0
    host_attribution: str = "latest"

    def to_json(self) -> str:
        obj = asdict(self)
        obj["year_range"] = list(self.year_range)
        obj["citation_model"] = {k: list(v) for k, v in self.citation_model.items()}
        obj["team_size_weights"] = {str(k): v for k, v in self.team_size_weights.items()}
        return json.dumps(obj, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"scenario config is not valid JSON ({exc.msg})") from None
        except RecursionError:
            raise InvalidConfig("scenario config is not valid JSON (nesting too deep)") from None
        if not isinstance(raw, dict):
            raise InvalidConfig("scenario config must be a JSON object")
        known = set(ScenarioConfig.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfig([f"unknown config key {k!r}" for k in sorted(unknown)])
        defaults = json.loads(ScenarioConfig().to_json())
        misshapen = [
            f"{key} must have the JSON shape of its default, {json.dumps(defaults[key])}"
            for key, value in raw.items() if not _shaped_like(value, defaults[key])
        ]
        if misshapen:
            raise InvalidConfig(misshapen)
        cfg = ScenarioConfig()
        for key, value in raw.items():
            if key == "year_range":
                value = tuple(value)
            elif key == "citation_model":
                value = {k: tuple(v) for k, v in value.items()}
            elif key == "team_size_weights":
                try:
                    value = {int(k): v for k, v in value.items()}
                except ValueError:
                    raise InvalidConfig("team_size_weights keys must be integers") from None
            setattr(cfg, key, value)
        return cfg


def _shaped_like(value: object, example: object) -> bool:
    """True when the JSON ``value`` has the structure of ``example``: the same
    containers, each element shaped like the example's first, a number where
    it has a float and an integer where it has an integer."""
    if isinstance(example, dict):
        inner = next(iter(example.values()))
        return isinstance(value, dict) and all(_shaped_like(v, inner) for v in value.values())
    if isinstance(example, list):
        return isinstance(value, list) and all(_shaped_like(v, example[0]) for v in value)
    if isinstance(example, float):
        return type(value) in (int, float)
    return type(value) is type(example)


def validate_config(config: ScenarioConfig, scheme: RegionScheme) -> None:
    """Field-level validation; raises InvalidConfig listing every problem."""
    problems: list[str] = []
    labels = set(scheme.labels)

    def prob(name: str, value: float) -> None:
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"{name} must be a probability in [0,1], got {value!r}")

    if not isinstance(config.n_authors, int) or config.n_authors < 0:
        problems.append(f"n_authors must be a non-negative integer, got {config.n_authors!r}")
    y = config.year_range
    if len(y) != 2 or y[0] > y[1]:
        problems.append(f"year_range must be (first, last) with first <= last, got {y!r}")
    prob("pub_probability", config.pub_probability)
    prob("return_hazard", config.return_hazard)
    prob("retire_hazard", config.retire_hazard)
    prob("second_field_probability", config.second_field_probability)
    prob("same_region_preference", config.same_region_preference)
    if config.home not in labels:
        problems.append(f"home {config.home!r} is not a scheme region")
    if config.host_attribution not in HOST_ATTRIBUTIONS:
        problems.append(f"host_attribution must be {' or '.join(map(repr, HOST_ATTRIBUTIONS))}, "
                        f"got {config.host_attribution!r}")
    if not config.origin_weights or any(w < 0 for w in config.origin_weights.values()):
        problems.append("origin_weights must be non-negative with positive total")
    elif sum(config.origin_weights.values()) <= 0:
        problems.append("origin_weights must have positive total")
    for region in config.origin_weights:
        if region not in labels:
            problems.append(f"origin region {region!r} is not a scheme region")
        elif not scheme.countries_of(region):
            problems.append(f"origin region {region!r} has no member countries in the scheme")
    for src, row in config.move_hazard.items():
        if src not in labels:
            problems.append(f"move_hazard source {src!r} is not a scheme region")
        total = 0.0
        for dst, p in row.items():
            if dst == src:
                problems.append(f"move_hazard {src}->{dst} targets itself")
            if dst not in labels:
                problems.append(f"move_hazard target {dst!r} is not a scheme region")
            elif not scheme.countries_of(dst):
                problems.append(f"move_hazard target {dst!r} has no member countries")
            if not 0.0 <= p <= 1.0:
                problems.append(f"move_hazard {src}->{dst} must be in [0,1], got {p!r}")
            total += p
        if total > 1.0:
            problems.append(f"move_hazard row {src!r} sums to {total} > 1")
    if any(w < 0 for w in config.field_weights.values()) or sum(config.field_weights.values()) <= 0:
        problems.append("field_weights must be non-negative with positive total")
    for f in config.field_weights:
        if f not in config.citation_model:
            problems.append(f"field {f!r} missing from citation_model")
    for f, params in config.citation_model.items():
        if len(params) != 2 or params[0] < 0 or params[1] <= 0:
            problems.append(f"citation_model[{f!r}] must be (mean >= 0, dispersion > 0)")
        elif params[0] > 1000:
            problems.append(f"citation_model[{f!r}] mean {params[0]} too large (max 1000)")
    if any(
        (not isinstance(k, int)) or k < 1 or w < 0 for k, w in config.team_size_weights.items()
    ) or sum(config.team_size_weights.values()) <= 0:
        problems.append("team_size_weights must map sizes >= 1 to non-negative weights "
                        "with positive total")
    if config.returnee_host_boost < 0:
        problems.append(f"returnee_host_boost must be >= 0, got {config.returnee_host_boost!r}")
    if problems:
        raise InvalidConfig(problems)


@dataclass
class AuthorTruth:
    origin: str
    moves: list[tuple[str, str, int]]
    classes: dict[int, str]  # active year -> mobility class key
    retirement_year: int | None  # first silent year, None if active at window end


@dataclass
class GroundTruth:
    authors: dict[str, AuthorTruth]

    def dump_lines(self) -> Iterator[str]:
        for author_id in sorted(self.authors):
            t = self.authors[author_id]
            obj = {
                "author_id": author_id,
                "origin": t.origin,
                "moves": [list(m) for m in t.moves],
                "classes": {str(y): k for y, k in sorted(t.classes.items())},
                "retirement_year": t.retirement_year,
            }
            yield json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _weighted_choice(rng: random.Random, items: list, weights: list[float]):
    total = sum(weights)
    x = rng.random() * total
    for item, w in zip(items, weights):
        x -= w
        if x <= 0:
            return item
    return items[-1]


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > 500:  # exp(-lam) underflows past about 745; a sum of Poissons is Poisson
        return _poisson(rng, lam / 2) + _poisson(rng, lam / 2)
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _draw_citations(rng: random.Random, mean: float, dispersion: float) -> int:
    if mean <= 0:
        return 0
    lam = rng.gammavariate(dispersion, mean / dispersion)
    return _poisson(rng, lam)


def _true_classes(
    locations: dict[int, str],
    moves: list[tuple[str, str, int]],
    origin: str,
    home: str,
    host_attribution: str,
) -> dict[int, str]:
    """Class per latent active year; same rules the detector is held to."""
    inbound = {y: frm for frm, to, y in moves if to == home}
    classes: dict[int, str] = {}
    returnee_host: str | None = None
    for year in sorted(locations):
        loc = locations[year]
        frm = inbound.get(year)
        if frm is not None and (returnee_host is None or host_attribution == "latest"):
            returnee_host = frm
        if returnee_host is not None:
            key = returnee_resident(home, returnee_host) if loc == home else returnee_abroad(home, loc)
        elif loc == origin:
            key = domestic(origin)
        else:
            key = overseas(origin, loc)
        classes[year] = key
    return classes


def generate(config: ScenarioConfig, scheme: RegionScheme) -> tuple[Corpus, GroundTruth]:
    """Simulate careers and emit (corpus, ground truth) for the scenario."""
    validate_config(config, scheme)
    rng = random.Random(config.seed)
    y0, y1 = config.year_range

    origin_regions = sorted(config.origin_weights)
    origin_w = [config.origin_weights[r] for r in origin_regions]
    field_names = sorted(config.field_weights)
    field_w = [config.field_weights[f] for f in field_names]
    team_sizes = sorted(config.team_size_weights)
    team_w = [config.team_size_weights[s] for s in team_sizes]
    region_countries = {r: sorted(scheme.countries_of(r)) for r in scheme.labels}

    author_ids = [f"a{i:06d}" for i in range(config.n_authors)]
    # latent career state
    countries: list[dict[int, tuple[str]]] = []  # per author: active year -> (country,)
    truths: dict[str, AuthorTruth] = {}
    # active year -> region -> authors there; years nobody is active in are absent
    pool: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))

    for idx, author_id in enumerate(author_ids):
        entry = rng.randint(y0, y1)
        origin = _weighted_choice(rng, origin_regions, origin_w)
        loc = origin
        listed = (rng.choice(region_countries[origin]),)  # the countries a record lists
        locs: dict[int, str] = {}
        ctys: dict[int, tuple[str]] = {}
        moves: list[tuple[str, str, int]] = []
        retirement: int | None = None
        for year in range(entry, y1 + 1):
            if year > entry:
                if rng.random() < config.retire_hazard:
                    retirement = year
                    break
                new_loc = loc
                if loc != origin and rng.random() < config.return_hazard:
                    new_loc = origin
                else:
                    row = config.move_hazard.get(loc, {})
                    if row:
                        dests = sorted(row)
                        x = rng.random()
                        acc = 0.0
                        for dst in dests:
                            acc += row[dst]
                            if x < acc:
                                new_loc = dst
                                break
                if new_loc != loc:
                    moves.append((loc, new_loc, year))
                    loc = new_loc
                    listed = (rng.choice(region_countries[loc]),)
            locs[year] = loc
            ctys[year] = listed
            pool[year][loc].append(idx)
        countries.append(ctys)
        truths[author_id] = AuthorTruth(
            origin=origin,
            moves=moves,
            classes=_true_classes(locs, moves, origin, config.home, config.host_attribution),
            retirement_year=retirement,
        )

    # a returnee-resident lead author's class key -> the former host region
    former_host = {returnee_resident(config.home, r): r for r in scheme.labels}
    records: list[PublicationRecord] = []
    pub_counter = 0
    for year in sorted(pool):
        year_pool = pool[year]
        pool_regions = sorted(year_pool)
        seq = 0
        for region in pool_regions:
            for idx in year_pool[region]:
                if rng.random() >= config.pub_probability:
                    continue
                author_id = author_ids[idx]
                size = _weighted_choice(rng, team_sizes, team_w)
                team = [idx]
                boost_region = former_host.get(truths[author_id].classes[year])
                for _ in range(size - 1):
                    if rng.random() < config.same_region_preference:
                        target = region
                    else:
                        others = [r for r in pool_regions if r != region]
                        if not others:
                            target = region
                        else:
                            w = [
                                len(year_pool[r])
                                * (config.returnee_host_boost if r == boost_region else 1.0)
                                for r in others
                            ]
                            if sum(w) <= 0:
                                target = region
                            else:
                                target = _weighted_choice(rng, others, w)
                    candidates = year_pool[target]
                    for _attempt in range(4):
                        pick = candidates[rng.randrange(len(candidates))]
                        if pick not in team:
                            team.append(pick)
                            break
                f = _weighted_choice(rng, field_names, field_w)
                fields = [f]
                if len(field_names) > 1 and rng.random() < config.second_field_probability:
                    second = _weighted_choice(rng, field_names, field_w)
                    if second != f:
                        fields.append(second)
                mean, dispersion = config.citation_model[f]
                cites = _draw_citations(rng, mean, dispersion)
                records.append(
                    PublicationRecord(
                        pub_id=f"p{pub_counter:08d}",
                        year=year,
                        seq=seq,
                        field_codes=tuple(fields),
                        doc_type=config.doc_type,
                        citation_count=cites,
                        authorships=tuple(
                            Authorship(author_ids[m], countries[m][year]) for m in team
                        ),
                    )
                )
                pub_counter += 1
                seq += 1
    corpus = Corpus(records=records, scheme=scheme, window=(y0, y1))
    return corpus, GroundTruth(authors=truths)


def degrade(
    corpus: Corpus,
    truth: GroundTruth,
    gap_probability: float = 0.0,
    dual_affiliation_probability: float = 0.0,
    seed: int = 0,
) -> Corpus:
    """Noisy copy of a corpus; the latent process (and truth) is unchanged.

    Gap noise removes whole author-years of authorships (records left with
    no authors are dropped). Dual-affiliation noise appends a guest country
    from the author's previous observed dominant region, producing 50/50
    region ties that the dominant-region hysteresis must absorb.
    """
    for name, p in (
        ("gap_probability", gap_probability),
        ("dual_affiliation_probability", dual_affiliation_probability),
    ):
        if not 0.0 <= p <= 1.0:
            raise InvalidConfig(f"{name} must be in [0,1], got {p!r}")
    rng = random.Random(seed)
    scheme = corpus.scheme

    author_years: dict[str, list[int]] = {}
    for rec in corpus.records:
        for a in rec.authorships:
            years = author_years.setdefault(a.author_id, [])
            if not years or years[-1] != rec.year:
                years.append(rec.year)

    dropped: set[tuple[str, int]] = set()
    dual: set[tuple[str, int]] = set()
    for author_id in sorted(author_years):
        for year in author_years[author_id]:
            if rng.random() < gap_probability:
                dropped.add((author_id, year))
            elif rng.random() < dual_affiliation_probability:
                dual.add((author_id, year))

    # Guest country = the author's previous observed dominant region,
    # tracked over the degraded stream in canonical order. The injection is
    # decided at the author-year's first surviving record (the
    # position-defining one) and applied to all records of that year.
    prev_dom: dict[str, str] = {}
    prev_countries: dict[str, tuple[str, ...]] = {}
    seen_year: dict[str, int] = {}
    year_inject: dict[str, tuple[str, ...] | None] = {}
    out_records: list[PublicationRecord] = []
    for rec in corpus.records:
        new_auths = []
        for a in rec.authorships:
            aid = a.author_id
            if (aid, rec.year) in dropped:
                continue
            if seen_year.get(aid) != rec.year:
                injected: tuple[str, ...] | None = None
                if (aid, rec.year) in dual and aid in prev_dom:
                    guest = None
                    for c in prev_countries[aid]:
                        if scheme.region_of(c) == prev_dom[aid]:
                            guest = c
                            break
                    if guest is not None and scheme.region_of(guest) != scheme.region_of(a.countries[0]):
                        injected = (a.countries[0], guest)
                effective = injected if injected is not None else a.countries
                prev_dom[aid] = dominant_region(
                    regionalize(effective, scheme), prev_dom.get(aid), scheme
                )
                prev_countries[aid] = effective
                year_inject[aid] = injected
                seen_year[aid] = rec.year
            injected = year_inject.get(aid)
            new_auths.append(a if injected is None else Authorship(aid, injected))
        if new_auths:
            out_records.append(
                PublicationRecord(
                    pub_id=rec.pub_id,
                    year=rec.year,
                    seq=rec.seq,
                    field_codes=rec.field_codes,
                    doc_type=rec.doc_type,
                    citation_count=rec.citation_count,
                    authorships=tuple(new_auths),
                )
            )
    return Corpus(records=out_records, scheme=scheme, window=corpus.window)
