"""Citation-impact, collaboration and stock-ratio indicators, in one row shape.

Counting conventions used throughout:

* fractional: a record's unit weight is split equally over its authorships;
  within an authorship, over its affiliation countries. A population with a
  region filter takes each qualifying authorship's weight on that region; a
  population without one takes the authorship's whole weight.
* full: a record counts once toward every population with at least one
  qualifying authorship.

FWCI is the record's citation count divided by the mean expected citations
of its (field, year, doc_type) cohorts; multi-field records average their
field cohorts. Top-10% flags use the nearest-rank 90th percentile of the
publication-year cohort with strict exceedance, on FWCI (field-normalized)
and on raw citation counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .corpus import Corpus, PublicationRecord, RegionScheme, regionalize
from .errors import EmptyReference, NoStateForYear
from .mobility import MobilityState, domestic, overseas, returnee_resident
from .stocks import StockCell

CohortKey = tuple[str, int, str]


def citation_baselines(corpus: Corpus) -> dict[CohortKey, float]:
    """Cohort means; a record with k fields joins each of its k cohorts."""
    totals: dict[CohortKey, int] = {}
    sizes: dict[CohortKey, int] = {}
    for rec in corpus.records:
        for f in rec.field_codes:
            key = (f, rec.year, rec.doc_type)
            totals[key] = totals.get(key, 0) + rec.citation_count
            sizes[key] = sizes.get(key, 0) + 1
    return {key: totals[key] / sizes[key] for key in totals}


def fwci(record: PublicationRecord, baselines: Mapping[CohortKey, float]) -> float:
    """Citations over the mean of the record's field-cohort expectations.

    A zero denominator yields 0.0: every cohort of the record then has a zero
    mean, so the record itself is uncited.
    """
    total = 0.0
    for f in record.field_codes:
        total += baselines[(f, record.year, record.doc_type)]
    denom = total / len(record.field_codes)
    return record.citation_count / denom if denom else 0.0


def nearest_rank_90th(values: list[float]) -> float:
    """Nearest-rank 90th percentile of a non-empty value list."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1]


@dataclass(slots=True)
class PubScore:
    fwci: float
    top10_fwci: bool
    top10_cits: bool


def top10_flags(corpus: Corpus, baselines: Mapping[CohortKey, float]) -> dict[str, PubScore]:
    """Per-record FWCI plus strict top-decile flags within the year cohort.

    FWCI flags rank field-normalized scores pooled across fields; citation
    flags rank raw counts. Ties at the threshold are not flagged, which
    keeps the world share at 10% up to cohort granularity.
    """
    fwci_by_year: dict[int, list[float]] = {}
    cits_by_year: dict[int, list[int]] = {}
    scores: dict[str, float] = {}
    for rec in corpus.records:
        score = fwci(rec, baselines)
        scores[rec.pub_id] = score
        fwci_by_year.setdefault(rec.year, []).append(score)
        cits_by_year.setdefault(rec.year, []).append(rec.citation_count)
    fwci_thresholds = {y: nearest_rank_90th(v) for y, v in fwci_by_year.items()}
    cits_thresholds = {y: nearest_rank_90th(v) for y, v in cits_by_year.items()}
    out: dict[str, PubScore] = {}
    for rec in corpus.records:
        score = scores[rec.pub_id]
        out[rec.pub_id] = PubScore(
            fwci=score,
            top10_fwci=score > fwci_thresholds[rec.year],
            top10_cits=rec.citation_count > cits_thresholds[rec.year],
        )
    return out


def intl_copub(
    record: PublicationRecord,
    scheme: RegionScheme,
    require_distinct_authors: bool = False,
) -> tuple[bool, set[tuple[str, str]]]:
    """International flag plus the record's cross-region pair set.

    A record is international when its affiliation countries span at least
    two distinct countries; with ``require_distinct_authors`` a single
    multi-country author is not enough. Pairs are unordered region pairs
    spanned by distinct countries, ordered by the scheme's label order.
    """
    countries: set[str] = set()
    for a in record.authorships:
        countries.update(a.countries)
    international = len(countries) >= 2 and (
        len(record.authorships) >= 2 or not require_distinct_authors
    )
    if not international:
        return False, set()
    regions = sorted({scheme.region_of(c) for c in countries}, key=scheme.rank)
    pairs = {
        (regions[i], regions[j])
        for i in range(len(regions))
        for j in range(i + 1, len(regions))
    }
    return True, pairs


class IndicatorRow(NamedTuple):
    population: str
    year: int
    metric: str
    counting: str
    value: float


INDICATOR_HEADER = list(IndicatorRow._fields)


def ratio_rows(cells: Iterable[StockCell], home: str, hosts: Iterable[str]) -> list[IndicatorRow]:
    """Overseas(home, host) stock over ReturneeResident(home, host) stock, one
    ``overseas_returnee_ratio`` row per host and stock year; ``math.inf`` when
    nobody has returned, no row when both are 0."""
    totals = {(c.class_key, c.year): c.total for c in cells}
    years = sorted({year for _, year in totals})
    rows = []
    for host in hosts:
        out_key, ret_key = overseas(home, host), returnee_resident(home, host)
        for year in years:
            out_total = totals.get((out_key, year), 0)
            ret_total = totals.get((ret_key, year), 0)
            if ret_total or out_total:
                value = out_total / ret_total if ret_total else math.inf
                rows.append(IndicatorRow(host, year, "overseas_returnee_ratio", "full", value))
    return rows


# accumulator slots per (year, series)
_FRAC, _FULL, _T10F_FRAC, _T10F_FULL, _T10C_FRAC, _T10C_FULL, _INTL_FRAC, _INTL_FULL = range(8)


class IndicatorEngine:
    """Single-pass computation of every reported indicator family.

    Populations reported: WLD (everything), the home region, DOM, plus for
    each foreign region F the overseas series ``home->F`` and returnee
    series ``F->home``, and the pooled ``ALL->home``. Its independent
    check is the brute-force recomputation in ``tests/bruteforce.py``,
    which the equivalence tests compare against every row family.
    """

    def __init__(
        self,
        corpus: Corpus,
        states: Mapping[str, list[MobilityState]],
        home: str,
        require_distinct_authors: bool = False,
    ):
        self.corpus = corpus
        self.scheme = corpus.scheme
        self.home = home
        self.require_distinct_authors = require_distinct_authors
        self.scores = top10_flags(corpus, citation_baselines(corpus))
        self.foreign = [r for r in self.scheme.labels if r != home]
        self.class_series = (
            ["DOM"]
            + [f"{home}->{f}" for f in self.foreign]
            + [f"{f}->{home}" for f in self.foreign]
            + [f"ALL->{home}"]
        )
        self.all_series = ["WLD", home] + self.class_series
        self._run(states)

    def _run(self, states: Mapping[str, list[MobilityState]]) -> None:
        home = self.home
        scheme = self.scheme
        classes = {author: {st.year: st.klass for st in sts} for author, sts in states.items()}
        # reporting series each home-relative class feeds, with use-whole-weight
        # flag; every other class feeds none
        series_of = {domestic(home): (("DOM", False),)}
        for f in self.foreign:
            series_of[overseas(home, f)] = ((f"{home}->{f}", True),)
            series_of[returnee_resident(home, f)] = ((f"{f}->{home}", False), (f"ALL->{home}", False))
        acc: dict[int, dict[str, list[float]]] = {}
        pair_acc: dict[tuple[str, str], dict[int, list[float]]] = {}  # [full, frac]
        dir_num: dict[tuple[str, str], dict[int, float]] = {}
        dir_den: dict[str, dict[int, float]] = {}
        home_pairs = {f: tuple(sorted((home, f), key=scheme.rank)) for f in self.foreign}
        for rec in self.corpus.records:
            year = rec.year
            n = len(rec.authorships)
            score = self.scores[rec.pub_id]
            international, pairs = intl_copub(rec, scheme, self.require_distinct_authors)
            frac: dict[str, float] = {"WLD": 1.0}
            held: dict[str, float] = {}  # class series -> whole authorship weight held
            rec_region_w: dict[str, float] = {}
            for a in rec.authorships:
                auth_regions = regionalize(a.countries, scheme)
                auth_w = 1.0 / n
                home_share = auth_regions.get(home, 0.0) * auth_w
                for region, w in auth_regions.items():
                    rec_region_w[region] = rec_region_w.get(region, 0.0) + w * auth_w
                try:
                    klass = classes[a.author_id][year]
                except KeyError:
                    raise NoStateForYear(a.author_id, year) from None
                for series, whole in series_of.get(klass, ()):
                    w = auth_w if whole else home_share
                    if w:
                        frac[series] = frac.get(series, 0.0) + w
                    held[series] = held.get(series, 0.0) + auth_w
            home_w = rec_region_w.get(home, 0.0)
            if home_w:
                frac[home] = home_w
            # INTL slots count home-side international records only: a
            # co-publication without a home authorship is not part of the
            # home region's international output.
            intl_home = international and home_w > 0.0
            by_year = acc.setdefault(year, {})
            for series, f in frac.items():
                if f == 0.0:
                    continue
                slot = by_year.get(series)
                if slot is None:
                    slot = by_year[series] = [0.0] * 8
                slot[_FRAC] += f
                slot[_FULL] += 1.0
                if score.top10_fwci:
                    slot[_T10F_FRAC] += f
                    slot[_T10F_FULL] += 1.0
                if score.top10_cits:
                    slot[_T10C_FRAC] += f
                    slot[_T10C_FULL] += 1.0
                if intl_home:
                    slot[_INTL_FRAC] += f
                    slot[_INTL_FULL] += 1.0
            if international:
                for pair in pairs:
                    p = pair_acc.setdefault(pair, {}).setdefault(year, [0.0, 0.0])
                    p[0] += 1.0
                    p[1] += rec_region_w.get(pair[0], 0.0) + rec_region_w.get(pair[1], 0.0)
                for f_region in self.foreign:
                    if home_pairs[f_region] not in pairs:
                        continue
                    den = dir_den.setdefault(f_region, {})
                    den[year] = den.get(year, 0.0) + 1.0
                    for series, w in held.items():
                        if w:
                            d = dir_num.setdefault((series, f_region), {})
                            d[year] = d.get(year, 0.0) + w
        self._acc = acc
        self._pair_acc = pair_acc
        self._dir_num = dir_num
        self._dir_den = dir_den

    def years(self) -> list[int]:
        return sorted(self._acc)

    def _slot(self, year: int, series: str) -> list[float]:
        return self._acc.get(year, {}).get(series, [0.0] * 8)

    def pp10_rows(self) -> list[IndicatorRow]:
        rows = []
        for year in self.years():
            for series in self.all_series:
                slot = self._slot(year, series)
                for counting, wi, fi, ci in (
                    ("full", _FULL, _T10F_FULL, _T10C_FULL),
                    ("frac", _FRAC, _T10F_FRAC, _T10C_FRAC),
                ):
                    base = slot[wi]
                    if base == 0.0:
                        continue
                    rows.append(IndicatorRow(series, year, "pp10_fwci", counting, slot[fi] / base))
                    rows.append(IndicatorRow(series, year, "pp10_cits", counting, slot[ci] / base))
        return rows

    def share_rows(self) -> list[IndicatorRow]:
        """World share of home output, home's international share, and class
        output shares relative to home output."""
        rows = []
        for year in self.years():
            for counting, wi, ii in (("full", _FULL, _INTL_FULL), ("frac", _FRAC, _INTL_FRAC)):
                world = self._slot(year, "WLD")[wi]
                home_slot = self._slot(year, self.home)
                home_w = home_slot[wi]
                if world > 0.0:
                    rows.append(IndicatorRow(self.home, year, "world_share", counting, home_w / world))
                if home_w > 0.0:
                    rows.append(IndicatorRow(self.home, year, "intl_share", counting, home_slot[ii] / home_w))
                    for series in self.class_series:
                        rows.append(
                            IndicatorRow(
                                series, year, "output_share", counting,
                                self._slot(year, series)[wi] / home_w,
                            )
                        )
        return rows

    def intl_rows(self) -> list[IndicatorRow]:
        """Co-publication volume per cross-region pair, by year."""
        rows = []
        for pair in sorted(self._pair_acc, key=lambda p: (self.scheme.rank(p[0]), self.scheme.rank(p[1]))):
            label = f"{pair[0]}-{pair[1]}"
            for year in sorted(self._pair_acc[pair]):
                full, frac = self._pair_acc[pair][year]
                rows.append(IndicatorRow(label, year, "copub_count", "full", full))
                rows.append(IndicatorRow(label, year, "copub_count", "frac", frac))
        return rows

    def class_intl_rows(self) -> list[IndicatorRow]:
        """Class shares of home's international co-publications, by year."""
        rows = []
        for year in self.years():
            for counting, ii in (("full", _INTL_FULL), ("frac", _INTL_FRAC)):
                den = self._slot(year, self.home)[ii]
                if den == 0.0:
                    continue
                for series in self.class_series:
                    rows.append(
                        IndicatorRow(
                            series, year, "class_intl_share", counting,
                            self._slot(year, series)[ii] / den,
                        )
                    )
        return rows

    def direction_rows(self) -> list[IndicatorRow]:
        """Class participation in each (home, partner) pair series, by year."""
        rows = []
        for f in self.foreign:
            if f not in self._dir_den:
                continue
            for year in sorted(self._dir_den[f]):
                den = self._dir_den[f][year]
                for series in self.class_series:
                    num = self._dir_num.get((series, f), {}).get(year, 0.0)
                    rows.append(
                        IndicatorRow(series, year, f"direction_{self.home}-{f}", "frac", num / den)
                    )
        return rows

    def direction_share(self, series: str, partner: str) -> float:
        """Direction share for one class series, pooled over all years."""
        den = sum(self._dir_den.get(partner, {}).values())
        num = sum(self._dir_num.get((series, partner), {}).values())
        if den == 0.0:
            raise EmptyReference(f"no {self.home}-{partner} co-publications")
        return num / den
