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
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import Corpus, PublicationRecord, RegionScheme, regionalize
from .errors import NoStateForYear
from .mobility import MobilityState, domestic, overseas, returnee_resident
from .stocks import StockCell

CohortKey = tuple[str, int, str]


def citation_baselines(corpus: Corpus) -> dict[CohortKey, float]:
    """Cohort means; a record with k fields joins each of its k cohorts."""
    # citations and sizes per distinct (field_codes, year, doc_type) first,
    # then spread over the field cohorts: integer sums are exact in any order
    groups: dict[tuple[tuple[str, ...], int, str], list[int]] = {}
    for rec in corpus.records:
        key = (rec.field_codes, rec.year, rec.doc_type)
        group = groups.get(key)
        if group is None:
            groups[key] = [rec.citation_count, 1]
        else:
            group[0] += rec.citation_count
            group[1] += 1
    totals: dict[CohortKey, int] = {}
    sizes: dict[CohortKey, int] = {}
    for (fields, year, doc_type), (total, size) in groups.items():
        for f in fields:
            key = (f, year, doc_type)
            totals[key] = totals.get(key, 0) + total
            sizes[key] = sizes.get(key, 0) + size
    return {key: totals[key] / sizes[key] for key in totals}


def _expected_citations(field_codes: tuple[str, ...], year: int, doc_type: str,
                        baselines: Mapping[CohortKey, float]) -> float:
    """The mean of a record's field-cohort expectations: FWCI's denominator."""
    total = 0.0
    for f in field_codes:
        total += baselines[(f, year, doc_type)]
    return total / len(field_codes)


def fwci(record: PublicationRecord, baselines: Mapping[CohortKey, float]) -> float:
    """Citations over the mean of the record's field-cohort expectations.

    A zero denominator yields 0.0: every cohort of the record then has a zero
    mean, so the record itself is uncited.
    """
    denom = _expected_citations(record.field_codes, record.year, record.doc_type, baselines)
    return record.citation_count / denom if denom else 0.0


def nearest_rank_90th(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile of a non-empty value list."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1]


def top10_flags(
    corpus: Corpus, baselines: Mapping[CohortKey, float]
) -> tuple[list[bool], list[bool]]:
    """Per-record strict top-decile flags within the year cohort: the FWCI
    flags and the citation flags, each index-aligned with ``corpus.records``.

    FWCI flags rank field-normalized scores pooled across fields; citation
    flags rank raw counts. Ties at the threshold are not flagged, which
    keeps the world share at 10% up to cohort granularity.
    """
    records = corpus.records
    denoms: dict[tuple[tuple[str, ...], int, str], float] = {}  # fwci's, once per cohort key
    # a record keeps its cohort key's denominator, one shared float, and the
    # scores are made one year cohort at a time: a float per record, all held
    # at once, was the engine's largest transient
    rec_denoms = []
    cits_by_year: dict[int, list[int]] = {}
    denoms_by_year: dict[int, list[float]] = {}
    for rec in records:
        key = (rec.field_codes, rec.year, rec.doc_type)
        denom = denoms.get(key)
        if denom is None:
            denom = denoms[key] = _expected_citations(*key, baselines)
        rec_denoms.append(denom)
        cits = cits_by_year.get(rec.year)
        if cits is None:
            cits = cits_by_year[rec.year] = []
            denoms_by_year[rec.year] = []
        cits.append(rec.citation_count)
        denoms_by_year[rec.year].append(denom)
    fwci_thresholds = {
        year: nearest_rank_90th([c / d if d else 0.0 for c, d in zip(cits, denoms_by_year[year])])
        for year, cits in cits_by_year.items()
    }
    cits_thresholds = {year: nearest_rank_90th(cits) for year, cits in cits_by_year.items()}
    del cits_by_year, denoms_by_year  # read only for their thresholds
    fwci_flags = [(rec.citation_count / d if d else 0.0) > fwci_thresholds[rec.year]
                  for rec, d in zip(records, rec_denoms)]
    cits_flags = [rec.citation_count > cits_thresholds[rec.year] for rec in records]
    return fwci_flags, cits_flags


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
    international, pairs = _copub([a.countries for a in record.authorships], scheme,
                                  require_distinct_authors)
    return international, set(pairs)


def _copub(signature: Sequence[tuple[str, ...]], scheme: RegionScheme,
           require_distinct_authors: bool) -> tuple[bool, list[tuple[str, str]]]:
    """``intl_copub`` of a record whose authorships list these countries, with
    the pairs as a list in the scheme's label order."""
    countries: set[str] = set()
    for c in signature:
        countries.update(c)
    international = len(countries) >= 2 and (
        len(signature) >= 2 or not require_distinct_authors
    )
    if not international:
        return False, []
    regions = sorted({scheme.region_of(c) for c in countries}, key=scheme.rank)
    return True, [
        (regions[i], regions[j])
        for i in range(len(regions))
        for j in range(i + 1, len(regions))
    ]


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


def _seek(states: Sequence[MobilityState], start: int, author: str, year: int) -> int:
    """Index of the author's state in ``year``: searched forward from ``start``,
    or from the beginning when ``year`` precedes the state there."""
    i = start if start < len(states) and states[start].year < year else 0
    while i < len(states) and states[i].year < year:
        i += 1
    if i < len(states) and states[i].year == year:
        return i
    raise NoStateForYear(author, year)


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
        self.scheme = corpus.scheme
        self.home = home
        flags = top10_flags(corpus, citation_baselines(corpus))
        self.foreign = [r for r in self.scheme.labels if r != home]
        self.class_series = (
            ["DOM"]
            + [f"{home}->{f}" for f in self.foreign]
            + [f"{f}->{home}" for f in self.foreign]
            + [f"ALL->{home}"]
        )
        self.all_series = ["WLD", home] + self.class_series
        self._run(corpus, states, flags, require_distinct_authors)

    def _run(self, corpus: Corpus, states: Mapping[str, list[MobilityState]],
             flags: tuple[list[bool], list[bool]], require_distinct_authors: bool) -> None:
        home = self.home
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
        memo: dict[tuple[tuple[str, ...], ...], tuple] = {}  # country signature -> geometry
        shared: dict[tuple, tuple] = {}  # geometry -> its one object
        # author -> index of the state last read; records come in year order,
        # so an author's states are read front to back
        cursor: dict[str, int] = {}
        for rec, top_fwci, top_cits in zip(corpus.records, *flags):
            year = rec.year
            auths = rec.authorships
            signature = tuple([a.countries for a in auths])
            geometry = memo.get(signature)
            if geometry is None:
                geometry = self._geometry(signature, require_distinct_authors)
                geometry = memo[signature] = shared.setdefault(geometry, geometry)
            auth_w, home_shares, home_w, intl_home, pair_weights, partners = geometry
            frac: dict[str, float] = {"WLD": 1.0}
            held: dict[str, float] = {}  # class series -> whole authorship weight held
            for a, home_share in zip(auths, home_shares):
                author = a.author_id
                sts = states.get(author, ())
                i = cursor.get(author, 0)
                if i >= len(sts) or sts[i].year != year:
                    i = cursor[author] = _seek(sts, i, author, year)
                for series, whole in series_of.get(sts[i].klass, ()):
                    w = auth_w if whole else home_share
                    if w:
                        frac[series] = frac.get(series, 0.0) + w
                    held[series] = held.get(series, 0.0) + auth_w
            if home_w:
                frac[home] = home_w
            by_year = acc.setdefault(year, {})
            for series, f in frac.items():
                slot = by_year.get(series)
                if slot is None:
                    slot = by_year[series] = [0.0] * 8
                slot[_FRAC] += f
                slot[_FULL] += 1.0
                if top_fwci:
                    slot[_T10F_FRAC] += f
                    slot[_T10F_FULL] += 1.0
                if top_cits:
                    slot[_T10C_FRAC] += f
                    slot[_T10C_FULL] += 1.0
                if intl_home:
                    slot[_INTL_FRAC] += f
                    slot[_INTL_FULL] += 1.0
            for pair, w in pair_weights:
                p = pair_acc.setdefault(pair, {}).setdefault(year, [0.0, 0.0])
                p[0] += 1.0
                p[1] += w
            for f_region in partners:
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

    def _geometry(self, signature: tuple[tuple[str, ...], ...], require_distinct_authors: bool
                  ) -> tuple:
        """What a record contributes that depends only on its authorships'
        countries: the authorship weight, each authorship's home share, the
        home weight, the home-side international flag, each cross-region
        pair with its fractional weight, and the foreign regions whose home
        pair the record spans."""
        home = self.home
        scheme = self.scheme
        auth_w = 1.0 / len(signature)
        home_shares = []
        region_w: dict[str, float] = {}
        for countries in signature:
            auth_regions = regionalize(countries, scheme)
            home_shares.append(auth_regions.get(home, 0.0) * auth_w)
            for region, w in auth_regions.items():
                region_w[region] = region_w.get(region, 0.0) + w * auth_w
        home_w = region_w.get(home, 0.0)
        international, pairs = _copub(signature, scheme, require_distinct_authors)
        # INTL slots count home-side international records only: a
        # co-publication without a home authorship is not part of the
        # home region's international output.
        intl_home = international and home_w > 0.0
        pair_weights = tuple(
            (pair, region_w.get(pair[0], 0.0) + region_w.get(pair[1], 0.0)) for pair in pairs
        )
        partners = tuple(b if a == home else a for a, b in pairs if home in (a, b))
        return auth_w, tuple(home_shares), home_w, intl_home, pair_weights, partners

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
