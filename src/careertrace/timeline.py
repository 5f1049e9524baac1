"""Career timelines: one fractional region position per author per active year.

The position for a year comes from that year's first publication, i.e. the
record minimal under (year, seq, pub_id). Later publications in the same
year still count toward output indicators but do not define location.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, RegionScheme, regionalize

TIE_RULES = ("hysteresis", "label_order")


@dataclass(frozen=True, slots=True)
class YearPosition:
    year: int
    weights: dict[str, float]
    source_pub: str
    dominant: str


@dataclass(slots=True)
class CareerTimeline:
    author_id: str
    positions: list[YearPosition]
    origin_ambiguous: bool = False

    @property
    def origin_region(self) -> str:
        return self.positions[0].dominant

    @property
    def first_year(self) -> int:
        return self.positions[0].year

    @property
    def last_year(self) -> int:
        return self.positions[-1].year


def dominant_region(
    weights: dict[str, float],
    previous_dominant: str | None,
    scheme: RegionScheme,
) -> str:
    """Region with maximal weight.

    Exact ties go to ``previous_dominant`` when it is among the tied regions
    (hysteresis, so 50/50 guest affiliations do not fabricate moves), else
    to the tied region earliest in the scheme's label order.
    """
    top = max(weights.values())
    tied = [r for r, w in weights.items() if w == top]
    if len(tied) == 1:
        return tied[0]
    if previous_dominant is not None and previous_dominant in tied:
        return previous_dominant
    return min(tied, key=scheme.rank)


def _is_tied(weights: dict[str, float]) -> bool:
    top = max(weights.values())
    return sum(1 for w in weights.values() if w == top) > 1


def build_timelines(corpus: Corpus, tie_rule: str = "hysteresis") -> dict[str, CareerTimeline]:
    """One CareerTimeline per author appearing anywhere in the corpus.

    Output is a pure function of the record set: corpus records are already
    in canonical order, so the first record seen for an (author, year) pair
    is the position-defining one. ``tie_rule`` is "hysteresis" (default) or
    "label_order", which ignores the previous year when breaking ties.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be {' or '.join(map(repr, TIE_RULES))}, got {tie_rule!r}")
    scheme = corpus.scheme
    # (author -> year -> (weights, source_pub)), years encountered ascending
    raw: dict[str, dict[int, tuple[dict[str, float], str]]] = {}
    for rec in corpus.records:
        for a in rec.authorships:
            years = raw.setdefault(a.author_id, {})
            if rec.year not in years:
                years[rec.year] = (regionalize(a.countries, scheme), rec.pub_id)

    timelines: dict[str, CareerTimeline] = {}
    for author_id, years in raw.items():
        positions: list[YearPosition] = []
        prev_dom: str | None = None
        origin_ambiguous = False
        for year in years:  # insertion order is ascending by construction
            weights, source_pub = years[year]
            dom = dominant_region(
                weights, prev_dom if tie_rule == "hysteresis" else None, scheme
            )
            if not positions:
                origin_ambiguous = _is_tied(weights)
            positions.append(
                YearPosition(year=year, weights=weights, source_pub=source_pub, dominant=dom)
            )
            prev_dom = dom
        timelines[author_id] = CareerTimeline(
            author_id=author_id,
            positions=positions,
            origin_ambiguous=origin_ambiguous,
        )
    return timelines
