"""Career timelines: one fractional region position per author per active year.

The position for a year comes from that year's first publication, i.e. the
record minimal under (year, seq, pub_id). Later publications in the same
year still count toward output indicators but do not define location.
"""

from __future__ import annotations

from .corpus import Corpus, RegionScheme, Value, regionalize

TIE_RULES = ("hysteresis", "label_order")


class YearPosition(Value):
    __slots__ = _fields = ("year", "weights", "source_pub", "dominant")

    def __init__(self, year: int, weights: dict[str, float], source_pub: str, dominant: str):
        self.year = year
        self.weights = weights
        self.source_pub = source_pub
        self.dominant = dominant


class CareerTimeline(Value):
    __slots__ = _fields = ("positions",)

    def __init__(self, positions: list[YearPosition]):
        self.positions = positions

    @property
    def origin_region(self) -> str:
        return self.positions[0].dominant

    @property
    def origin_ambiguous(self) -> bool:
        """True when the first position's top weight is shared by several regions."""
        return _is_tied(self.positions[0].weights)

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
    is the position-defining one and each author's years arrive ascending.
    ``tie_rule`` is "hysteresis" (default) or "label_order", which ignores
    the previous year when breaking ties.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be {' or '.join(map(repr, TIE_RULES))}, got {tie_rule!r}")
    scheme = corpus.scheme
    hysteresis = tie_rule == "hysteresis"
    # country tuple -> (its shared weights, their dominant region or None when tied)
    dominant_of: dict[tuple[str, ...], tuple[dict[str, float], str | None]] = {}
    timelines: dict[str, CareerTimeline] = {}
    for rec in corpus.records:
        year = rec.year
        for a in rec.authorships:
            tl = timelines.get(a.author_id)
            if tl is not None and tl.positions[-1].year == year:
                continue
            known = dominant_of.get(a.countries)
            if known is None:
                weights = regionalize(a.countries, scheme)
                known = dominant_of[a.countries] = (
                    weights, None if _is_tied(weights) else dominant_region(weights, None, scheme))
            weights, dominant = known
            if dominant is None:
                prev_dom = tl.positions[-1].dominant if tl is not None and hysteresis else None
                dominant = dominant_region(weights, prev_dom, scheme)
            pos = YearPosition(year, weights, rec.pub_id, dominant)
            if tl is None:
                timelines[a.author_id] = CareerTimeline([pos])
            else:
                tl.positions.append(pos)
    return timelines
