"""Yearly stocks of researchers per mobility class.

Authors stay countable through publication gaps: interior gaps (a later
publication exists) are always carried forward from the last known
position, and trailing silence is kept for ``grace`` further years (default
2), after which the author is retired and excluded. Each stock cell splits
into authors entering the class that year (new movement) and authors who
entered earlier and are still active (preceding stock). ``stock_table``, the
one entry point, works out which years count from the timelines and an end year.
"""

from __future__ import annotations

from typing import Mapping

from .corpus import Value
from .mobility import MobilityState
from .timeline import CareerTimeline

ACTIVE = "Active"
GAP_FILLED = "GapFilled"
RETIRED = "Retired"

DEFAULT_GRACE_YEARS = 2


def build_statuses(
    timelines: Mapping[str, CareerTimeline],
    year_range: tuple[int, int],
    *,
    grace: int = DEFAULT_GRACE_YEARS,
) -> dict[tuple[str, int], str]:
    """Active / GapFilled / Retired for every author-year in range, starting at
    each career's first year.

    Active when a position exists for the year. Interior gaps are filled
    regardless of length; trailing years are filled up to ``grace`` years
    past the last publication, then the author counts as retired.
    """
    statuses: dict[tuple[str, int], str] = {}
    y0, y1 = year_range
    # every key takes its year from this one list, where a fresh range would
    # make an int object per author-year
    years = list(range(y0, y1 + 1))
    for author_id, tl in timelines.items():
        active = {p.year for p in tl.positions}
        countable_until = tl.last_year + grace
        for year in years[max(0, tl.first_year - y0):]:
            if year in active:
                statuses[(author_id, year)] = ACTIVE
            elif year <= countable_until:
                statuses[(author_id, year)] = GAP_FILLED
            else:
                statuses[(author_id, year)] = RETIRED
    return statuses


class StockCell(Value):
    __slots__ = _fields = ("class_key", "year", "preceding", "new_movement")

    def __init__(self, class_key: str, year: int, preceding: int, new_movement: int):
        self.class_key = class_key
        self.year = year
        self.preceding = preceding
        self.new_movement = new_movement

    @property
    def total(self) -> int:
        return self.preceding + self.new_movement


def stock_table(
    states: Mapping[str, list[MobilityState]], timelines: Mapping[str, CareerTimeline],
    end_year: int | None = None, *, grace: int = DEFAULT_GRACE_YEARS,
) -> list[StockCell]:
    """Counts per (class, year), split into preceding stock and new movement,
    from the first publication year to ``end_year`` (default the last) but not
    past the last publication plus ``grace``, after which every author is retired.

    During gap-filled years an author keeps the class and entry year of the
    last known position. Retired author-years are excluded. Every author
    contributes to at most one class per year. Cells with zero counts are
    omitted.
    """
    y0 = min((tl.first_year for tl in timelines.values()), default=0)
    last_year = max((tl.last_year for tl in timelines.values()), default=0)
    y1 = min(last_year if end_year is None else end_year, last_year + grace)
    statuses = build_statuses(timelines, (y0, y1), grace=grace)
    new_counts: dict[tuple[str, int], int] = {}
    prec_counts: dict[tuple[str, int], int] = {}
    for author_id, author_states in states.items():
        # states and statuses both start at the author's first year, and no
        # year after a Retired one is countable
        idx = 0
        for year in range(author_states[0].year, y1 + 1):
            while idx < len(author_states) and author_states[idx].year <= year:
                current = author_states[idx]
                idx += 1
            if statuses[(author_id, year)] == RETIRED:
                break
            cell = (current.klass, year)
            if current.since_year == year:
                new_counts[cell] = new_counts.get(cell, 0) + 1
            else:
                prec_counts[cell] = prec_counts.get(cell, 0) + 1
    return [
        StockCell(key, year, prec_counts.get((key, year), 0), new_counts.get((key, year), 0))
        for key, year in sorted(set(new_counts) | set(prec_counts))
    ]
