"""Yearly stocks of researchers per mobility class.

Authors stay countable through publication gaps: interior gaps (a later
publication exists) are always carried forward from the last known
position, and trailing silence is kept for ``grace`` further years (default
2), after which the author is retired and excluded. Each stock cell splits
into authors entering the class that year (new movement) and authors who
entered earlier and are still active (preceding stock). ``stock_table``, the
one entry point, works out which years count from the timelines and an end year.

``build_statuses`` is a read-only view of the (author, year) -> status grid
over a year range: it stores no cell, derives each one from that author's
timeline on lookup, and owns the countable-years rule that ``stock_table``
clips each author's class intervals to. So no stock cost follows the span of
years, which a single record dated 20017 stretches to 18,000.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .corpus import Value
from .mobility import MobilityState
from .timeline import CareerTimeline

ACTIVE = "Active"
GAP_FILLED = "GapFilled"
RETIRED = "Retired"

DEFAULT_GRACE_YEARS = 2


class _Statuses(Mapping):
    """The grid ``build_statuses`` describes, with no cell stored."""

    __slots__ = ("timelines", "year_range", "grace")

    def __init__(self, timelines: Mapping[str, CareerTimeline], year_range: tuple[int, int],
                 grace: int):
        self.timelines = timelines
        self.year_range = year_range
        self.grace = grace

    def last_countable(self, author_id: str) -> int:
        """The author's last year in range that is not Retired."""
        return min(self.timelines[author_id].last_year + self.grace, self.year_range[1])

    def __getitem__(self, key: tuple[str, int]) -> str:
        author_id, year = key
        tl = self.timelines[author_id]
        y0, y1 = self.year_range
        if not max(tl.first_year, y0) <= year <= y1:
            raise KeyError(key)
        if year > self.last_countable(author_id):
            return RETIRED
        return ACTIVE if any(p.year == year for p in tl.positions) else GAP_FILLED

    def __len__(self) -> int:
        y0, y1 = self.year_range
        return sum(max(0, y1 - max(tl.first_year, y0) + 1) for tl in self.timelines.values())

    def __iter__(self) -> Iterator[tuple[str, int]]:
        y0, y1 = self.year_range
        # every key takes its year from this one list, where a fresh range would
        # make an int object per author-year
        years = list(range(y0, y1 + 1))
        for author_id, tl in self.timelines.items():
            for year in years[max(0, tl.first_year - y0):]:
                yield author_id, year


def build_statuses(
    timelines: Mapping[str, CareerTimeline],
    year_range: tuple[int, int],
    *,
    grace: int = DEFAULT_GRACE_YEARS,
) -> _Statuses:
    """Active / GapFilled / Retired for every author-year in range, starting at
    each career's first year.

    Active when a position exists for the year. Interior gaps are filled
    regardless of length; trailing years are filled up to ``grace`` years
    past the last publication, then the author counts as retired. The result
    is a view: it stores no cell, and its length is the cell count.
    """
    return _Statuses(timelines, year_range, grace)


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
    omitted. Each author's states are walked once, as runs of one class
    clipped to the author's last countable year, so the cost follows the
    states and the cells written, not the span of years.
    """
    y0 = min((tl.first_year for tl in timelines.values()), default=0)
    last_year = max((tl.last_year for tl in timelines.values()), default=0)
    y1 = min(last_year if end_year is None else end_year, last_year + grace)
    statuses = build_statuses(timelines, (y0, y1), grace=grace)
    # class -> year -> authors entering it that year
    new: dict[str, dict[int, int]] = {}
    # class -> year -> change in its preceding stock from that year on
    delta: dict[str, dict[int, int]] = {}

    def close(klass: str, start: int, stop: int) -> None:
        # the class holds the author as preceding stock from start to stop
        if start <= stop:
            d = delta.setdefault(klass, {})
            d[start] = d.get(start, 0) + 1
            d[stop + 1] = d.get(stop + 1, 0) - 1

    for author_id, author_states in states.items():
        last = statuses.last_countable(author_id)
        klass = None
        for st in author_states:
            year = st.year
            if year > last:
                break
            # a state that neither changes class nor enters one extends the run
            if st.klass != klass or st.since_year == year:
                if klass is not None:
                    close(klass, start, year - 1)
                klass, start = st.klass, year
                if st.since_year == year:
                    n = new.setdefault(klass, {})
                    n[year] = n.get(year, 0) + 1
                    start = year + 1
        if klass is not None:
            close(klass, start, last)

    cells: list[StockCell] = []
    for klass in sorted(new.keys() | delta.keys()):
        entering = new.get(klass, {})
        changes = delta.get(klass, {})
        points = sorted(entering.keys() | changes.keys())
        preceding = 0
        for year, next_point in zip(points, points[1:] + points[-1:]):
            preceding += changes.get(year, 0)
            if preceding or year in entering:
                cells.append(StockCell(klass, year, preceding, entering.get(year, 0)))
            if preceding:
                cells.extend(StockCell(klass, y, preceding, 0) for y in range(year + 1, next_point))
    return cells
