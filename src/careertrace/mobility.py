"""Move detection and per-year mobility classes.

Moves are changes of dominant region between an author's consecutive active
years, dated at the destination-side year (chain semantics: an A..B..C
sequence yields A->B and B->C, never A->C).

Classes relative to a ``home`` region:

    Domestic(origin)                currently at origin, never entered home
                                    from abroad
    Overseas(origin, host)          publishing away from origin, never
                                    entered home from abroad
    ReturneeResident(home, host)    entered home from abroad at some point;
                                    currently publishing in home; ``host`` is
                                    the foreign region of the attributed
                                    inbound move
    ReturneeAbroad(home, host)      entered home from abroad at some point;
                                    currently publishing outside home in
                                    ``host``; such years do not attribute to
                                    home-region returnee output

Once an author enters a returnee class they never revert to Domestic or
plain Overseas.
"""

from __future__ import annotations

from functools import cache

from .corpus import RegionScheme, Value
from .errors import HomeMismatch
from .timeline import CareerTimeline

DOMESTIC = "Domestic"
OVERSEAS = "Overseas"
RETURNEE_RESIDENT = "ReturneeResident"
RETURNEE_ABROAD = "ReturneeAbroad"

HOST_ATTRIBUTIONS = ("first", "latest")


# A class is its key, the text the outputs carry, e.g. ``Overseas(CHN,USA)``.
# One shared string per argument tuple: a process builds a few dozen classes,
# not one per position, and code holding only these may compare them with `is`.
@cache
def domestic(origin: str) -> str:
    return f"{DOMESTIC}({origin})"


@cache
def overseas(origin: str, host: str) -> str:
    return f"{OVERSEAS}({origin},{host})"


@cache
def returnee_resident(home: str, host: str) -> str:
    return f"{RETURNEE_RESIDENT}({home},{host})"


@cache
def returnee_abroad(home: str, host: str) -> str:
    return f"{RETURNEE_ABROAD}({home},{host})"


class MoveEvent(Value):
    __slots__ = _fields = ("from_region", "to_region", "year")

    def __init__(self, from_region: str, to_region: str, year: int):
        self.from_region = from_region
        self.to_region = to_region
        self.year = year


class MobilityState(Value):
    __slots__ = _fields = ("year", "klass", "since_year")

    def __init__(self, year: int, klass: str, since_year: int):
        self.year = year
        self.klass = klass
        self.since_year = since_year


def detect_moves(timeline: CareerTimeline) -> list[MoveEvent]:
    """One MoveEvent per dominant-region change between consecutive positions."""
    moves: list[MoveEvent] = []
    prev = None
    for pos in timeline.positions:
        dom = pos.dominant
        if dom != prev and prev is not None:
            moves.append(MoveEvent(prev, dom, pos.year))
        prev = dom
    return moves


def classify(
    timeline: CareerTimeline,
    moves: list[MoveEvent],
    home: str,
    scheme: RegionScheme | None = None,
    host_attribution: str = "latest",
) -> list[MobilityState]:
    """Mobility state for each position year of the timeline.

    ``host_attribution`` picks which inbound move names the returnee host:
    "latest" (default) follows the most recent move into home, "first"
    freezes the host of the first one. The attribution window always starts
    at the first inbound move.
    """
    if scheme is not None and home not in scheme.labels:
        raise HomeMismatch(home)
    if host_attribution not in HOST_ATTRIBUTIONS:
        raise ValueError(f"host_attribution must be {' or '.join(map(repr, HOST_ATTRIBUTIONS))}, "
                         f"got {host_attribution!r}")
    inbound_by_year = {
        m.year: m for m in moves if m.to_region == home
    }
    latest = host_attribution == "latest"
    origin = timeline.origin_region
    at_origin = domestic(origin)
    states: list[MobilityState] = []
    returnee_host: str | None = None
    prev_class: str | None = None
    since = timeline.first_year
    for pos in timeline.positions:
        year, dom = pos.year, pos.dominant
        mv = inbound_by_year.get(year)
        if mv is not None:
            if returnee_host is None or latest:
                returnee_host = mv.from_region
        if returnee_host is not None:
            if dom == home:
                klass = returnee_resident(home, returnee_host)
            else:
                klass = returnee_abroad(home, dom)
        elif dom == origin:
            klass = at_origin
        else:
            klass = overseas(origin, dom)
        if klass is not prev_class:
            since = year
            prev_class = klass
        states.append(MobilityState(year, klass, since))
    return states
