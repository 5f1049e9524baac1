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

from dataclasses import dataclass
from functools import cache

from .corpus import RegionScheme
from .errors import HomeMismatch
from .timeline import CareerTimeline

DOMESTIC = "Domestic"
OVERSEAS = "Overseas"
RETURNEE_RESIDENT = "ReturneeResident"
RETURNEE_ABROAD = "ReturneeAbroad"

HOST_ATTRIBUTIONS = ("first", "latest")


@dataclass(frozen=True, slots=True)
class MobilityClass:
    """One mobility class value; ``first``/``second`` depend on the kind.

    Domestic: first=origin. Overseas: first=origin, second=host.
    ReturneeResident / ReturneeAbroad: first=home, second=host.
    """

    kind: str
    first: str
    second: str | None = None

    def key(self) -> str:
        if self.second is None:
            return f"{self.kind}({self.first})"
        return f"{self.kind}({self.first},{self.second})"

    @staticmethod
    def parse_key(key: str) -> "MobilityClass":
        kind, _, rest = key.partition("(")
        make = _MAKERS.get(kind)
        parts = rest[:-1].split(",")
        if make is None or not rest.endswith(")") or len(parts) != (1 if kind == DOMESTIC else 2):
            raise ValueError(f"not a mobility class key: {key!r}")
        return make(*parts)


# One shared object per argument tuple: a process builds a few dozen classes,
# not one per position, and code holding only these may compare them with `is`.
@cache
def domestic(origin: str) -> MobilityClass:
    return MobilityClass(DOMESTIC, origin)


@cache
def overseas(origin: str, host: str) -> MobilityClass:
    return MobilityClass(OVERSEAS, origin, host)


@cache
def returnee_resident(home: str, host: str) -> MobilityClass:
    return MobilityClass(RETURNEE_RESIDENT, home, host)


@cache
def returnee_abroad(home: str, host: str) -> MobilityClass:
    return MobilityClass(RETURNEE_ABROAD, home, host)


_MAKERS = {DOMESTIC: domestic, OVERSEAS: overseas,
           RETURNEE_RESIDENT: returnee_resident, RETURNEE_ABROAD: returnee_abroad}


@dataclass(slots=True)
class MoveEvent:
    author_id: str
    from_region: str
    to_region: str
    year: int


@dataclass(slots=True)
class MobilityState:
    author_id: str
    year: int
    klass: MobilityClass
    since_year: int


def detect_moves(timeline: CareerTimeline) -> list[MoveEvent]:
    """One MoveEvent per dominant-region change between consecutive positions."""
    moves: list[MoveEvent] = []
    prev = None
    for pos in timeline.positions:
        if prev is not None and pos.dominant != prev:
            moves.append(
                MoveEvent(
                    author_id=timeline.author_id,
                    from_region=prev,
                    to_region=pos.dominant,
                    year=pos.year,
                )
            )
        prev = pos.dominant
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
    origin = timeline.origin_region
    states: list[MobilityState] = []
    returnee_host: str | None = None
    prev_class: MobilityClass | None = None
    since = timeline.first_year
    for pos in timeline.positions:
        mv = inbound_by_year.get(pos.year)
        if mv is not None:
            if returnee_host is None or host_attribution == "latest":
                returnee_host = mv.from_region
        dom = pos.dominant
        if returnee_host is not None:
            if dom == home:
                klass = returnee_resident(home, returnee_host)
            else:
                klass = returnee_abroad(home, dom)
        elif dom == origin:
            klass = domestic(origin)
        else:
            klass = overseas(origin, dom)
        if klass is not prev_class:
            since = pos.year
            prev_class = klass
        states.append(
            MobilityState(author_id=timeline.author_id, year=pos.year, klass=klass, since_year=since)
        )
    return states

