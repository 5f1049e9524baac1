"""Exception types raised across the careertrace pipeline."""

from __future__ import annotations


class CareerTraceError(Exception):
    """Base class for all careertrace errors."""


class MalformedLine(CareerTraceError):
    """A rejected corpus line; every corpus diagnostic reads ``line N: <reason>``."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MalformedTable(CareerTraceError):
    """A table ``report`` cannot read; the message names its file."""


class SchemeError(CareerTraceError):
    """A region scheme violates its structural invariants."""


class HomeMismatch(CareerTraceError):
    def __init__(self, home: str):
        super().__init__(f"home region {home!r} is not a label of the scheme")
        self.home = home


class NoStateForYear(CareerTraceError):
    def __init__(self, author_id: str, year: int):
        super().__init__(f"author {author_id!r} has no mobility state in {year}")
        self.author_id = author_id
        self.year = year


class EmptyReference(CareerTraceError):
    """The reference population of a share has zero weight."""


class InvalidConfig(CareerTraceError):
    """A scenario or run configuration failed validation."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = problems
