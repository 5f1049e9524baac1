"""The run configuration of the data commands: its settings with their
defaults, the metric names, and the flat ``key = value`` configuration file.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import Value
from .errors import InvalidConfig

ALL_METRICS = ("pp10", "shares", "intl", "class_intl", "direction", "stocks", "ratio")


def parse_metrics(text: str) -> tuple[str, ...]:
    """The names in a comma-separated metric list, blanks dropped."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


class RunConfig(Value):
    """Effective run configuration. The class attributes are the defaults;
    file values are set over them, and flags over those."""

    home: str = "CHN"
    end_year: int | None = None
    # stocks.DEFAULT_GRACE_YEARS, written out so that validate and report do
    # not load the stock rules; a test ties the two
    grace_years: int = 2
    host_attribution: str = "latest"
    tie_rule: str = "hysteresis"
    intl_requires_distinct_authors: bool = False
    metrics: tuple[str, ...] = ALL_METRICS
    year_min: int | None = None
    year_max: int | None = None
    _fields = tuple(__annotations__)  # the settings above, in order

    @property
    def window(self) -> tuple[int, int] | None:
        """The configured year window, or None when it is left to the data."""
        if self.year_min is not None and self.year_max is not None:
            return (self.year_min, self.year_max)
        return None

    def as_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "metrics": list(self.metrics)}


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def read_config_text(path: str | Path) -> str:
    """Text of a configuration file; bytes that are not UTF-8 are a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InvalidConfig(f"{path}: not valid UTF-8") from None


def load_run_config(path: str | Path) -> dict:
    """Parse the flat ``key = value`` run-configuration file."""
    values: dict = {}
    for line_no, raw in enumerate(read_config_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("end_year", "grace_years", "year_min", "year_max"):
            try:
                values[key] = int(value)
            except ValueError:
                raise InvalidConfig(f"{path}:{line_no}: {key} must be an integer") from None
        elif key == "intl_requires_distinct_authors":
            if value.lower() not in _BOOL_VALUES:
                raise InvalidConfig(f"{path}:{line_no}: {key} must be true/false")
            values[key] = _BOOL_VALUES[value.lower()]
        elif key == "metrics":
            values[key] = parse_metrics(value)
        elif key in ("home", "host_attribution", "tie_rule"):
            values[key] = value
        else:
            raise InvalidConfig(f"{path}:{line_no}: unknown key {key!r}")
    return values
