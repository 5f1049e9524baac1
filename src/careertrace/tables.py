"""The CSV table format every command reads and writes, each table's header,
and the manifest every command writes beside its outputs.

The indicator engine's own module is not imported here, so that ``report``
reads indicator tables without loading it; a test ties ``INDICATOR_HEADER``
to the engine's row fields.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__

TIMELINE_HEADER = ["author_id", "year", "source_pub", "dominant", "weights", "origin_ambiguous"]
STATE_HEADER = ["author_id", "year", "class", "since_year"]
MOVE_HEADER = ["author_id", "from", "to", "year"]
STOCK_HEADER = ["class", "year", "preceding", "new_movement", "total"]
INDICATOR_HEADER = ["population", "year", "metric", "counting", "value"]


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """One CSV table: UTF-8, LF line endings, a header row and a stable column
    order. The csv module writes floats as their shortest round-trip ``repr``
    (so infinities as ``inf``/``-inf``) and other values with ``str``.
    Rows are written as they are made; if making one raises, the table is
    removed rather than left cut short."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        except BaseException:
            fh.close()
            Path(path).unlink(missing_ok=True)
            raise


def read_table(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def write_manifest(
    path: Path, subcommand: str, config: dict, inputs: dict[str, str], stages: list[dict]
) -> None:
    obj = {
        "tool": "careertrace",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "config": config,
        "stages": stages,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
