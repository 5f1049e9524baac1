"""Bibliographic data model, corpus parsing and the country-to-region scheme.

A corpus is line-delimited JSON, one record per line, with exactly these
fields:

    pub_id    string, unique within the corpus
    year      int publication year
    seq       int within-year ordering key (optional, default 0)
    fields    non-empty array of subject-field identifiers
    doc_type  document-type label
    cites     non-negative citation count, at most 2**53 (MAX_CITES)
    authors   non-empty array of {"id": string, "countries": [codes]}

Country codes are 3-letter uppercase identifiers. A region scheme maps
countries to reporting regions; codes not covered by any region fall into
the scheme's catch-all label (``OTHER`` by default).
"""

from __future__ import annotations

import json
import re
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import MalformedLine, SchemeError

_REQUIRED_KEYS = ("pub_id", "year", "fields", "doc_type", "cites", "authors")
_RECORD_KEYS = frozenset({*_REQUIRED_KEYS, "seq"})
# Every integer up to 2**53 is exact as a float, so each citation mean, FWCI
# and threshold divides without overflow or rounding of the count itself.
MAX_CITES = 2**53
# Region labels are written into series names (``WLD``, ``DOM``, ``home->F``,
# ``ALL->home``), pair labels, class keys and the cached weights text.
_LABEL = re.compile(r"[A-Za-z0-9_]+")
_RESERVED_LABELS = ("WLD", "DOM", "ALL")


def is_country_code(code: object) -> bool:
    """True iff ``code`` is a 3-letter uppercase country identifier."""
    return (
        isinstance(code, str)
        and len(code) == 3
        and all("A" <= c <= "Z" for c in code)
    )


class RegionScheme:
    """Disjoint grouping of country codes into named reporting regions.

    ``labels`` holds every region label in ``label_order``, a total order
    that breaks exact ties wherever a single region must be chosen.
    Countries not listed under any region map to ``other_label``.
    """

    def __init__(
        self,
        regions: dict[str, Iterable[str]],
        label_order: Iterable[str],
        other_label: str = "OTHER",
    ):
        self.regions: dict[str, frozenset[str]] = {
            label: frozenset(codes) for label, codes in regions.items()
        }
        self.labels: tuple[str, ...] = tuple(label_order)
        self.other_label = other_label
        self._validate()
        self._country_to_region: dict[str, str] = {}
        for label, codes in self.regions.items():
            for code in codes:
                self._country_to_region[code] = label
        self._rank = {label: i for i, label in enumerate(self.labels)}
        self._weights: dict[tuple[str, ...], dict[str, float]] = {}  # regionalize() memo

    def _validate(self) -> None:
        for label in [*self.regions, self.other_label]:
            if type(label) is not str or not _LABEL.fullmatch(label):
                raise SchemeError(f"region label {label!r} must consist of letters, digits and _")
            if label in _RESERVED_LABELS:
                raise SchemeError(f"region label {label!r} is reserved for an output series")
        seen: dict[str, str] = {}
        for label, codes in self.regions.items():
            for code in codes:
                if not is_country_code(code):
                    raise SchemeError(f"region {label!r} lists invalid country code {code!r}")
                if code in seen:
                    raise SchemeError(
                        f"country {code!r} appears in regions {seen[code]!r} and {label!r}"
                    )
                seen[code] = label
        labels = set(self.regions) | {self.other_label}
        order = list(self.labels)
        if len(order) != len(set(order)):
            raise SchemeError("label_order contains duplicates")
        if set(order) != labels:
            missing = labels - set(order)
            extra = set(order) - labels
            raise SchemeError(
                f"label_order must list every region label exactly once"
                f" (missing {sorted(missing)}, unknown {sorted(extra)})"
            )

    def region_of(self, country: str) -> str:
        """Region label for a country code; unmapped codes go to the catch-all."""
        return self._country_to_region.get(country, self.other_label)

    def rank(self, label: str) -> int:
        """Position of ``label`` in the deterministic tie-break order."""
        return self._rank[label]

    def countries_of(self, label: str) -> frozenset[str]:
        return self.regions.get(label, frozenset())


def load_scheme(path: str | Path) -> RegionScheme:
    """Load a region scheme from its JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemeError(f"{path}: not valid JSON ({exc.msg})") from None
        except RecursionError:
            raise SchemeError(f"{path}: not valid JSON (nesting too deep)") from None
        except UnicodeDecodeError:
            raise SchemeError(f"{path}: not valid UTF-8") from None
    if not isinstance(raw, dict) or "regions" not in raw or "label_order" not in raw:
        raise SchemeError(f"{path}: scheme file needs 'regions' and 'label_order'")
    regions, order = raw["regions"], raw["label_order"]
    if not isinstance(regions, dict) or not all(
        isinstance(codes, list) and all(isinstance(c, str) for c in codes)
        for codes in regions.values()
    ):
        raise SchemeError(f"{path}: 'regions' must map each label to an array of country codes")
    if not isinstance(order, list) or not all(isinstance(label, str) for label in order):
        raise SchemeError(f"{path}: 'label_order' must be an array of region labels")
    return RegionScheme(regions, order, raw.get("other_label", "OTHER"))


def default_scheme() -> RegionScheme:
    """The packaged default scheme: CHN, USA, EU28 (2013-2020 membership), OTHER."""
    return load_scheme(default_scheme_path())


def default_scheme_path() -> Path:
    return Path(__file__).parent / "data" / "default_scheme.json"


class Value:
    """Field-wise ``==`` (same class only) and ``repr`` over ``_fields``, as
    ``@dataclass`` gives, without the dozen modules ``dataclasses`` loads into
    every command; defining ``__eq__`` alone leaves instances unhashable, as
    there. Each value class writes its own ``__init__``; the ones built per
    record, position or row list ``_fields`` as ``__slots__``. None is frozen
    (that makes each one 3x slower to build), so stages must never mutate one."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Authorship(Value):
    """One author on one record, with one country per listed affiliation."""

    __slots__ = _fields = ("author_id", "countries")

    def __init__(self, author_id: str, countries: tuple[str, ...]):
        self.author_id = author_id
        self.countries = countries


class PublicationRecord(Value):
    __slots__ = _fields = ("pub_id", "year", "seq", "field_codes", "doc_type", "citation_count",
                           "authorships")

    def __init__(self, pub_id: str, year: int, seq: int, field_codes: tuple[str, ...],
                 doc_type: str, citation_count: int, authorships: tuple[Authorship, ...]):
        self.pub_id = pub_id
        self.year = year
        self.seq = seq
        self.field_codes = field_codes
        self.doc_type = doc_type
        self.citation_count = citation_count
        self.authorships = authorships


class Corpus(Value):  # no slots: one per run, and the pipeline holds it by weak reference
    """Validated records in canonical (year, seq, pub_id) order."""

    _fields = ("records", "scheme", "window")

    def __init__(self, records: list[PublicationRecord], scheme: RegionScheme,
                 window: tuple[int, int]):
        self.records = records
        self.scheme = scheme
        self.window = window

    def dump_lines(self) -> Iterator[str]:
        """Canonical line serialization; independent of ingestion order."""
        for rec in self.records:
            yield dump_record(rec)


_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def dump_record(rec: PublicationRecord) -> str:
    obj = {
        "pub_id": rec.pub_id,
        "year": rec.year,
        "seq": rec.seq,
        "fields": list(rec.field_codes),
        "doc_type": rec.doc_type,
        "cites": rec.citation_count,
        "authors": [
            {"id": a.author_id, "countries": list(a.countries)} for a in rec.authorships
        ],
    }
    return _encode(obj)


class _Pools:
    """Per-parse pools. Repeated strings, years and seqs, field lists, country
    codes and authorships share one object each; a value enters its pool only
    once it has passed validation, so a pool hit needs no further check."""

    __slots__ = ("strings", "ints", "fields", "codes", "authorships", "field_texts", "author_texts")

    def __init__(self) -> None:
        self.strings: dict[str, str] = {}
        # years lie past CPython's cache of small ints, so each parsed year
        # would otherwise be its own object
        self.ints: dict[int, int] = {}
        self.fields: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.codes: dict[str, str] = {}
        self.authorships: dict[tuple[str, ...], Authorship] = {}
        # the canonical reader's pools, keyed by the exact JSON text of a
        # field list or of one author object
        self.field_texts: dict[str, tuple[str, ...]] = {}
        self.author_texts: dict[str, tuple[Authorship]] = {}


# Every value checked below comes from the JSON decoder, so exact type tests
# (``type(x) is int``) match isinstance tests that exclude bool.
def _parse_record(obj: object, line_no: int, pools: _Pools) -> PublicationRecord:
    """The line's record, else its first fault in check order: not an object,
    unknown keys, the first missing key of ``_REQUIRED_KEYS``, then each field
    in turn. Six lookups and a key count find both key faults, and only a line
    with one works out which comes first."""
    if type(obj) is not dict:
        raise MalformedLine(line_no, "record must be an object")
    try:
        pub_id, year, fields = obj["pub_id"], obj["year"], obj["fields"]
        doc_type, cites, authors = obj["doc_type"], obj["cites"], obj["authors"]
        key_fault = len(obj) != 6 + ("seq" in obj)  # a key besides the seven
    except KeyError:
        key_fault = True
    if key_fault:
        if not obj.keys() <= _RECORD_KEYS:
            raise MalformedLine(line_no, f"unknown keys {sorted(obj.keys() - _RECORD_KEYS)}")
        missing = next(key for key in _REQUIRED_KEYS if key not in obj)
        raise MalformedLine(line_no, f"missing key {missing!r}")
    seq = obj.get("seq", 0)
    if type(pub_id) is not str or not pub_id:
        raise MalformedLine(line_no, "pub_id must be a non-empty string")
    if type(year) is not int:
        raise MalformedLine(line_no, "year must be an integer")
    if type(seq) is not int:
        raise MalformedLine(line_no, "seq must be an integer")
    if type(fields) is not list:
        raise MalformedLine(line_no, "fields must be a non-empty array of strings")
    field_codes = _field_codes(fields, line_no, pools)
    if type(doc_type) is not str:
        raise MalformedLine(line_no, "doc_type must be a string")
    if type(cites) is not int or cites < 0:
        raise MalformedLine(line_no, "cites must be a non-negative integer")
    if cites > MAX_CITES:
        raise MalformedLine(line_no, "cites must be at most 2**53")
    if type(authors) is not list:
        raise MalformedLine(line_no, "authors must be an array")
    if not authors:
        raise MalformedLine(line_no, f"record {pub_id!r} has no authors")

    pooled = pools.authorships
    authorships = []
    seen_authors: set[str] = set()
    for a in authors:
        if type(a) is not dict or len(a) != 2 or "id" not in a or "countries" not in a:
            raise MalformedLine(line_no, "each author must be {id, countries}")
        aid, countries = a["id"], a["countries"]
        if type(aid) is not str or not aid:
            raise MalformedLine(line_no, "author id must be a non-empty string")
        if aid in seen_authors:
            raise MalformedLine(line_no, f"author {aid!r} listed twice on {pub_id!r}")
        seen_authors.add(aid)
        if type(countries) is not list or not countries:
            raise MalformedLine(line_no, f"author {aid!r} has no affiliation countries")
        try:
            authorship = pooled.get((aid, *countries))
        except TypeError:  # an unhashable code, which _new_authorship reports
            authorship = None
        if authorship is None:
            authorship = _new_authorship(aid, countries, line_no, pools)
        authorships.append(authorship)
    ints = pools.ints
    return PublicationRecord(pub_id, ints.setdefault(year, year), ints.setdefault(seq, seq),
                             field_codes, pools.strings.setdefault(doc_type, doc_type), cites,
                             tuple(authorships))


def _field_codes(fields: list, line_no: int, pools: _Pools) -> tuple[str, ...]:
    """The record's distinct fields, first occurrence first."""
    try:
        codes = pools.fields.get(tuple(fields))
    except TypeError:  # an unhashable element
        codes = None
    if codes is None:
        if not fields or not all(type(f) is str and f for f in fields):
            raise MalformedLine(line_no, "fields must be a non-empty array of strings")
        intern = pools.strings.setdefault
        codes = pools.fields[tuple(fields)] = tuple(dict.fromkeys(intern(f, f) for f in fields))
    return codes


def _new_authorship(aid: str, countries: list, line_no: int, pools: _Pools) -> Authorship:
    codes = pools.codes
    for c in countries:
        if type(c) is not str or c not in codes:
            if not is_country_code(c):
                raise MalformedLine(line_no, f"invalid country code {c!r}")
            codes[c] = c
    authorship = Authorship(
        pools.strings.setdefault(aid, aid), tuple(codes[c] for c in countries)
    )
    pools.authorships[(aid, *countries)] = authorship
    return authorship


_scan_once = json.JSONDecoder().scan_once
_json_whitespace = json.decoder.WHITESPACE.match
# surrogateescape turns each byte that is not UTF-8 into one of these
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _load_line(line: str, line_no: int, pools: _Pools) -> PublicationRecord:
    if not line.isascii() and _UNDECODABLE.search(line):
        raise MalformedLine(line_no, "not valid UTF-8")
    try:
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            obj = None
        if type(obj) is not dict or (line[end:] != "\n"  # most lines end right after it
                                     and _json_whitespace(line, end).end() != len(line)):
            # json.loads either names the exact problem or decodes what the
            # scanner does not start on (leading whitespace, a non-object value)
            obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_no, f"invalid JSON ({exc.msg})") from None
    except ValueError:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise MalformedLine(line_no, "integer literal too long") from None
    except RecursionError:
        # both decoders recurse once per nesting level
        raise MalformedLine(line_no, "invalid JSON (nesting too deep)") from None
    return _parse_record(obj, line_no, pools)


# The layout dump_record writes: no whitespace, the seven keys in its order,
# strings without quotes, escapes or control characters, and integers of at
# most 15 digits, so cites stays below MAX_CITES. Such a line can have only
# one reading, and that reading is valid: the reader needs no JSON decoder.
# The line must also be ASCII, as a byte that is not UTF-8 arrives as a lone
# surrogate, which only _load_line reports.
_TEXT = r'[^"\\\x00-\x1f]'
_INT = r"(-?(?:0|[1-9][0-9]{0,14}))"
_CANONICAL_HEAD = re.compile(
    rf'\{{"pub_id":"({_TEXT}+)","year":{_INT},"seq":{_INT},'
    rf'"fields":\[("{_TEXT}+"(?:,"{_TEXT}+")*)\],"doc_type":"({_TEXT}*)",'
    r'"cites":(0|[1-9][0-9]{0,14}),"authors":\[\{'
)
_CANONICAL_AUTHOR = re.compile(rf'"id":"({_TEXT}+)","countries":\[("[A-Z]{{3}}"(?:,"[A-Z]{{3}}")*)\]')


def _canonical_author(text: str, pools: _Pools) -> tuple[Authorship] | None:
    """The authorship of one author object's text between its braces, as a
    1-tuple that every single-author record of it shares; None if the text is
    not in the canonical layout."""
    m = _CANONICAL_AUTHOR.fullmatch(text)
    if m is None:
        return None
    aid, codes = m.groups()
    intern = pools.codes.setdefault  # the pattern admits only valid codes
    countries = tuple([intern(c, c) for c in codes[1:-1].split('","')])
    one = pools.author_texts[text] = (Authorship(pools.strings.setdefault(aid, aid), countries),)
    return one


def _canonical_record(line: str, m: re.Match, pools: _Pools) -> PublicationRecord | None:
    """The record of an ASCII line whose head matched ``_CANONICAL_HEAD`` as
    ``m``, if the rest is canonical too; else None, and ``_load_line`` reads
    the line. Authors are looked up by their text, so a known author costs no
    decoding at all."""
    if line.endswith("}]}\n"):
        body = line[m.end():-4]
    elif line.endswith("}]}"):
        body = line[m.end():-3]
    else:
        return None
    # an id holds no '"', so a "},{" inside one leaves a piece that fails its pattern
    texts = pools.author_texts
    found = [texts.get(text) or _canonical_author(text, pools) for text in body.split("},{")]
    if len(found) == 1:
        authorships = found[0]
        if authorships is None:
            return None
    else:
        if None in found:
            return None
        authorships = tuple([one[0] for one in found])
        if len({a.author_id for a in authorships}) != len(authorships):
            return None  # a repeated author, which _load_line reports
    pub_id, year, seq, fields, doc_type, cites = m.groups()
    field_codes = pools.field_texts.get(fields)
    if field_codes is None:  # the pattern admits only non-empty strings, so no check fails
        field_codes = pools.field_texts[fields] = _field_codes(fields[1:-1].split('","'), 0, pools)
    ints = pools.ints
    year, seq = int(year), int(seq)
    return PublicationRecord(pub_id, ints.setdefault(year, year), ints.setdefault(seq, seq),
                             field_codes, pools.strings.setdefault(doc_type, doc_type), int(cites),
                             authorships)


def _read(
    lines: Iterable[str], window: tuple[int, int] | None
) -> Iterator[PublicationRecord | MalformedLine]:
    """The corpus reader: per non-blank line, its record or its first problem.
    Lines in ``dump_record``'s layout take the canonical path; every other line,
    and so every problem, goes through ``_load_line``. A stream whose first 16
    lines hold no canonical author stops trying the canonical path, so that
    another layout pays nothing for it."""
    pools = _Pools()
    seen: set[str] = set()
    canonical_head = _CANONICAL_HEAD.match
    for line_no, line in enumerate(lines, start=1):
        if not (canonical_head and (m := canonical_head(line)) and line.isascii()
                and (rec := _canonical_record(line, m, pools)) is not None):
            if not line or line.isspace():
                continue
            if canonical_head and line_no > 16 and not pools.author_texts:
                canonical_head = None
            try:
                rec = _load_line(line, line_no, pools)
            except MalformedLine as exc:
                yield exc
                continue
        if rec.pub_id in seen:
            yield MalformedLine(line_no, f"duplicate pub_id {rec.pub_id!r}")
            continue
        seen.add(rec.pub_id)
        if window is not None and not (window[0] <= rec.year <= window[1]):
            yield MalformedLine(
                line_no, f"record {rec.pub_id!r} year {rec.year} outside window {window[0]}..{window[1]}"
            )
        else:
            yield rec


def iter_diagnostics(
    lines: Iterable[str], window: tuple[int, int] | None = None
) -> Iterator[MalformedLine]:
    """Yield every validation problem in the stream (used by ``validate``)."""
    for item in _read(lines, window):
        if type(item) is not PublicationRecord:
            yield item


def parse_corpus(
    lines: Iterable[str],
    scheme: RegionScheme,
    window: tuple[int, int] | None = None,
) -> Corpus:
    """Parse and validate a line-delimited record stream into a Corpus.

    Raises on the first invalid line. The result is independent of input
    line order: records are sorted by (year, seq, pub_id) after ingestion.
    When ``window`` is omitted it is inferred from the data.
    """
    records = []
    for item in _read(lines, window):
        if type(item) is not PublicationRecord:
            raise item
        records.append(item)
    for key in ("pub_id", "seq", "year"):  # stable sorts: no (year, seq, pub_id) tuple per record
        records.sort(key=attrgetter(key))
    if window is None:
        window = (records[0].year, records[-1].year) if records else (0, 0)
    return Corpus(records=records, scheme=scheme, window=window)


def open_corpus(path: str | Path) -> TextIO:
    """Open a corpus file for reading. Bytes that are not UTF-8 reach the
    reader as lone surrogates, which it reports as a per-line problem."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def load_corpus(
    path: str | Path,
    scheme: RegionScheme,
    window: tuple[int, int] | None = None,
) -> Corpus:
    with open_corpus(path) as fh:
        return parse_corpus(fh, scheme, window)


def regionalize(countries: Iterable[str], scheme: RegionScheme) -> dict[str, float]:
    """Fractional region weights of an affiliation-country list.

    Each listed country contributes 1/n; duplicates count separately.
    Weights are grouped by region and sum to 1. The scheme memoizes one dict
    per country tuple, shared by every caller, so it must not be mutated.
    """
    key = tuple(countries)
    weights = scheme._weights.get(key)
    if weights is None:
        if not key:
            raise ValueError("countries must be non-empty")
        counts: dict[str, int] = {}
        for c in key:
            region = scheme.region_of(c)
            counts[region] = counts.get(region, 0) + 1
        n = len(key)
        weights = scheme._weights[key] = {region: k / n for region, k in counts.items()}
    return weights
