import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace import corpus as corpus_module
from careertrace.cli import run
from careertrace.corpus import (
    Authorship,
    PublicationRecord,
    RegionScheme,
    _load_line,
    _Pools,
    _read,
    default_scheme,
    dump_record,
    is_country_code,
    iter_diagnostics,
    load_corpus,
    open_corpus,
    parse_corpus,
    regionalize,
)
from careertrace.errors import MalformedLine, SchemeError
from careertrace.timeline import build_timelines

from conftest import corpus_of, lines, random_records, rec


def test_parse_single_valid_line(scheme):
    corpus = parse_corpus(
        ['{"pub_id":"p1","year":2005,"fields":["F1"],"doc_type":"ar","cites":3,'
         '"authors":[{"id":"a1","countries":["CHN"]}]}'],
        scheme,
    )
    assert len(corpus.records) == 1
    r = corpus.records[0]
    assert r.pub_id == "p1" and r.year == 2005 and r.seq == 0
    assert r.citation_count == 3
    assert r.authorships[0].author_id == "a1"
    assert r.authorships[0].countries == ("CHN",)


def test_duplicate_pub_id_rejected(scheme):
    line = json.dumps(rec("p1", 2005, [("a1", ["CHN"])]))
    with pytest.raises(MalformedLine) as exc:
        parse_corpus([line, line], scheme)
    assert str(exc.value) == "line 2: duplicate pub_id 'p1'"


def test_empty_author_list_rejected(scheme):
    bad = rec("p1", 2005, [])
    with pytest.raises(MalformedLine) as exc:
        parse_corpus(lines(bad), scheme)
    assert str(exc.value) == "line 1: record 'p1' has no authors"


def test_year_out_of_window(scheme):
    with pytest.raises(MalformedLine) as exc:
        parse_corpus(lines(rec("p1", 1980, [("a1", ["CHN"])])), scheme, window=(2000, 2017))
    assert str(exc.value) == "line 1: record 'p1' year 1980 outside window 2000..2017"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("pub_id"),
        lambda r: r.update(year="2005"),
        lambda r: r.update(fields=[]),
        lambda r: r.update(cites=-1),
        lambda r: r.update(authors=[{"id": "a1", "countries": ["china"]}]),
        lambda r: r.update(authors=[{"id": "a1", "countries": []}]),
        lambda r: r.update(authors=[{"id": "a1", "countries": ["CHN"]},
                                    {"id": "a1", "countries": ["USA"]}]),
        lambda r: r.update(extra_key=1),
    ],
)
def test_malformed_lines_rejected(scheme, mutate):
    r = rec("p1", 2005, [("a1", ["CHN"])])
    mutate(r)
    with pytest.raises(MalformedLine):
        parse_corpus([json.dumps(r)], scheme)


def _variant(**changes):
    r = rec("p1", 2005, [("a1", ["CHN"])])
    r.update(changes)
    return json.dumps(r)


# Each malformed line with the exact diagnostic the original json.loads-based
# reader gave for it, recorded before the reader was rewritten. One entry was
# changed on purpose since: "empty author list" had its own exception type and
# no line number, and is now a MalformedLine that names its line like the rest.
SEED_DIAGNOSTICS = {
    "trailing garbage": (
        _variant() + " x", "MalformedLine", "line 3: invalid JSON (Extra data)"),
    "leading BOM": (
        "\ufeff" + _variant(), "MalformedLine",
        "line 3: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    "trailing ideographic space": (
        _variant() + "\u3000", "MalformedLine", "line 3: invalid JSON (Extra data)"),
    "non-object record": (
        json.dumps([json.loads(_variant())]), "MalformedLine", "line 3: record must be an object"),
    "true year": (_variant(year=True), "MalformedLine", "line 3: year must be an integer"),
    "true seq": (_variant(seq=True), "MalformedLine", "line 3: seq must be an integer"),
    "true cites": (
        _variant(cites=True), "MalformedLine", "line 3: cites must be a non-negative integer"),
    "float year": (_variant(year=2005.0), "MalformedLine", "line 3: year must be an integer"),
    "non-dict author": (
        _variant(authors=["a1"]), "MalformedLine", "line 3: each author must be {id, countries}"),
    "list country code": (
        _variant(authors=[{"id": "a1", "countries": [["CHN"]]}]), "MalformedLine",
        "line 3: invalid country code ['CHN']"),
    "lowercase code": (
        _variant(authors=[{"id": "a1", "countries": ["chn"]}]), "MalformedLine",
        "line 3: invalid country code 'chn'"),
    "duplicate author": (
        _variant(authors=[{"id": "a1", "countries": ["CHN"]}, {"id": "a1", "countries": ["USA"]}]),
        "MalformedLine", "line 3: author 'a1' listed twice on 'p1'"),
    "unknown keys": (
        _variant(zeta=1, alpha=2), "MalformedLine", "line 3: unknown keys ['alpha', 'zeta']"),
    "missing key": (
        json.dumps({k: v for k, v in json.loads(_variant()).items() if k != "doc_type"}),
        "MalformedLine", "line 3: missing key 'doc_type'"),
    "empty author list": (
        _variant(authors=[]), "MalformedLine", "line 3: record 'p1' has no authors"),
}


@pytest.mark.parametrize("case", sorted(SEED_DIAGNOSTICS))
def test_diagnostics_match_recorded_seed(scheme, case):
    line, kind, message = SEED_DIAGNOSTICS[case]
    good = json.dumps(rec("p0", 2005, [("a1", ["CHN"])]))
    # the good line first warms the reader's pools, so a pooled value never hides a problem
    diags = list(iter_diagnostics([good, "", line]))
    assert [(type(d).__name__, str(d), d.line_no) for d in diags] == [(kind, message, 3)]
    with pytest.raises(MalformedLine) as exc:
        parse_corpus([good, "", line], scheme)
    assert (type(exc.value).__name__, str(exc.value)) == (kind, message)


def _two_faults(drop=(), **changes):
    r = rec("p1", 2005, [("a1", ["CHN"])])
    r.update(changes)
    for key in drop:
        del r[key]
    return json.dumps(r)


def _author(aid, countries, **extra):
    return {"id": aid, "countries": countries, **extra}


# Lines with two faults each, with the one diagnostic the reader gave for them
# when recorded: the reader reports the first fault in its check order.
TWO_FAULT_DIAGNOSTICS = {
    "unknown key and missing key": (
        _two_faults(drop=("cites",), zeta=1), "unknown keys ['zeta']"),
    "unknown key in place of seq": (
        _two_faults(drop=("seq",), zeta=1), "unknown keys ['zeta']"),
    "two missing keys": (_two_faults(drop=("authors", "fields")), "missing key 'fields'"),
    "missing year and empty pub_id": (
        _two_faults(drop=("year",), pub_id=""), "missing key 'year'"),
    "empty pub_id and string year": (
        _two_faults(pub_id="", year="x"), "pub_id must be a non-empty string"),
    "string year and negative cites": (
        _two_faults(year="x", cites=-1), "year must be an integer"),
    "empty fields and list doc_type": (
        _two_faults(fields=[], doc_type=[]), "fields must be a non-empty array of strings"),
    "duplicate author before invalid code": (
        _two_faults(authors=[_author("a1", ["CHN"]), _author("a1", ["USA"]),
                             _author("a2", ["chn"])]),
        "author 'a1' listed twice on 'p1'"),
    "invalid code before duplicate author": (
        _two_faults(authors=[_author("a1", ["chn"]), _author("a1", ["CHN"])]),
        "invalid country code 'chn'"),
    "author with a third key": (
        _two_faults(authors=[_author("a1", ["chn"], x=1)]), "each author must be {id, countries}"),
    "author key renamed": (
        _two_faults(authors=[{"ids": "a1", "countries": ["chn"]}]),
        "each author must be {id, countries}"),
    "empty author id and no countries": (
        _two_faults(authors=[_author("", [])]), "author id must be a non-empty string"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULT_DIAGNOSTICS))
def test_reader_reports_the_first_fault_in_check_order(scheme, case):
    line, reason = TWO_FAULT_DIAGNOSTICS[case]
    good = json.dumps(rec("p0", 2005, [("a1", ["CHN"])]))
    assert [str(d) for d in iter_diagnostics([good, "", line])] == [f"line 3: {reason}"]
    with pytest.raises(MalformedLine) as exc:
        parse_corpus([good, "", line], scheme)
    assert str(exc.value) == f"line 3: {reason}"


def test_record_split_across_lines_rejected(scheme):
    r1 = json.dumps(rec("a", 2005, [("a1", ["CHN"])]))
    r2 = json.dumps(rec("b", 2005, [("a1", ["CHN"]), ("a2", ["USA"])]))
    r3 = json.dumps(rec("c", 2005, [("a1", ["CHN"])]))
    cut = r2.index(', {"id": "a2"')
    body = [r1 + "," + r2[:cut], r2[cut + 2:], r3]
    # joined into one array the three lines decode to three valid records
    assert len(json.loads("[" + ",".join(body) + "]")) == 3
    with pytest.raises(MalformedLine) as exc:
        parse_corpus(body, scheme)
    assert str(exc.value) == "line 1: invalid JSON (Extra data)"
    assert [str(d) for d in iter_diagnostics(body)] == [
        "line 1: invalid JSON (Extra data)",
        "line 2: invalid JSON (Extra data)",
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(alphabet=' \t\r\n{}[]":,0123456789.eE+-tfnrulasx\\\u3000\ufeff'),
    st.builds(lambda pad, r, tail: pad + json.dumps(r) + tail,
              st.sampled_from(["", " ", "\t", "\ufeff"]),
              st.fixed_dictionaries({"pub_id": st.text(min_size=1), "year": st.integers()}),
              st.sampled_from(["", "\n", " \r\n", " x", ",", "\u3000"])),
))
def test_load_line_json_errors_match_json_loads(line):
    """The reader reports invalid JSON exactly when json.loads fails, with its message."""
    try:
        json.loads(line)
        expected = None
    except json.JSONDecodeError as exc:
        expected = f"invalid JSON ({exc.msg})"
    try:
        _load_line(line, 7, _Pools())
        reason = None
    except MalformedLine as exc:
        assert exc.line_no == 7
        reason = exc.reason
    if expected is None:
        assert reason is None or not reason.startswith("invalid JSON")
    else:
        assert reason == expected


def test_non_utf8_line_is_a_line_diagnostic(scheme, tmp_path):
    good = json.dumps(rec("p1", 2005, [("a1", ["CHN"])])).encode()
    # an invalid byte inside a string would otherwise decode as valid JSON
    hidden = json.dumps(rec("p2#", 2005, [("a1", ["CHN"])])).encode().replace(b"#", b"\xe9")
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(good + b"\n\xff\xfe\n" + hidden + b"\n")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path, scheme)
    assert str(exc.value) == "line 2: not valid UTF-8"
    with open_corpus(path) as fh:
        assert [str(d) for d in iter_diagnostics(fh)] == [
            "line 2: not valid UTF-8",
            "line 3: not valid UTF-8",
        ]


def test_load_corpus_empty_file(scheme, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_corpus(path, scheme)
    assert len(corpus.records) == 0


def test_line_number_in_diagnostics(scheme):
    good = json.dumps(rec("p1", 2005, [("a1", ["CHN"])]))
    with pytest.raises(MalformedLine) as exc:
        parse_corpus([good, "{broken"], scheme)
    assert exc.value.line_no == 2


def test_iter_diagnostics_reports_all_problems(scheme):
    good = json.dumps(rec("p1", 2005, [("a1", ["CHN"])]))
    diags = list(iter_diagnostics([good, "{broken", good]))
    assert len(diags) == 2
    assert isinstance(diags[0], MalformedLine)
    assert type(diags[1]) is MalformedLine
    assert str(diags[1]) == "line 3: duplicate pub_id 'p1'"


_REQUIRED_KEYS = ("pub_id", "year", "fields", "doc_type", "cites", "authors")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_rejected_line_is_one_diagnostic_naming_it(seed, data):
    """Break drawn lines of a valid corpus in five ways: each broken line gives
    exactly one MalformedLine, in line order, that reads ``line N: <reason>``."""
    window = (2000, 2008)
    records = random_records(random.Random(seed), 25, years=window)
    body = [json.dumps(r) for r in records]
    broken = data.draw(st.dictionaries(
        st.integers(1, len(records) - 1),
        st.sampled_from(["no authors", "duplicate", "window", "missing key", "json"]),
        min_size=1, max_size=8,
    ))
    expected = []
    for i in sorted(broken):
        r = dict(records[i])
        pub_id = r["pub_id"]
        if broken[i] == "no authors":
            r["authors"] = []
            reason = f"record {pub_id!r} has no authors"
        elif broken[i] == "duplicate":
            earlier = data.draw(st.sampled_from([j for j in range(i) if j not in broken]))
            r["pub_id"] = records[earlier]["pub_id"]
            reason = f"duplicate pub_id {r['pub_id']!r}"
        elif broken[i] == "window":
            r["year"] = data.draw(st.sampled_from([window[0] - 1, window[1] + 1, 20017]))
            reason = f"record {pub_id!r} year {r['year']} outside window 2000..2008"
        elif broken[i] == "missing key":
            key = data.draw(st.sampled_from(_REQUIRED_KEYS))
            del r[key]
            reason = f"missing key {key!r}"
        else:
            body[i] = json.dumps(r)[:-1]
            reason = "invalid JSON (Expecting ',' delimiter)"
        if broken[i] != "json":
            body[i] = json.dumps(r)
        expected.append(f"line {i + 1}: {reason}")
    scheme = default_scheme()
    diags = list(iter_diagnostics(body, window))
    assert all(type(d) is MalformedLine for d in diags)
    assert [d.line_no for d in diags] == [i + 1 for i in sorted(broken)]
    assert all(str(d).startswith(f"line {d.line_no}: ") for d in diags)
    assert [str(d) for d in diags] == expected
    with pytest.raises(MalformedLine) as exc:
        parse_corpus(body, scheme, window)
    assert str(exc.value) == expected[0]


def test_parse_is_permutation_invariant(scheme):
    records = random_records(random.Random(42), 200)
    lns = [json.dumps(r) for r in records]
    shuffled = list(lns)
    random.Random(7).shuffle(shuffled)
    dump_a = "\n".join(parse_corpus(lns, scheme).dump_lines())
    dump_b = "\n".join(parse_corpus(shuffled, scheme).dump_lines())
    assert dump_a == dump_b


def test_canonical_order(scheme):
    corpus = parse_corpus(
        lines(
            rec("p2", 2006, [("a1", ["CHN"])]),
            rec("p9", 2005, [("a1", ["CHN"])], seq=1),
            rec("p5", 2005, [("a1", ["CHN"])], seq=0),
        ),
        scheme,
    )
    assert [r.pub_id for r in corpus.records] == ["p5", "p9", "p2"]


def test_window_inferred_when_absent(scheme):
    corpus = parse_corpus(
        lines(rec("p1", 2003, [("a1", ["CHN"])]), rec("p2", 2011, [("a1", ["CHN"])])),
        scheme,
    )
    assert corpus.window == (2003, 2011)


def test_regionalize_single_country(scheme):
    assert regionalize(["CHN"], scheme) == {"CHN": 1.0}


def test_regionalize_equal_split(scheme):
    assert regionalize(["CHN", "USA"], scheme) == {"CHN": 0.5, "USA": 0.5}


def test_regionalize_groups_by_region(scheme):
    w = regionalize(["DEU", "FRA", "USA"], scheme)
    assert w == {"EU28": 2 / 3, "USA": 1 / 3}


def test_regionalize_duplicate_countries_count_separately(scheme):
    w = regionalize(["CHN", "CHN", "USA"], scheme)
    assert w == {"CHN": 2 / 3, "USA": 1 / 3}


def test_regionalize_unmapped_goes_to_other(scheme):
    assert regionalize(["ZZZ"], scheme) == {"OTHER": 1.0}


def test_regionalize_shares_one_dict_per_country_tuple(scheme):
    assert regionalize(["CHN", "USA"], scheme) is regionalize(("CHN", "USA"), scheme)
    with pytest.raises(ValueError):
        regionalize([], scheme)
    with pytest.raises(ValueError):
        regionalize((), scheme)
    timelines = build_timelines(corpus_of(
        rec("p1", 2005, [("a1", ["DEU", "CHN"])]),
        rec("p2", 2006, [("a2", ["DEU", "CHN"])]),
        scheme=scheme,
    ))
    assert timelines["a1"].positions[0].weights is timelines["a2"].positions[0].weights


def test_regionalize_weights_sum_to_one(scheme):
    rng = random.Random(3)
    countries = ["CHN", "USA", "DEU", "FRA", "JPN", "BRA", "IND"]
    for _ in range(500):
        picks = [rng.choice(countries) for _ in range(rng.randint(1, 6))]
        assert abs(sum(regionalize(picks, scheme).values()) - 1.0) < 1e-12


def test_scheme_rejects_overlapping_regions():
    with pytest.raises(SchemeError):
        RegionScheme({"A": ["CHN"], "B": ["CHN"]}, ["A", "B", "OTHER"])


def test_scheme_rejects_incomplete_label_order():
    with pytest.raises(SchemeError):
        RegionScheme({"A": ["CHN"], "B": ["USA"]}, ["A", "OTHER"])


def test_scheme_rejects_duplicate_label_order():
    with pytest.raises(SchemeError):
        RegionScheme({"A": ["CHN"]}, ["A", "A", "OTHER"])


def test_scheme_accepts_labels_of_letters_digits_and_underscores():
    scheme = RegionScheme({"EU_28": ["DEU"], "G7x2": ["USA"]}, ["G7x2", "EU_28", "rest"], "rest")
    assert scheme.labels == ("G7x2", "EU_28", "rest")


def test_default_scheme_eu28_has_28_members():
    scheme = default_scheme()
    assert len(scheme.countries_of("EU28")) == 28
    assert scheme.region_of("GBR") == "EU28"
    assert scheme.region_of("CHN") == "CHN"


def test_country_code_shape():
    assert is_country_code("CHN")
    assert not is_country_code("chn")
    assert not is_country_code("CH")
    assert not is_country_code("CHNA")
    assert not is_country_code(123)


# -- the canonical path -------------------------------------------------------
# Lines in dump_record's layout skip the JSON decoder. These tests hold that
# path to _load_line: the same record or diagnostic for every line, and no
# silent fall-back on the layout the package itself writes.

def _read_items(lines, window=None):
    return [dump_record(x) if type(x) is PublicationRecord else str(x) for x in _read(lines, window)]


def _read_items_without_canonical_path(lines, window=None):
    with mock.patch.object(corpus_module, "_CANONICAL_HEAD", re.compile("(?!)")):
        return _read_items(lines, window)


_HUGE = "9" * 5000  # past sys.get_int_max_str_digits()

# pattern -> replacements for one occurrence; a callable gets the matched text
_TEXT_MUTATIONS = [
    (r"(?<=[:,\[])-?[0-9]+(?=[,}\]])", [
        "9" * 16, "1" + "0" * 400, _HUGE, "-1", "-0", "0", "007", "00", "1e3", "true", '"5"',
        str(2**53), str(2**53 + 1), "9" * 15, "-" + "9" * 15,
    ]),
    (r'"[^"]*"', [
        '""', '"a\\"b"', '"\\u0041"', '"a},{b"', '"},{"', '"\u00e9"', '"chn"', '"CH"',
        '"CHNA"', '"CHN"', '"USA"', '"a1"', '"a2"', '"x"', '"seq"', '"id"', '"a\tb"',
        '"\x7f"', '"\\n"', '"\udce9"',  # the last is a byte that is not UTF-8
    ]),
    (r'\{"id":"[^"]*","countries":\[[^\]]*\]\}', [
        lambda a: a + "," + a,  # a repeated author
        lambda a: a.replace("]", ',"CHN"]'),
        lambda a: a.replace('"id"', '"ids"'),
        lambda a: a[:-1] + ',"x":1}',
        lambda a: "",
    ]),
    (r'"seq":-?[0-9]+,', ["", '"seq":1,"seq":2,']),
    (r'"fields":\[[^\]]*\]', ['"fields":[]', '"fields":[""]', '"fields":["F1","F1"]', '"fields":[1]']),
    (r"\}\]\}$", ['}],"x":1}', '}],"authors":[]}', '}]} ', "}]}\t", '}],"seq":3}',
                   "}]]", "]}}"]),
    (r"^\{", ["{ ", " {", "\ufeff{", "[{"]),
    (r":", [": "]),
]


@st.composite
def _records(draw):
    authors = draw(st.lists(
        st.tuples(st.sampled_from(["a1", "a2", "a3", "x},{y"]),
                  st.lists(st.sampled_from(["CHN", "USA", "DEU"]), min_size=1, max_size=2)),
        min_size=1, max_size=3, unique_by=lambda a: a[0]))
    return PublicationRecord(
        draw(st.sampled_from(["p1", "p2", "p3", "p4"])), draw(st.integers(1995, 2010)),
        draw(st.integers(0, 3)), tuple(draw(st.lists(st.sampled_from(["F1", "F2"]), min_size=1,
                                                     max_size=2))),
        draw(st.sampled_from(["ar", ""])), draw(st.integers(0, 60)),
        tuple(Authorship(aid, tuple(countries)) for aid, countries in authors))


_MUTATIONS = [(pattern, new) for pattern, replacements in _TEXT_MUTATIONS for new in replacements]


def _mutate(line: str, mutation, spot: int) -> str:
    """``line`` with its ``spot``-th match (modulo their number) replaced."""
    pattern, new = mutation
    spans = [m.span() for m in re.finditer(pattern, line)]
    if not spans:
        return line
    start, end = spans[spot % len(spans)]
    return line[:start] + (new(line[start:end]) if callable(new) else new) + line[end:]


_ENDINGS = ["\n", "", "\r\n", "\n\n"]


@st.composite
def _mutated_line(draw):
    line = dump_record(draw(_records()))
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        line = _mutate(line, mutation, draw(st.integers(0, 20)))
    return line + draw(st.sampled_from(_ENDINGS))


@settings(max_examples=200, deadline=None)
@given(st.lists(_mutated_line(), min_size=1, max_size=6),
       st.sampled_from([None, (2000, 2008)]))
def test_canonical_path_matches_the_decoder_line_for_line(lines_, window):
    """Every line, canonical or mutated at the text level, gives the record
    or the diagnostic that _load_line alone gives, and so do the duplicate
    pub_id and window checks on records from either path."""
    assert _read_items(lines_, window) == _read_items_without_canonical_path(lines_, window)


def test_canonical_path_matches_the_decoder_on_every_single_mutation():
    """Each mutation at each place it applies, after a line that fills the pools."""
    base = PublicationRecord("p1", 2005, 2, ("F1", "F2"), "ar", 3, (
        Authorship("a1", ("CHN",)), Authorship("a2", ("USA", "DEU")), Authorship("a3", ("CHN",))))
    warm = dump_record(PublicationRecord("p0", 2004, 0, ("F1", "F2"), "ar", 1, base.authorships))
    line = dump_record(base)
    for mutation in _MUTATIONS:
        for spot in range(len(re.findall(mutation[0], line))):
            for ending in _ENDINGS:
                body = [warm + "\n", _mutate(line, mutation, spot) + ending]
                assert _read_items(body) == _read_items_without_canonical_path(body), body[1]


def test_canonical_path_rejects_what_the_decoder_rejects():
    """Hand-picked lines near the canonical layout, each with its diagnostic."""
    good = dump_record(PublicationRecord("p1", 2005, 0, ("F1",), "ar", 3,
                                         (Authorship("a1", ("CHN",)), Authorship("a2", ("USA",)))))
    cases = {
        good.replace('"a2"', '"a1"'): "author 'a1' listed twice on 'p1'",
        good.replace('"cites":3', '"cites":' + _HUGE): "integer literal too long",
        good.replace('"cites":3', f'"cites":{2**53 + 1}'): "cites must be at most 2**53",
        good.replace('"cites":3', '"cites":-1'): "cites must be a non-negative integer",
        good.replace('"year":2005', '"year":02005'): "invalid JSON (Expecting ',' delimiter)",
        good.replace('"a2"', '""'): "author id must be a non-empty string",
        good.replace('"USA"', '"usa"'): "invalid country code 'usa'",
        good.replace('"pub_id":"p1"', '"pub_id":""'): "pub_id must be a non-empty string",
        good.replace('["F1"]', "[]"): "fields must be a non-empty array of strings",
        good[:-1] + ',"x":1}': "unknown keys ['x']",
    }
    other = good.replace("p1", "p0")  # dump_record gives each canonical line back unchanged
    for line, reason in cases.items():
        assert _read_items([other, line]) == [other, f"line 2: {reason}"], line
    assert _read_items([good, good]) == [good, "line 2: duplicate pub_id 'p1'"]


def test_cites_bound_admits_two_to_the_53(scheme):
    line = json.dumps(rec("p1", 2005, [("a1", ["CHN"])], cites=2**53))
    assert parse_corpus([line], scheme).records[0].citation_count == 2**53


def test_synth_corpus_is_read_without_the_decoder(tmp_path, scheme):
    """synth writes every line in the canonical layout, so a change to
    dump_record's layout cannot quietly send every line to the slower path."""
    path = tmp_path / "c.jsonl"
    assert run(["synth", "--seed", "5", "--n-authors", "60", "--dual-affiliation-probability",
                "0.3", "-o", str(path), "--truth", str(tmp_path / "c.truth")]) == 0
    expected = load_corpus(path, scheme)
    with mock.patch.object(corpus_module, "_load_line", side_effect=AssertionError("decoded")):
        corpus = load_corpus(path, scheme)
    assert corpus == expected and len(corpus.records) > 100
    assert any(len(r.authorships) > 1 for r in corpus.records)
    assert any(len(a.countries) > 1 for r in corpus.records for a in r.authorships)


def test_a_stream_in_another_layout_stops_trying_the_canonical_path():
    """After 16 lines without a canonical author the reader decodes every
    line, canonical or not, to the same records."""
    body = [dump_record(PublicationRecord(f"p{i}", 2005, i, ("F1",), "ar", 0,
                                          (Authorship("a1", ("CHN",)),))) + "\n" for i in range(40)]
    body[:20] = [json.dumps(json.loads(line)) + "\n" for line in body[:20]]  # spaced separators
    with mock.patch.object(corpus_module, "_canonical_record",
                           wraps=corpus_module._canonical_record) as canonical:
        assert len(list(_read(body[20:], None))) == canonical.call_count == 20
        canonical.reset_mock()
        assert _read_items(body) == _read_items_without_canonical_path(body)
        assert canonical.call_count == 0


def test_single_author_records_share_one_authorships_tuple(scheme):
    body = [dump_record(PublicationRecord(f"p{i}", 2005, i, ("F1",), "ar", 0,
                                          (Authorship("a1", ("CHN",)),))) for i in range(3)]
    records = parse_corpus(body, scheme).records
    assert records[0].authorships is records[1].authorships is records[2].authorships
