import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careertrace.corpus import (
    RegionScheme,
    _load_line,
    _Pools,
    default_scheme,
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
