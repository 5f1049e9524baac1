import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from careertrace import cli, pipeline
from careertrace.cli import run
from careertrace.config import ALL_METRICS
from careertrace.corpus import RegionScheme, default_scheme, default_scheme_path
from careertrace.indicators import IndicatorEngine
from careertrace.mobility import HOST_ATTRIBUTIONS
from careertrace.pipeline import Cache
from careertrace.stocks import build_statuses
from careertrace.tables import read_table
from careertrace.timeline import TIE_RULES

from conftest import lines, random_records, rec, run_fresh
from equivalence import oracle_scheme


def write_corpus(path: Path, records):
    path.write_text("\n".join(lines(*records)) + "\n", encoding="utf-8")


@pytest.fixture
def small_corpus(tmp_path):
    records = [
        rec("p1", 2005, [("a1", ["CHN"])], cites=3),
        rec("p2", 2007, [("a1", ["USA"])], cites=1),
        rec("p3", 2014, [("a1", ["CHN"]), ("a2", ["CHN"])], cites=8),
        rec("p4", 2014, [("a2", ["CHN"]), ("a3", ["USA"])], cites=2),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, records)
    return path


def data_files(root: Path) -> dict[str, bytes]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and not p.name.endswith("manifest.json"):
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_validate_ok_exit_zero(small_corpus):
    assert run(["validate", str(small_corpus)]) == 0


def test_validate_bad_corpus_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"nope": 1}\n', encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    assert "bad.jsonl" in capsys.readouterr().err


def test_validate_duplicate_exit_one(tmp_path):
    record = rec("p1", 2005, [("a1", ["CHN"])])
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join(lines(record, record)) + "\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 1


def _with_bad_bytes(tmp_path) -> Path:
    body = "\n".join(lines(rec("p1", 2005, [("a1", ["CHN"])]), rec("p2", 2006, [("a1", ["USA"])])))
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(body.encode() + b"\n\xff\xfe\n")
    return path


def test_validate_non_utf8_line(tmp_path, capsys):
    path = _with_bad_bytes(tmp_path)
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"careertrace: {path}: line 3: not valid UTF-8\n"
                   f"careertrace: {path}: 1 problem(s) found\n")


def test_moves_non_utf8_line(tmp_path, capsys):
    path = _with_bad_bytes(tmp_path)
    assert run(["moves", str(path), "-o", str(tmp_path / "out"), "--no-cache"]) == 1
    assert capsys.readouterr().err == "careertrace: error: line 3: not valid UTF-8\n"


def _with_deep_line(tmp_path) -> Path:
    body = lines(rec("p1", 2005, [("a1", ["CHN"])]), rec("p2", 2006, [("a1", ["USA"])]))
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join([body[0], "[" * 100_000, body[1], " " + '{"a":' * 100_000]) + "\n",
                    encoding="utf-8")
    return path


def test_validate_deeply_nested_line(tmp_path, capsys):
    path = _with_deep_line(tmp_path)
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"careertrace: {path}: line 2: invalid JSON (nesting too deep)\n"
        f"careertrace: {path}: line 4: invalid JSON (nesting too deep)\n"
        f"careertrace: {path}: 2 problem(s) found\n"
    )


def test_moves_deeply_nested_line(tmp_path, capsys):
    path = _with_deep_line(tmp_path)
    assert run(["moves", str(path), "-o", str(tmp_path / "out"), "--no-cache"]) == 1
    assert capsys.readouterr().err == "careertrace: error: line 2: invalid JSON (nesting too deep)\n"


ABSURD_NUMBERS = {
    # past sys.get_int_max_str_digits(), so int() refuses the literal
    "long cites": ('"cites": 0', '"cites": ' + "9" * 5000, "integer literal too long"),
    "long year": ('"year": 2006', '"year": ' + "2" * 4400, "integer literal too long"),
    # under that limit, but no float can hold a mean of it
    "huge cites": ('"cites": 0', '"cites": 1' + "0" * 400, "cites must be at most 2**53"),
}


@pytest.mark.parametrize("case", sorted(ABSURD_NUMBERS))
def test_absurd_numbers_end_in_one_line_diagnostic(tmp_path, case):
    """In a fresh process under ``ulimit -v``: ``validate`` reports the line
    and the count, ``indicators`` one error line; both exit 1, no traceback."""
    old, new, reason = ABSURD_NUMBERS[case]
    good, bad = lines(rec("p1", 2005, [("a1", ["CHN"])]), rec("p2", 2006, [("a1", ["USA"])]))
    assert old in bad
    path = tmp_path / "c.jsonl"
    path.write_text(good + "\n" + bad.replace(old, new) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    limited = 'ulimit -v 2000000 && exec "$0" -m careertrace.cli "$@"'
    for argv, err in [
        (["validate", str(path)],
         f"careertrace: {path}: line 2: {reason}\ncareertrace: {path}: 1 problem(s) found\n"),
        (["indicators", str(path), "-o", str(tmp_path / "out"), "--no-cache"],
         f"careertrace: error: line 2: {reason}\n"),
    ]:
        proc = subprocess.run(["sh", "-c", limited, sys.executable, *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, err), argv


def test_moves_duplicate_pub_id_names_the_repeated_line(tmp_path, capsys):
    records = [rec(f"p{i}", 2005, [("a1", ["CHN"])]) for i in range(200)]
    path = tmp_path / "dup.jsonl"
    write_corpus(path, records + [rec("p3", 2006, [("a1", ["USA"])])])
    assert run(["moves", str(path), "-o", str(tmp_path / "out"), "--no-cache"]) == 1
    assert capsys.readouterr().err == "careertrace: error: line 201: duplicate pub_id 'p3'\n"


def test_validate_every_diagnostic_names_its_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(Path("d.jsonl"), [
        rec("p1", 2005, [("a1", ["CHN"])]),
        rec("p2", 2005, []),
        rec("p3", 1980, [("a1", ["CHN"])]),
        rec("p1", 2006, [("a1", ["USA"])]),
    ])
    assert run(["validate", "d.jsonl", "--year-min", "2000", "--year-max", "2017"]) == 1
    assert capsys.readouterr().err == (
        "careertrace: d.jsonl: line 2: record 'p2' has no authors\n"
        "careertrace: d.jsonl: line 3: record 'p3' year 1980 outside window 2000..2017\n"
        "careertrace: d.jsonl: line 4: duplicate pub_id 'p1'\n"
        "careertrace: d.jsonl: 3 problem(s) found\n"
    )


def test_module_entry_point_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"nope": 1}\n', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "careertrace.cli", "validate", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "line 1" in proc.stderr


def test_cli_import_leaves_synth_unloaded():
    """Only the synth command imports the generator, only the indicators
    command the indicator engine and only the commands that run stages the
    pipeline, so no other command pays for them."""
    proc = run_fresh("import sys, careertrace.cli; "
                     "print(sorted(m for m in sys.modules if 'synth' in m or 'indicators' in m "
                     "or 'pipeline' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", ["validate", "timelines", "moves", "stocks", "indicators", "report"])
def test_commands_leave_dataclasses_inspect_and_datetime_unloaded(command, small_corpus, tmp_path):
    """The value classes are plain classes and the manifest timestamp comes
    from ``time``, so no command loads ``dataclasses`` (with the ``inspect``
    it imports) or ``datetime``."""
    out = tmp_path / "run" / "out"
    out.parent.mkdir()
    if command == "validate":
        argv = ["validate", str(small_corpus)]
    elif command == "report":
        tables = tmp_path / "tables"
        assert run(["indicators", str(small_corpus), "-o", str(tables), "--no-cache"]) == 0
        argv = ["report", str(tables), "-o", str(out)]
    else:
        argv = [command, str(small_corpus), "-o", str(out), "--no-cache"]
    proc = run_fresh(f"import sys, careertrace.cli as c; status = c.run({argv!r}); print(status, "
                     "*sorted({'dataclasses', 'inspect', 'datetime'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
    # one manifest rule: a sidecar beside a file output, manifest.json inside a directory output
    manifests = list(out.parent.rglob("*manifest.json"))
    if command == "validate":
        assert manifests == []
    elif command in ("timelines", "stocks"):
        assert manifests == [out.with_name("out.manifest.json")]
    else:
        assert manifests == [out / "manifest.json"]
    for path in manifests:
        timestamp = json.loads(path.read_text(encoding="utf-8"))["timestamp"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", timestamp)


@pytest.mark.parametrize("flag", [["--no-cache"], ["--cache-dir", "c"]])
def test_validate_takes_no_cache_flags(small_corpus, flag):
    assert run(["validate", str(small_corpus), *flag]) == 2


def test_jobs_flag_is_a_usage_error(small_corpus, tmp_path):
    assert run(["moves", str(small_corpus), "-o", str(tmp_path / "out"), "--no-cache",
                "--jobs", "2"]) == 2


def test_no_cache_builds_no_cache_rows(small_corpus, tmp_path, monkeypatch):
    import careertrace.pipeline as pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("cache rows built with the cache off")

    monkeypatch.setattr(pipeline, "timelines_to_rows", refuse)
    monkeypatch.setattr(pipeline, "moves_to_rows", refuse)
    monkeypatch.setattr(pipeline, "states_to_rows", refuse)
    monkeypatch.setattr(pipeline.Cache, "store", refuse)
    assert run(["stocks", str(small_corpus), "-o", str(tmp_path / "s.csv"), "--no-cache"]) == 0
    assert run(["indicators", str(small_corpus), "-o", str(tmp_path / "ind"), "--no-cache"]) == 0


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_missing_file_exit_one(tmp_path):
    assert run(["validate", str(tmp_path / "absent.jsonl")]) == 1


def test_timelines_output(small_corpus, tmp_path):
    out = tmp_path / "tl.csv"
    assert run(["timelines", str(small_corpus), "-o", str(out), "--no-cache"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "author_id,year,source_pub,dominant,weights,origin_ambiguous"
    assert "a1,2005,p1,CHN,CHN:1.0,0" in text
    manifest = json.loads((tmp_path / "tl.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "timelines"
    assert manifest["version"]


def test_moves_output(small_corpus, tmp_path):
    out = tmp_path / "mv"
    assert run(["moves", str(small_corpus), "-o", str(out), "--no-cache"]) == 0
    moves = (out / "moves.csv").read_text(encoding="utf-8").splitlines()
    assert moves[0] == "author_id,from,to,year"
    assert "a1,CHN,USA,2007" in moves
    assert "a1,USA,CHN,2014" in moves
    states = (out / "states.csv").read_text(encoding="utf-8")
    assert "a1,2014,\"ReturneeResident(CHN,USA)\",2014" in states
    assert (out / "manifest.json").exists()


def test_stocks_output(small_corpus, tmp_path):
    out = tmp_path / "stocks.csv"
    assert run([
        "stocks", str(small_corpus), "-o", str(out), "--no-cache", "--end-year", "2016",
    ]) == 0
    body = out.read_text(encoding="utf-8")
    assert body.splitlines()[0] == "class,year,preceding,new_movement,total"
    assert "\"Overseas(CHN,USA)\",2007,0,1,1" in body


def test_stocks_grid_ends_at_last_countable_year(small_corpus, tmp_path, monkeypatch):
    """Stock cost follows neither ``--end-year`` nor ``--year-min``. An end year
    past the last publication plus grace spans the status view to that year
    only, allocates no more in ``stock_table`` than the last countable year
    does, and writes the same table; a window starting long before the first
    publication spans none of the years before it and allocates no more than
    a run without it."""
    import careertrace.stocks as stocks

    ranges, peaks = [], []

    def recording(timelines, year_range, **kwargs):
        ranges.append(year_range)
        # the view's length is the benchmark's grid-cell count: spanned from
        # the window start below, it would count 10^8 cells per author
        assert year_range[0] == 2005, year_range
        return build_statuses(timelines, year_range, **kwargs)

    stock_table = pipeline.stock_table

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            cells = stock_table(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return cells

    monkeypatch.setattr(stocks, "build_statuses", recording)
    monkeypatch.setattr(pipeline, "stock_table", measured)
    far, near = tmp_path / "far.csv", tmp_path / "near.csv"
    wide, plain = tmp_path / "wide.csv", tmp_path / "plain.csv"
    assert run(["stocks", str(small_corpus), "-o", str(far), "--no-cache",
                "--end-year", "3000"]) == 0
    assert ranges == [(2005, 2014 + 2)]
    assert run(["stocks", str(small_corpus), "-o", str(near), "--no-cache",
                "--end-year", "2016"]) == 0
    assert far.read_bytes() == near.read_bytes()
    # nor does a window starting long before the first publication add any
    ranges.clear()
    assert run(["stocks", str(small_corpus), "-o", str(wide), "--no-cache",
                "--year-min", "-100000000", "--year-max", "2014"]) == 0
    assert ranges == [(2005, 2014)]
    assert run(["stocks", str(small_corpus), "-o", str(plain), "--no-cache"]) == 0
    assert wide.read_bytes() == plain.read_bytes()
    # 1 kB of slack for the few bytes that differ between runs; a cell per
    # author-year up to 3000 would take hundreds of kB
    far_peak, near_peak, wide_peak, plain_peak = peaks
    assert far_peak <= near_peak + 1024, peaks
    assert wide_peak <= plain_peak + 1024, peaks


def test_stocks_of_a_typo_year_stay_small(tmp_path):
    """One record dated 20017 in a corpus of 25 authors carries one author
    through 18,000 gap years, and the corpus's last year with it. The run
    holds the table those years write, not a cell per author-year up to the
    typo (450,000 of them, some 50 MB), and the table equals ``bf.stocks``."""
    records = random_records(random.Random(20017), 100)
    records.append(rec("typo", 20017, [("x000", ["USA"])]))
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, records)
    out = tmp_path / "stocks.csv"
    tracemalloc.start()
    try:
        assert run(["stocks", str(path), "-o", str(out), "--no-cache"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak

    positions = bf.timelines(bf.parse_records(lines(*records)), oracle_scheme(default_scheme()))
    classes = {a: bf.classes(p, bf.moves(p), "CHN") for a, p in positions.items()}
    expected = bf.stocks(positions, classes, (min(r["year"] for r in records), 20017), 2)
    _header, rows = read_table(out)
    got = {(key, int(year)): (int(prec), int(new)) for key, year, prec, new, _total in rows}
    assert len(got) > 18_000
    assert got == expected


@pytest.mark.parametrize("grace", [0, 3])
def test_stocks_match_oracle_past_window_end(grace, tmp_path):
    """The stock year range runs from the corpus start to ``--end-year``."""
    records = random_records(random.Random(17), 80)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, records)
    years = [r["year"] for r in records]
    year_range = (min(years), max(years) + 3)
    out = tmp_path / "stocks.csv"
    assert run(["stocks", str(path), "-o", str(out), "--no-cache", "--grace", str(grace),
                "--end-year", str(year_range[1])]) == 0

    positions = bf.timelines(bf.parse_records(lines(*records)), oracle_scheme(default_scheme()))
    classes = {a: bf.classes(p, bf.moves(p), "CHN") for a, p in positions.items()}
    expected = bf.stocks(positions, classes, year_range, grace)
    _header, rows = read_table(out)
    got = {(key, int(year)): (int(prec), int(new)) for key, year, prec, new, _total in rows}
    assert got == expected


def test_indicators_and_report(small_corpus, tmp_path):
    out = tmp_path / "ind"
    assert run(["indicators", str(small_corpus), "-o", str(out), "--no-cache"]) == 0
    for name in ("pp10.csv", "shares.csv", "intl.csv", "class_intl.csv",
                 "direction.csv", "stocks.csv", "ratio.csv", "manifest.json"):
        assert (out / name).exists(), name
    assert run(["report", str(out)]) == 0
    report = out / "report"
    assert (report / "summary.txt").exists()
    assert list(report.glob("*.svg"))


def test_report_into_its_source_directory_is_refused(small_corpus, tmp_path, capsys):
    """A report written into the indicators directory would replace the
    manifest of the indicators run, so it is one error line and no file."""
    ind = tmp_path / "ind"
    assert run(["indicators", str(small_corpus), "-o", str(ind), "--no-cache"]) == 0
    before = {p: p.read_bytes() for p in ind.rglob("*")}
    capsys.readouterr()
    for output in (ind, ind / ".." / "ind"):
        assert run(["report", str(ind), "-o", str(output)]) == 1
        assert capsys.readouterr().err == (
            f"careertrace: error: report directory {output} is the indicators directory {ind}, "
            "whose manifest it would replace\n")
    assert {p: p.read_bytes() for p in ind.rglob("*")} == before


PP10_HEADER = b"population,year,metric,counting,value\n"
STOCKS_HEADER = b"class,year,preceding,new_movement,total\n"


@pytest.mark.parametrize("name, body, reason", [
    ("pp10.csv", PP10_HEADER + b"WLD,2005,pp10_fwci,full,abc\n",
     "line 2: could not convert string to float: 'abc'"),
    ("pp10.csv", PP10_HEADER + b"WLD,2005,pp10_fwci,full,0.5\nWLD,2006,pp10_fwci\n",
     "line 3: 3 columns, expected 5"),
    ("pp10.csv", PP10_HEADER + b"WLD,2005,pp10_fwci,full,\xff\n", "not valid UTF-8"),
    ("stocks.csv", STOCKS_HEADER + b"Domestic(CHN),2005,0\n", "line 2: 3 columns, expected 5"),
    ("stocks.csv", STOCKS_HEADER + b"Domestic(CHN),20x5,0,1,1\n",
     "line 2: invalid literal for int() with base 10: '20x5'"),
    # cells that name a chart file must make a plain name
    ("pp10.csv", PP10_HEADER + b"WLD,2000,../../escaped,full,0.5\n", "'../../escaped'"),
    ("pp10.csv", PP10_HEADER + b"WLD,2000,pp10_fwci,../../escaped,0.5\n", "'../../escaped'"),
    ("ratio.csv", PP10_HEADER + b"USA,2000,sub/escaped,full,0.5\n", "'sub/escaped'"),
    ("shares.csv", PP10_HEADER + b"CHN,2000,world share,full,0.5\n", "'world share'"),
    ("intl.csv", PP10_HEADER + b"CHN-USA,2000,,full,1.0\n", "''"),
    ("stocks.csv", STOCKS_HEADER + b'"Overseas(../../escaped,USA)",2000,1,0,1\n',
     "'Overseas_../../escaped_USA'"),
    ("stocks.csv", STOCKS_HEADER + b'"ReturneeResident(CHN,U S)",2000,1,0,1\n',
     "'ReturneeResident_CHN_U S'"),
    ("ratio.csv", PP10_HEADER + b"USA,2000,a b,full,0.5\n", "'a b'"),
    # a header other than the writer's, which would chart columns under the wrong names
    ("pp10.csv", b"", "line 1: header '', expected 'population,year,metric,counting,value'"),
    ("stocks.csv", b"class,year,new_movement,preceding,total\nDomestic(CHN),2005,0,1,1\n",
     "line 1: header 'class,year,new_movement,preceding,total', "
     "expected 'class,year,preceding,new_movement,total'"),
], ids=["value", "short-row", "non-utf8", "stocks-short-row", "stocks-year",
        "metric-path", "counting-path", "metric-subdirectory", "metric-space", "metric-empty",
        "stock-class-path", "stock-host-space", "ratio-metric-space", "no-header",
        "stocks-header-swapped"])
def test_report_on_malformed_table_is_one_error_line(tmp_path, capsys, name, body, reason):
    src = tmp_path / "a" / "b" / "ind"
    src.mkdir(parents=True)
    path = src / name
    path.write_bytes(body)
    if name != "pp10.csv":  # a valid table read ahead of the bad one
        (src / "pp10.csv").write_bytes(PP10_HEADER + b"WLD,2005,pp10_fwci,full,0.5\n")
    before = set(tmp_path.rglob("*"))
    assert run(["report", str(src)]) == 1
    if reason.startswith("'"):
        reason = (f"line 2: {reason} does not make a plain file name "
                  "(letters, digits, '_' and '-')")
    assert capsys.readouterr().err == f"careertrace: error: {path}: {reason}\n"
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["moves"], ["stocks"], ["indicators"], ["indicators", "--metrics", "stocks,ratio"],
], ids=["moves", "stocks", "indicators", "indicators-stocks-ratio"])
def test_home_outside_the_scheme_is_checked_without_authors(tmp_path, capsys, argv):
    """A corpus with no author to classify still has its home checked, once,
    before the states stage: one error line and no output."""
    corpus = tmp_path / "blank.jsonl"
    corpus.write_text("\n\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([argv[0], str(corpus), "-o", str(out), "--no-cache", "--home", "XYZ",
                *argv[1:]]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: home region 'XYZ' is not a label of the scheme\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stocks"], ["indicators", "--metrics", "stocks,ratio"],
], ids=["stocks", "indicators-stocks-ratio"])
def test_home_outside_the_scheme_is_checked_on_a_stocks_cache_hit(
        small_corpus, tmp_path, capsys, monkeypatch, argv):
    """A stocks entry stored under a home the scheme lacks (as code before the
    home check could store one) is never read: the home is checked first."""
    cache = tmp_path / "cache"
    with monkeypatch.context() as m:
        # the same scheme file, read as if it listed XYZ as a region
        def with_xyz(path):
            s = default_scheme()
            return RegionScheme({**s.regions, "XYZ": []}, [*s.labels, "XYZ"], s.other_label)

        m.setattr(pipeline, "load_scheme", with_xyz)
        assert run([argv[0], str(small_corpus), "-o", str(tmp_path / "planted"),
                    "--cache-dir", str(cache), "--home", "XYZ", *argv[1:]]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([argv[0], str(small_corpus), "-o", str(out), "--cache-dir", str(cache),
                "--home", "XYZ", *argv[1:]]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: home region 'XYZ' is not a label of the scheme\n")
    assert not out.exists()
    assert not tmp_path.joinpath("out.manifest.json").exists()


@pytest.mark.parametrize("command", ["moves", "indicators"])
def test_home_outside_the_scheme_writes_nothing(small_corpus, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command, str(small_corpus), "-o", str(out), "--no-cache", "--home", "XXX"]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: home region 'XXX' is not a label of the scheme\n")
    assert not out.exists()


def test_metric_selection(small_corpus, tmp_path, monkeypatch):
    def unselected(self):
        raise AssertionError("built an indicator family that was not selected")

    for name in ("share_rows", "intl_rows", "class_intl_rows", "direction_rows"):
        monkeypatch.setattr(IndicatorEngine, name, unselected)
    out = tmp_path / "ind2"
    assert run(["indicators", str(small_corpus), "-o", str(out), "--no-cache",
                "--metrics", "pp10"]) == 0
    assert (out / "pp10.csv").exists()
    assert not (out / "shares.csv").exists()


def test_unknown_metric_fails(small_corpus, tmp_path):
    assert run(["indicators", str(small_corpus), "-o", str(tmp_path / "x"),
                "--no-cache", "--metrics", "bogus"]) == 1


@pytest.mark.parametrize("selection", [["--metrics", ","], ["--metrics", ""], ["--config", "run.cfg"]])
def test_empty_metric_selection_fails(small_corpus, tmp_path, capsys, monkeypatch, selection):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("metrics =\n", encoding="utf-8")
    out = tmp_path / "x"
    assert run(["indicators", str(small_corpus), "-o", str(out), "--no-cache", *selection]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: metrics must name at least one of: "
        "pp10, shares, intl, class_intl, direction, stocks, ratio\n")
    assert not out.exists()


def test_run_config_file_and_flag_precedence(small_corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("home = CHN\ngrace_years = 1\n# comment\nmetrics = stocks\n")
    out = tmp_path / "ind3"
    assert run(["indicators", str(small_corpus), "-o", str(out),
                "--no-cache", "--config", str(cfg), "--metrics", "pp10"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grace_years"] == 1
    assert manifest["config"]["metrics"] == ["pp10"]  # flag wins over file


@pytest.mark.parametrize("line, message", [
    ("home CHN", "{cfg}:2: expected 'key = value'"),
    ("colour = red", "{cfg}:2: unknown key 'colour'"),
    ("end_year = soon", "{cfg}:2: end_year must be an integer"),
    ("intl_requires_distinct_authors = maybe",
     "{cfg}:2: intl_requires_distinct_authors must be true/false"),
    ("tie_rule = coinflip", "tie_rule must be 'hysteresis' or 'label_order'"),
    ("host_attribution = middle", "host_attribution must be 'first' or 'latest'"),
    ("grace_years = -1", "grace_years must be >= 0"),
], ids=["no-equals", "unknown-key", "integer", "boolean", "tie-rule", "host-attribution",
        "negative-grace"])
def test_bad_run_config_file_is_one_error_line(small_corpus, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run settings\n{line}\n")
    out = tmp_path / "stocks.csv"
    assert run(["stocks", str(small_corpus), "-o", str(out), "--no-cache",
                "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"careertrace: error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.fixture
def corpus_1980(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [rec("p1", 1980, [("a1", ["CHN"])]), rec("p2", 2005, [("a1", ["USA"])])])
    return path


@pytest.mark.parametrize("bound", [["--year-min", "2000"], ["--year-max", "2017"]])
def test_one_year_bound_is_a_config_error(corpus_1980, bound, capsys):
    assert run(["validate", str(corpus_1980), *bound]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: year_min and year_max must be set together\n")


def test_one_year_bound_in_config_file_is_a_config_error(corpus_1980, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("year_min = 2000\n")
    out = tmp_path / "m"
    assert run(["moves", str(corpus_1980), "-o", str(out), "--no-cache",
                "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "careertrace: error: year_min and year_max must be set together\n")
    # the file's bound and a flag's bound make one window together
    assert run(["validate", str(corpus_1980), "--config", str(cfg), "--year-max", "2017"]) == 1
    assert "year 1980 outside window 2000..2017" in capsys.readouterr().err


def test_inverted_year_window_is_a_config_error(corpus_1980, capsys):
    assert run(["validate", str(corpus_1980), "--year-min", "2020", "--year-max", "2000"]) == 1
    assert capsys.readouterr().err == "careertrace: error: year_min 2020 is after year_max 2000\n"


@pytest.mark.parametrize("scenario", [
    {"year_range": 5},
    {"team_size_weights": {"x": 1}},
    {"origin_weights": [1]},
    {"citation_model": {"F1": 5}},
    {"move_hazard": {"CHN": 5}},
], ids=["year_range", "team_size_weights", "origin_weights", "citation_model", "move_hazard"])
def test_misshapen_scenario_config_is_one_error_line(tmp_path, capsys, scenario):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    assert run(["synth", "--config", str(config), "-o", str(tmp_path / "c.jsonl"),
                "--truth", str(tmp_path / "t.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"careertrace: error: {config}: {next(iter(scenario))} ")
    assert err.count("\n") == 1


def test_synth_roundtrip_and_determinism(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for target in (a, b):
        assert run(["synth", "--seed", "3", "--n-authors", "40",
                    "-o", str(target), "--truth", str(target.with_suffix(".truth"))]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".truth").read_bytes() == b.with_suffix(".truth").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.jsonl", "a.jsonl.manifest.json", "a.truth", "b.jsonl", "b.jsonl.manifest.json", "b.truth"]
    assert run(["validate", str(a)]) == 0


def test_synth_manifest_echoes_degrade_settings(tmp_path):
    def manifest_config(name, *extra):
        out = tmp_path / f"{name}.jsonl"
        assert run(["synth", "--seed", "3", "--n-authors", "50", "-o", str(out),
                    "--truth", str(tmp_path / f"{name}.truth"), *extra]) == 0
        return json.loads(out.with_name(out.name + ".manifest.json").read_text())["config"]

    def degrade_settings(config):
        return {k: config.pop(k) for k in ("gap_probability", "dual_affiliation_probability")}

    plain = manifest_config("plain")
    degraded = manifest_config("degraded", "--gap-probability", "0.3",
                               "--dual-affiliation-probability", "0.2")
    assert (tmp_path / "plain.jsonl").read_bytes() != (tmp_path / "degraded.jsonl").read_bytes()
    assert degrade_settings(plain) == {"gap_probability": 0.0, "dual_affiliation_probability": 0.0}
    assert degrade_settings(degraded) == {"gap_probability": 0.3,
                                          "dual_affiliation_probability": 0.2}
    assert degraded == plain


def test_cache_hit_observable_in_manifest(small_corpus, tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "m1"
    out2 = tmp_path / "m2"
    assert run(["moves", str(small_corpus), "-o", str(out1), "--cache-dir", str(cache)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    stages1 = {s["stage"]: s["cache"] for s in m1["stages"]}
    assert stages1["timelines"] == "miss"
    assert stages1["states"] == "miss"
    assert run(["moves", str(small_corpus), "-o", str(out2), "--cache-dir", str(cache)]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    stages2 = {s["stage"]: s["cache"] for s in m2["stages"]}
    assert stages2["timelines"] == "hit"
    assert stages2["states"] == "hit"
    assert data_files(out1) == data_files(out2)


@pytest.mark.parametrize("command", [
    ["timelines"],
    ["moves"],
    ["stocks", "--end-year", "2008"],
    ["indicators"],
], ids=lambda c: c[0])
def test_warm_run_reproduces_cold_run(command, tmp_path):
    from conftest import random_records

    # multi-country authorships give fractional and tied weights to round-trip
    corpus = tmp_path / "in.jsonl"
    write_corpus(corpus, random_records(random.Random(5), 160))
    cache = tmp_path / "cache"
    name = "out.csv" if command[0] in ("timelines", "stocks") else "out"
    for run_name in ("cold", "warm"):
        assert run([command[0], str(corpus), "-o", str(tmp_path / run_name / name),
                    "--cache-dir", str(cache), *command[1:]]) == 0
    assert data_files(tmp_path / "cold") == data_files(tmp_path / "warm")
    manifest = next((tmp_path / "warm").rglob("*manifest.json"))
    outcomes = [s["cache"] for s in json.loads(manifest.read_text())["stages"]]
    assert "hit" in outcomes and "miss" not in outcomes


LEGAL_LABELS = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True).filter(
    lambda label: label not in ("WLD", "DOM", "ALL"))


@st.composite
def random_schemes(draw):
    """A scheme over the ``random_records`` countries with legal labels; the
    last label is the catch-all, and countries it draws stay unlisted."""
    labels = draw(st.lists(LEGAL_LABELS, min_size=2, max_size=4, unique=True))
    owner = {c: draw(st.sampled_from(labels)) for c in ("CHN", "USA", "DEU", "FRA", "JPN", "BRA")}
    return {
        "regions": {r: [c for c, o in owner.items() if o == r] for r in labels[:-1]},
        "label_order": draw(st.permutations(labels)),
        "other_label": labels[-1],
    }


@st.composite
def random_run_flags(draw, labels):
    """Flags of every run-configuration field, by command."""
    window = draw(st.none() | st.tuples(st.integers(1995, 2000), st.integers(2008, 2012)))
    timelines = ["--tie-rule", draw(st.sampled_from(TIE_RULES))]
    if window is not None:
        timelines += ["--year-min", str(window[0]), "--year-max", str(window[1])]
    home = timelines + [
        "--home", draw(st.sampled_from(labels)),
        "--grace", str(draw(st.integers(0, 3))),
        "--host-attribution", draw(st.sampled_from(HOST_ATTRIBUTIONS)),
    ]
    end_year = draw(st.none() | st.integers(1998, 2012))
    if end_year is not None:
        home += ["--end-year", str(end_year)]
    if draw(st.booleans()):
        home.append("--intl-requires-distinct-authors")
    metrics = draw(st.lists(st.sampled_from(ALL_METRICS), min_size=1, unique=True))
    return {
        "timelines": timelines,
        "moves": home,
        "stocks": home,
        "indicators": home + ["--metrics", ",".join(metrics)],
    }


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), data=st.data())
def test_cached_runs_match_uncached_runs(tmp_path_factory, seed, n, data):
    """Over random schemes and a sequence of random configurations sharing one
    cache, every command's cold-cache and warm-cache tables equal its
    ``--no-cache`` tables."""
    tmp = tmp_path_factory.mktemp("cache")
    corpus, scheme_path = tmp / "in.jsonl", tmp / "scheme.json"
    write_corpus(corpus, random_records(random.Random(seed), n))
    scheme = data.draw(random_schemes())
    scheme_path.write_text(json.dumps(scheme), encoding="utf-8")
    for i in range(2):
        flags = data.draw(random_run_flags(scheme["label_order"]))
        for command, args in flags.items():
            output = "out.csv" if command in ("timelines", "stocks") else "out"
            outs = []
            for run_name, cache in (("off", ["--no-cache"]), ("cold", []), ("warm", [])):
                root = tmp / f"{i}{command}{run_name}"
                assert run([command, str(corpus), "-o", str(root / output),
                            "--scheme", str(scheme_path), "--cache-dir", str(tmp / "cache"),
                            *cache, *args]) == 0
                outs.append(data_files(root))
            assert outs[0] == outs[1] == outs[2], (i, command)


def test_stocks_cache_skips_parse(small_corpus, tmp_path):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.csv"
    warm = tmp_path / "warm.csv"
    assert run(["stocks", str(small_corpus), "-o", str(cold), "--cache-dir", str(cache),
                "--end-year", "2016"]) == 0
    assert run(["stocks", str(small_corpus), "-o", str(warm), "--cache-dir", str(cache),
                "--end-year", "2016"]) == 0
    assert cold.read_bytes() == warm.read_bytes()
    manifest = json.loads((tmp_path / "warm.csv.manifest.json").read_text())
    stages = {s["stage"]: s["cache"] for s in manifest["stages"]}
    assert stages == {"stocks": "hit"}  # no parse, no timeline rebuild


def test_stocks_after_cached_moves_skips_parse(small_corpus, tmp_path):
    """The stock year range comes from the timelines and the run
    configuration, so stages cached by ``moves`` leave nothing to parse."""
    cache = tmp_path / "cache"
    for flags in ([], ["--end-year", "2016"], ["--year-min", "2000", "--year-max", "2020"]):
        assert run(["moves", str(small_corpus), "-o", str(tmp_path / "moves"),
                    "--cache-dir", str(cache), *flags]) == 0
        cached, uncached = tmp_path / "cached.csv", tmp_path / "uncached.csv"
        assert run(["stocks", str(small_corpus), "-o", str(cached), "--cache-dir", str(cache),
                    *flags]) == 0
        assert run(["stocks", str(small_corpus), "-o", str(uncached), "--no-cache", *flags]) == 0
        assert cached.read_bytes() == uncached.read_bytes(), flags
        manifest = json.loads((tmp_path / "cached.csv.manifest.json").read_text())
        assert [(s["stage"], s["cache"]) for s in manifest["stages"]] == [
            ("timelines", "hit"), ("states", "hit"), ("stocks", "miss")], flags


def test_cache_miss_after_one_byte_edit(small_corpus, tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "m1"
    assert run(["moves", str(small_corpus), "-o", str(out1), "--cache-dir", str(cache)]) == 0
    # one-byte change: different citation count
    body = small_corpus.read_text(encoding="utf-8").replace('"cites": 3', '"cites": 4')
    small_corpus.write_text(body, encoding="utf-8")
    out2 = tmp_path / "m2"
    assert run(["moves", str(small_corpus), "-o", str(out2), "--cache-dir", str(cache)]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    stages2 = {s["stage"]: s["cache"] for s in m2["stages"]}
    assert stages2["timelines"] == "miss"


def test_corrupt_cache_rebuilt(small_corpus, tmp_path, capsys):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold"
    assert run(["moves", str(small_corpus), "-o", str(cold), "--cache-dir", str(cache)]) == 0
    # truncate every cache table
    for entry in cache.glob("*.csv"):
        entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2])
    warm = tmp_path / "warm"
    assert run(["moves", str(small_corpus), "-o", str(warm), "--cache-dir", str(cache)]) == 0
    err = capsys.readouterr().err
    assert "discarding corrupt cache entry" in err
    assert data_files(cold) == data_files(warm)


def test_cache_load_decodes_the_bytes_it_verified(tmp_path, monkeypatch):
    cache = Cache(tmp_path)
    key = Cache.key("states", ["corpus"])
    rows = [[f"a{i:03d}", str(2000 + i), "Domestic(CHN)", str(2000 + i)] for i in range(100)]
    cache.store(key, ["author_id", "year", "class", "since_year"], rows)
    data_path = tmp_path / f"{key}.csv"
    blob = data_path.read_bytes()
    sha256 = hashlib.sha256

    def sha256_then_truncated(data=b""):
        # another run sharing the cache starts storing the entry right after
        # the digest is taken
        digest = sha256(data)
        if data == blob:
            data_path.write_bytes(blob[: len(blob) // 2])
        return digest

    monkeypatch.setattr(hashlib, "sha256", sha256_then_truncated)
    assert list(cache.load(key)) == rows


@pytest.mark.parametrize("damage", [
    b"x\xff,2001,p1,CHN,CHN:1.0,0\n",  # not UTF-8
    b"x1\n",  # one column of six
    b"x1,notayear,p1,CHN,CHN:1.0,0\n",
    b"x1,2001,p1,XYZ,XYZ:1.0,0\n",  # a region the scheme does not list
    b"x1,2001,p1,XYZ,CHN:1.0,0\n",  # a dominant region the scheme does not list
])
def test_cache_entry_that_does_not_decode_is_rebuilt(tmp_path, capsys, damage):
    """An entry whose digest matches but whose rows do not decode is discarded
    with one warning and rebuilt, as one whose digest does not match is. The
    damage lies past the first chunk decoded, so it surfaces as rows stream."""
    corpus, cache = tmp_path / "in.jsonl", tmp_path / "cache"
    write_corpus(corpus, random_records(random.Random(1), 300))
    assert run(["timelines", str(corpus), "-o", str(tmp_path / "cold.csv"),
                "--cache-dir", str(cache)]) == 0
    (entry,) = cache.glob("*.csv")
    blob = entry.read_bytes()
    assert len(blob) > 8192
    entry.write_bytes(blob + damage)
    entry.with_name(entry.name + ".sha256").write_text(
        hashlib.sha256(blob + damage).hexdigest() + "\n", encoding="utf-8")
    capsys.readouterr()
    warm, off = tmp_path / "warm.csv", tmp_path / "off.csv"
    assert run(["timelines", str(corpus), "-o", str(warm), "--cache-dir", str(cache)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"discarding corrupt cache entry {entry.name}" in err[0], err
    assert run(["timelines", str(corpus), "-o", str(off), "--no-cache"]) == 0
    assert warm.read_bytes() == off.read_bytes()
    manifest = json.loads((tmp_path / "warm.csv.manifest.json").read_text(encoding="utf-8"))
    assert [(s["stage"], s["cache"]) for s in manifest["stages"]] == [
        ("parse", "off"), ("timelines", "miss")]
    assert entry.read_bytes() == blob


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), data=st.data())
def test_pipeline_determinism_under_shuffle(tmp_path_factory, seed, n, data):
    """Every table of timelines, moves, stocks and indicators is the same bytes
    on a rerun and for any line order of the corpus."""
    records = random_records(random.Random(seed), n)
    tmp = tmp_path_factory.mktemp("shuffle")
    base, shuf = tmp / "in.jsonl", tmp / "shuf.jsonl"
    write_corpus(base, records)
    write_corpus(shuf, data.draw(st.permutations(records)))
    for command, output in (("timelines", "t.csv"), ("moves", "m"), ("stocks", "s.csv"),
                            ("indicators", "i")):
        outs = []
        for i, src in enumerate([base, base, shuf]):
            root = tmp / f"{command}{i}"
            assert run([command, str(src), "-o", str(root / output), "--no-cache"]) == 0
            outs.append(data_files(root))
        assert outs[0] == outs[1] == outs[2], command


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "careertrace" in capsys.readouterr().out


def test_moves_origin_table(small_corpus, tmp_path):
    out = tmp_path / "mv"
    assert run(["moves", str(small_corpus), "-o", str(out), "--no-cache"]) == 0
    body = (out / "origins.csv").read_text(encoding="utf-8").splitlines()
    assert body[0] == "author_id,origin,origin_ambiguous"
    assert "a1,CHN,0" in body
    assert "a3,USA,0" in body


def test_tie_rule_config(tmp_path):
    # a 50/50 year after a USA year: hysteresis keeps USA, label_order picks CHN
    records = [
        rec("p1", 2005, [("a1", ["USA"])]),
        rec("p2", 2006, [("a1", ["CHN", "USA"])]),
    ]
    src = tmp_path / "c.jsonl"
    write_corpus(src, records)
    out_h = tmp_path / "h.csv"
    out_l = tmp_path / "l.csv"
    assert run(["timelines", str(src), "-o", str(out_h), "--no-cache"]) == 0
    assert run(["timelines", str(src), "-o", str(out_l), "--no-cache",
                "--tie-rule", "label_order"]) == 0
    assert "a1,2006,p2,USA," in out_h.read_text()
    assert "a1,2006,p2,CHN," in out_l.read_text()


def test_validate_with_custom_scheme(tmp_path):
    scheme_path = tmp_path / "two_region.json"
    scheme_path.write_text(json.dumps({
        "regions": {"ASIA": ["CHN", "JPN"], "WEST": ["USA", "DEU"]},
        "label_order": ["ASIA", "WEST", "OTHER"],
    }))
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [rec("p0", 2005, [("a1", ["JPN"])])])
    assert run(["validate", str(corpus), "--scheme", str(scheme_path)]) == 0
    out = tmp_path / "tl.csv"
    assert run(["timelines", str(corpus), "-o", str(out), "--no-cache",
                "--scheme", str(scheme_path)]) == 0
    assert "a1,2005,p0,ASIA,ASIA:1.0,0" in out.read_text()


def test_bad_scheme_file_exit_one(tmp_path):
    scheme_path = tmp_path / "bad.json"
    scheme_path.write_text('{"regions": {"A": ["CHN"], "B": ["CHN"]}, "label_order": ["A","B","OTHER"]}')
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, [rec("p0", 2005, [("a1", ["CHN"])])])
    assert run(["validate", str(corpus), "--scheme", str(scheme_path)]) == 1


@pytest.mark.parametrize("scheme", [
    {"regions": [["CHN"]], "label_order": ["OTHER"]},
    {"regions": {"CHN": 5}, "label_order": ["CHN", "OTHER"]},
    {"regions": {"CHN": "CHN"}, "label_order": ["CHN", "OTHER"]},
    {"regions": {"CHN": [["CHN"]]}, "label_order": ["CHN", "OTHER"]},
    {"regions": {"CHN": ["CHN"]}, "label_order": 5},
    {"regions": {"CHN": ["CHN"]}, "label_order": {"CHN": 0, "OTHER": 1}},
    {"regions": {"CHN": ["CHN"]}, "label_order": ["CHN", "OTHER", 1, "X"]},
], ids=["regions-list", "codes-number", "codes-string", "codes-nested", "order-number",
        "order-object", "order-mixed"])
def test_misshapen_scheme_file_is_one_error_line(small_corpus, tmp_path, capsys, scheme):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(scheme), encoding="utf-8")
    assert run(["validate", str(small_corpus), "--scheme", str(scheme_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"careertrace: error: {scheme_path}: '")
    assert err.count("\n") == 1


def _scheme_renaming(path: Path, old: str, new: str) -> Path:
    """The default scheme with label ``old`` (a region or the catch-all) renamed ``new``."""
    scheme = json.loads(default_scheme_path().read_text(encoding="utf-8"))
    if old in scheme["regions"]:
        scheme["regions"] = {new if k == old else k: v for k, v in scheme["regions"].items()}
    else:
        scheme["other_label"] = new
    scheme["label_order"] = [new if k == old else k for k in scheme["label_order"]]
    path.write_text(json.dumps(scheme), encoding="utf-8")
    return path


# Each label would break an output if accepted: WLD as home writes world_share
# 1.0, DOM as home and ALL abroad name a second series after an existing one,
# and a separator in a label passes the cold run, then fails to decode from the
# cache on the warm one.
@pytest.mark.parametrize("old, label, argv", [
    ("CHN", "WLD", ["indicators", "--home", "WLD", "--metrics", "shares"]),
    ("CHN", "DOM", ["indicators", "--home", "DOM", "--metrics", "shares"]),
    ("EU28", "ALL", ["indicators", "--metrics", "shares"]),
    ("USA", "US,A", ["moves"]),
    ("USA", "US|A", ["timelines"]),
    ("OTHER", "WLD", ["indicators", "--home", "WLD", "--metrics", "shares"]),
], ids=["home-WLD", "home-DOM", "region-ALL", "comma", "pipe", "other-WLD"])
def test_scheme_label_outputs_cannot_carry_exit_one(small_corpus, tmp_path, capsys,
                                                    old, label, argv):
    scheme_path = _scheme_renaming(tmp_path / "scheme.json", old, label)
    out = tmp_path / "out"
    for _ in range(2):  # cold, then warm cache
        assert run([argv[0], str(small_corpus), "-o", str(out), "--scheme", str(scheme_path),
                    "--cache-dir", str(tmp_path / "cache"), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"careertrace: error: region label {label!r} ")
        assert err.count("\n") == 1
    assert not out.exists()


def test_non_utf8_scheme_file_exit_one(small_corpus, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_bytes(b'{"regions": {"A": ["CHN"]}, "label_order": ["A", "OTHER"], "x": "\xff"}')
    assert run(["validate", str(small_corpus), "--scheme", str(scheme_path)]) == 1
    assert capsys.readouterr().err == f"careertrace: error: {scheme_path}: not valid UTF-8\n"


def test_non_utf8_run_config_exit_one(small_corpus, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"home = CHN\xff\n")
    assert run(["validate", str(small_corpus), "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"careertrace: error: {config}: not valid UTF-8\n"


def test_non_utf8_scenario_config_exit_one(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_bytes(b'{"seed": 1, "x": "\xff"}')
    assert run(["synth", "--config", str(config), "-o", str(tmp_path / "c.jsonl"),
                "--truth", str(tmp_path / "t.jsonl")]) == 1
    assert capsys.readouterr().err == f"careertrace: error: {config}: not valid UTF-8\n"


def test_deeply_nested_scheme_file_exit_one(small_corpus, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["validate", str(small_corpus), "--scheme", str(scheme_path)]) == 1
    assert capsys.readouterr().err == (
        f"careertrace: error: {scheme_path}: not valid JSON (nesting too deep)\n")


def test_deeply_nested_scenario_config_exit_one(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text("[" * 100_000, encoding="utf-8")
    assert run(["synth", "--config", str(config), "-o", str(tmp_path / "c.jsonl"),
                "--truth", str(tmp_path / "t.jsonl")]) == 1
    assert capsys.readouterr().err == (
        f"careertrace: error: {config}: scenario config is not valid JSON (nesting too deep)\n")


def test_manifest_rerun_identical_except_timestamp(small_corpus, tmp_path):
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run(["moves", str(small_corpus), "-o", str(out), "--no-cache"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("timestamp")
        outs.append(manifest)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["validate", "{corpus}"], 0),
    (["indicators", "{corpus}", "-o", "{out}", "--no-cache", "--metrics", "bogus"], 1),
    (["validate"], 2),
    (["validate", "{corpus}"], RuntimeError),
])
def test_run_restores_the_callers_collector_state(small_corpus, tmp_path, monkeypatch, capsys,
                                                   enabled, argv, code):
    """run turns the cyclic collector off for the command and gives the
    caller back its state, whether the command succeeds, fails, is misused
    or raises."""
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("escaped")

    if code is RuntimeError:
        monkeypatch.setitem(cli._COMMANDS, "validate", (*cli._COMMANDS["validate"][:2], command))
    argv = [a.format(corpus=small_corpus, out=tmp_path / "out") for a in argv]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError, match="escaped"):
                run(argv)
            assert seen == [False]
        else:
            assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _garbage_after(argv: list[str]) -> int:
    """Objects in reference cycles that one run leaves behind."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run(argv)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("command", ["indicators", "stocks", "validate"])
def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path, command):
    """run keeps the cyclic collector off, so a command must leave no cycles
    per record or output row: only reference counting frees its data. The
    garbage one run leaves is the same at a few hundred records as at ten
    times that; the years grow with the records, so the stock table does too."""
    garbage = []
    for n in (300, 3000):
        d = tmp_path / str(n)
        d.mkdir()
        corpus = d / "c.jsonl"
        write_corpus(corpus, random_records(random.Random(5), n, years=(2000, 2000 + n // 30)))
        bad = d / "bad.jsonl"
        bad.write_text('{"nope": 1}\n' * n, encoding="utf-8")
        argv = {
            "indicators": ["indicators", str(corpus), "-o", str(d / "ind"), "--no-cache"],
            "stocks": ["stocks", str(corpus), "-o", str(d / "s.csv"), "--cache-dir", str(d / "c")],
            "validate": ["validate", str(bad)],
        }[command]
        _garbage_after(argv)  # warm-up; for stocks it also fills the cache the next run hits
        garbage.append(_garbage_after(argv))
    if command == "stocks":
        manifest = json.loads((d / "s.csv.manifest.json").read_text())
        assert {s["stage"]: s["cache"] for s in manifest["stages"]} == {"stocks": "hit"}
    small, large = garbage
    assert large <= small * 1.1, garbage
