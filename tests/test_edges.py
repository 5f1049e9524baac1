"""Edge-path coverage: file-loader diagnostics, CLI flag plumbing, report on
partial inputs, infinity formatting."""

import math
import random
from pathlib import Path

import pytest

from careertrace.cli import run
from careertrace.corpus import load_corpus, parse_corpus
from careertrace.errors import MalformedLine
from careertrace.indicators import nearest_rank_90th
from careertrace.report import write_table

from conftest import lines, rec


def write_corpus(path: Path, records):
    path.write_text("\n".join(lines(*records)) + "\n", encoding="utf-8")


def test_parallel_parse_bad_line_reports_exact_line(scheme, tmp_path):
    records = [rec(f"p{i}", 2005, [("a1", ["CHN"])]) for i in range(60)]
    body = lines(*records)
    body.insert(40, "{broken")
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path, scheme)
    assert exc.value.line_no == 41
    assert str(exc.value) == (
        "line 41: invalid JSON (Expecting property name enclosed in double quotes)"
    )


def test_parallel_parse_non_utf8_reports_exact_line(scheme, tmp_path):
    body = [line.encode() for line in lines(*[rec(f"p{i}", 2005, [("a1", ["CHN"])]) for i in range(60)])]
    body.insert(40, b"\xff\xfe")
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(b"\n".join(body) + b"\n")
    with pytest.raises(MalformedLine) as exc:
        load_corpus(path, scheme)
    assert exc.value.line_no == 41
    assert str(exc.value) == "line 41: not valid UTF-8"


def test_parallel_parse_window_enforced(scheme, tmp_path):
    records = [rec("p0", 1980, [("a1", ["CHN"])]), rec("p1", 2005, [("a1", ["CHN"])])]
    path = tmp_path / "w.jsonl"
    write_corpus(path, records)
    with pytest.raises(MalformedLine, match=r"outside window 2000\.\.2017"):
        load_corpus(path, scheme, (2000, 2017))


def test_unicode_survives_round_trip(scheme):
    corpus = parse_corpus(
        lines(rec("p-é中", 2005, [("auteur-ü", ["CHN"])])), scheme
    )
    again = parse_corpus(corpus.dump_lines(), scheme)
    assert again.records[0].pub_id == "p-é中"
    assert again.records[0].authorships[0].author_id == "auteur-ü"


def test_cli_year_window_rejects_out_of_range(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [rec("p0", 1980, [("a1", ["CHN"])])])
    assert run(["validate", str(path), "--year-min", "2000", "--year-max", "2017"]) == 1
    assert run(["validate", str(path)]) == 0


def test_cli_host_attribution_flag(tmp_path):
    records = [
        rec("p0", 2005, [("a1", ["CHN"])]),
        rec("p1", 2006, [("a1", ["USA"])]),
        rec("p2", 2008, [("a1", ["CHN"])]),
        rec("p3", 2010, [("a1", ["DEU"])]),
        rec("p4", 2012, [("a1", ["CHN"])]),
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(path, records)
    out_latest = tmp_path / "latest"
    out_first = tmp_path / "first"
    assert run(["moves", str(path), "-o", str(out_latest), "--no-cache"]) == 0
    assert run(["moves", str(path), "-o", str(out_first), "--no-cache",
                "--host-attribution", "first"]) == 0
    latest = (out_latest / "states.csv").read_text()
    first = (out_first / "states.csv").read_text()
    assert 'a1,2012,"ReturneeResident(CHN,EU28)",2012' in latest
    assert 'a1,2012,"ReturneeResident(CHN,USA)",2012' in first


def test_cli_intl_distinct_authors_flag(tmp_path):
    # single author with two countries: international by default, not with the flag
    records = [
        rec("p0", 2005, [("a1", ["CHN", "USA"])]),
        rec("p1", 2005, [("a2", ["CHN"]), ("a3", ["USA"])]),
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(path, records)
    out_default = tmp_path / "d"
    out_strict = tmp_path / "s"
    assert run(["indicators", str(path), "-o", str(out_default), "--no-cache",
                "--metrics", "intl"]) == 0
    assert run(["indicators", str(path), "-o", str(out_strict), "--no-cache",
                "--metrics", "intl", "--intl-requires-distinct-authors"]) == 0

    def copub_full(path):
        for line in path.read_text().splitlines()[1:]:
            pop, year, metric, counting, value = line.split(",")
            if pop == "CHN-USA" and counting == "full":
                return float(value)
        return 0.0

    assert copub_full(out_default / "intl.csv") == 2.0
    assert copub_full(out_strict / "intl.csv") == 1.0


def test_cli_synth_degrade_flags(tmp_path):
    clean = tmp_path / "clean.jsonl"
    noisy = tmp_path / "noisy.jsonl"
    assert run(["synth", "--seed", "5", "--n-authors", "60", "-o", str(clean),
                "--truth", str(tmp_path / "t1.jsonl")]) == 0
    assert run(["synth", "--seed", "5", "--n-authors", "60", "-o", str(noisy),
                "--truth", str(tmp_path / "t2.jsonl"), "--gap-probability", "0.3"]) == 0
    assert (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t2.jsonl").read_bytes()
    assert sum(1 for _ in open(noisy)) < sum(1 for _ in open(clean))


def test_ratio_infinity_written_as_inf(tmp_path):
    # overseas author, nobody returns: the ratio column must carry inf
    records = [
        rec("p0", 2005, [("a1", ["CHN"])]),
        rec("p1", 2007, [("a1", ["USA"])]),
        rec("p2", 2008, [("a1", ["USA"])]),
    ]
    path = tmp_path / "c.jsonl"
    write_corpus(path, records)
    out = tmp_path / "ind"
    assert run(["indicators", str(path), "-o", str(out), "--no-cache",
                "--metrics", "ratio"]) == 0
    body = (out / "ratio.csv").read_text().splitlines()
    inf_rows = [line for line in body if line.endswith(",inf")]
    assert inf_rows and inf_rows[0].startswith("USA,")
    assert math.isinf(float(inf_rows[0].rsplit(",", 1)[1]))


def test_report_on_partial_indicator_dir(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, [rec("p0", 2005, [("a1", ["CHN"]), ("a2", ["USA"])], cites=3)])
    out = tmp_path / "ind"
    assert run(["indicators", str(path), "-o", str(out), "--no-cache",
                "--metrics", "pp10"]) == 0
    assert run(["report", str(out)]) == 0
    assert (out / "report" / "summary.txt").exists()


def test_report_on_missing_dir(tmp_path, capsys):
    absent = tmp_path / "absent"
    assert run(["report", str(absent)]) == 1
    assert capsys.readouterr().err == f"careertrace: error: {absent} is not a directory\n"


def test_nearest_rank_strict_count_within_cohort_granularity():
    """With all-distinct values the strict top-decile count is within 1/n of 10%."""
    rng = random.Random(2)
    for n in (7, 10, 19, 20, 95, 101, 250, 1000):
        values = rng.sample(range(10 * n), n)
        values = [v + rng.random() for v in values]  # distinct continuous scores
        threshold = nearest_rank_90th(values)
        flagged = sum(1 for v in values if v > threshold)
        assert flagged == n - math.ceil(0.9 * n)
        assert abs(flagged / n - 0.10) <= 1.0 / n


def test_write_table_golden_bytes(tmp_path):
    """Strings are quoted only where CSV needs it, other values written with
    ``str``, floats as their shortest round-trip repr, infinities with sign."""
    path = tmp_path / "t.csv"
    write_table(path, ["text", "count", "sum", "tiny", "up", "down"],
                [['x, "y"\nz', 7, 0.1 + 0.2, 1e-300, math.inf, -math.inf]])
    assert path.read_bytes() == (
        b'text,count,sum,tiny,up,down\n'
        b'"x, ""y""\nz",7,0.30000000000000004,1e-300,inf,-inf\n'
    )


def test_write_table_removes_a_table_whose_rows_raise(tmp_path):
    """Rows are written as they are made, so one that fails to be made must
    not leave the rows before it behind as a table."""
    path = tmp_path / "t.csv"
    path.write_text("an older table\n", encoding="utf-8")

    def rows():
        yield ["a", 1]
        raise KeyError("unknown region")

    with pytest.raises(KeyError):
        write_table(path, ["text", "count"], rows())
    assert not path.exists()
