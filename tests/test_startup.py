"""Start-up: each command loads only the modules it runs, and the parser a
command builds for itself parses and prints as the full parser does."""

import contextlib
import io

import pytest

from careertrace import __version__
from careertrace.cli import build_parser, run

from conftest import lines, rec, run_fresh

# loaded by every command: the cli with what its module level imports
BASE = {"careertrace", "careertrace.cli", "careertrace.config", "careertrace.corpus",
        "careertrace.errors", "careertrace.mobility", "careertrace.report", "careertrace.tables",
        "careertrace.timeline"}
STAGES = BASE | {"careertrace.pipeline", "careertrace.stocks"}
COMMANDS = "{validate,timelines,moves,stocks,indicators,synth,report}"


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines(
        rec("p1", 2005, [("a1", ["CHN"])], cites=3),
        rec("p2", 2007, [("a1", ["USA"])], cites=1),
        rec("p3", 2014, [("a1", ["CHN"]), ("a2", ["CHN"])], cites=8),
    )) + "\n", encoding="utf-8")
    return path


def _loaded(argv: list[str]) -> tuple[set[str], bool]:
    """The careertrace modules a fresh interpreter holds after running
    ``argv``, and whether it loaded ``hashlib``."""
    proc = run_fresh("import sys\nfrom careertrace.cli import run\n"
                     f"status = run({argv!r})\n"
                     "print(status, 'hashlib' in sys.modules, *sorted(\n"
                     "    m for m in sys.modules if m.split('.')[0] == 'careertrace'))")
    assert proc.returncode == 0, proc.stderr
    status, hashed, *modules = proc.stdout.split()
    assert status == "0", proc.stderr
    return set(modules), hashed == "True"


@pytest.mark.parametrize("command, expected, hashed", [
    ("validate", BASE, False),
    ("report", BASE, False),
    ("timelines", STAGES, True),
    ("moves", STAGES, True),
    ("stocks", STAGES, True),
    ("indicators", STAGES | {"careertrace.indicators"}, True),
    ("synth", STAGES | {"careertrace.synth"}, True),
])
def test_each_command_loads_only_the_modules_it_runs(command, expected, hashed, corpus, tmp_path):
    """``validate`` runs no stage and hashes nothing; ``report`` reads tables
    without the pipeline or the indicator engine. Neither loads the stock rules. The data commands load the
    pipeline (and ``hashlib`` for the input digests), and only ``indicators``
    and ``synth`` load their own engines."""
    out = str(tmp_path / "out")
    if command == "validate":
        argv = ["validate", str(corpus)]
    elif command == "report":
        assert run(["indicators", str(corpus), "-o", str(tmp_path / "ind"), "--no-cache"]) == 0
        argv = ["report", str(tmp_path / "ind"), "-o", out]
    elif command == "synth":
        argv = ["synth", "--n-authors", "20", "-o", out, "--truth", str(tmp_path / "truth")]
    else:
        argv = [command, str(corpus), "-o", out, "--no-cache"]
    assert _loaded(argv) == (expected, hashed)


def _parse(parser, argv: list[str]):
    """What parsing ``argv`` gives: the namespace or the exit code, with the
    text written to standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["validate", "c.jsonl", "--year-min", "2000", "--year-max", "2010", "--scheme", "s.json"],
    ["timelines", "c.jsonl", "-o", "t.csv", "--tie-rule", "hysteresis", "--no-cache"],
    ["moves", "c.jsonl", "-o", "mv", "--home", "USA", "--grace", "3", "--cache-dir", "cache"],
    ["stocks", "c.jsonl", "-o", "s.csv", "--end-year", "2017", "--host-attribution", "latest"],
    ["indicators", "c.jsonl", "-o", "ind", "--metrics", "pp10,stocks",
     "--intl-requires-distinct-authors", "--config", "run.cfg"],
    ["synth", "--seed", "3", "--n-authors", "10", "-o", "c.jsonl", "--truth", "t.jsonl",
     "--gap-probability", "0.1"],
    ["report", "ind", "-o", "rep"],
])
def test_a_commands_own_parser_acts_as_the_full_parser(argv):
    """The same namespace for a representative command line; for ``-h``, the
    same help text; and for an unknown option or missing arguments, the same
    usage error, whose usage line names every command."""
    command = argv[0]
    own = build_parser(command)
    namespace, _out, _err = _parse(own, argv)
    assert namespace.command == command
    for case in (argv, [command, "-h"], [*argv, "--bogus"], [command]):
        assert _parse(own, case) == _parse(build_parser(), case), case
    code, _out, err = _parse(own, [*argv, "--bogus"])
    assert code == 2
    assert COMMANDS in err and "error: unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv, code, stream, text", [
    (["-h"], 0, "out", COMMANDS),
    (["--version"], 0, "out", f"careertrace {__version__}\n"),
    ([], 2, "err", "error: the following arguments are required: command\n"),
    (["frobnicate"], 2, "err", "error: argument command: invalid choice: 'frobnicate'"),
])
def test_top_level_help_version_and_usage_errors(argv, code, stream, text, capsys):
    """Without a command first, ``run`` builds every subparser: help lists
    every command, and the exit codes are 0, 0, 2 and 2."""
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert text in (out if stream == "out" else err)
    assert _parse(build_parser(), argv) == (code, out, err)
