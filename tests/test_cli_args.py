"""The table parser of ``patchtower.cli`` against the argparse tree it
replaced (``util.reference_parser``): on every command line both return
the same values and handler, or both exit with the same status, except
that where argparse keeps an inline "--" as the value [] of a one-value
option, the table parser exits 2."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchtower.cli import COMMANDS as TABLE
from patchtower.cli import parse_args
from patchtower.scenarios import PERTURBATIONS
from util import reference_parser

COMMANDS = ["gen", "verify-ha", "invariants", "minimize", "patch", "bogus"]
NAMES = [
    "--format", "--p", "--q", "--r", "--d", "--precisions", "--seed", "--rank",
    "--rinf-degree", "--perturbation", "--out-dir", "--precision", "--help", "-h",
]
PREFIXES = ["--f", "--form", "--pr", "--pre", "--prec", "--pe", "--pert", "--ra", "--ri", "--rinf", "--o", "--s", "--h", "--he", "--x"]
INLINE = [
    "--seed=-1", "--prec=2", "--precision=", "--format=json", "--format=", "--out-dir=--", "--precisions=3",
    "--q=1", "--r=0", "--p=3", "--pert=base_mismatch", "--help=x", "--=1", "-h=", "-hh", "-hx",
]
MARKS = ["--", "-", "-x", "-h", ""]
INTS = ["0", "1", "2", "3", "-1", "-2", "1_000", " 7", "1.5", "-1.5", "-.5", "x", "-٣", "-5\n"]
CHOICES = ["json", "text", *PERTURBATIONS, "xml"]
FILES = ["t.json", "out", "-t.json", "-a b", "a b"]
# each group is drawn as often as any other, so the few separators and
# inline forms come up as often as the many option names
TOKEN = st.one_of(*(st.sampled_from(group) for group in (COMMANDS, NAMES, PREFIXES, INLINE, MARKS, INTS, CHOICES, FILES)))

# valid command lines, so that random insertions reach the success path
SKELETONS = [
    ["gen", "--q", "1", "--r", "1", "--out-dir", "o"],
    ["patch", "t.json"],
    ["verify-ha", "c.json"],
]

REFERENCE = reference_parser()


def outcome(parse, argv):
    """("exit", status) or ("ok", values without the handler, handler)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code
    values = dict(vars(args))
    return "ok", values, values.pop("func")


def expected(argv):
    """The reference's outcome, but exit 2 where it returns [] for a
    one-value option (every option but --precisions)."""
    got = outcome(REFERENCE.parse_args, argv)
    if got[0] == "ok" and any(v == [] for k, v in got[1].items() if k != "precisions"):
        return "exit", 2
    return got


def assert_same(argv):
    assert outcome(parse_args, argv) == expected(argv), argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(TOKEN, max_size=8), st.sampled_from(COMMANDS))
def test_random_command_lines_match_the_reference(tokens, command):
    assert_same(tokens)
    assert_same([command, *tokens])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(SKELETONS), st.lists(st.tuples(st.integers(0, 8), TOKEN), max_size=4))
def test_edited_valid_command_lines_match_the_reference(skeleton, edits):
    argv = list(skeleton)
    for at, token in edits:
        argv.insert(at, token)
    assert_same(argv)


GEN = ["gen", "--q", "1", "--r", "1", "--out-dir", "o"]


@pytest.mark.parametrize(
    "argv, status",
    [
        (["patch", "t.json", "--prec", "2"], "ok"),
        (["patch", "t.json", "--precision=2"], "ok"),
        (["gen", "--pert", "tau_not_constant", "--q", "1", "--r", "1", "--out-dir", "o"], "ok"),
        ([*GEN, "--p", "5", "--seed", "-1", "--d", "-2"], "ok"),
        ([*GEN, "--seed", "-5\n"], "ok"),
        ([*GEN, "--precisions"], "ok"),
        ([*GEN, "--precisions", "1", "--precisions", "1", "2"], "ok"),
        ([*GEN, "--precisions", "1", "--"], 2),
        ([*GEN, "--out-dir=--"], 2),
        (["patch", "--", "-t.json"], "ok"),
        (["patch", "t.json", "--"], "ok"),
        (["patch", "t.json", "--format", "json", "--"], 2),
        (["patch", "-.5"], "ok"),
        (["patch", "-a b"], "ok"),
        (["patch", "a", "b", "-h"], 0),
        (["gen", "-hh"], 0),
        (["gen", "-hx"], 2),
        (["gen", "-h", "--=1"], 2),
        (["--bogus", "gen", "-h"], 0),
        (["--bogus", "patch", "t.json"], 2),
        (["--he"], 0),
        (["--", "gen"], 2),
        ([*GEN, "--precisions=--"], "ok"),
        ([*GEN, "--format=--"], 2),
        (["patch", "t.json", "--precision=--"], 2),
        ([*GEN, "--seed=--", "-h"], 0),
        ([*GEN, "--seed=--", "--seed", "2"], "ok"),
    ],
)
def test_corners_match_the_reference(argv, status):
    assert_same(argv)
    got = outcome(parse_args, argv)
    assert got[0] == "ok" if status == "ok" else got == ("exit", status)


ONE_VALUE = [
    (cmd, name) for cmd in ("gen", "patch") for name, spec in TABLE[cmd][3].items() if spec.get("nargs") != "*"
]


@pytest.mark.parametrize("cmd, name", ONE_VALUE)
def test_inline_separator_is_not_a_value(capsys, cmd, name):
    # argparse stored [] here: gen --out-dir=-- and --seed=-- and patch
    # --precision=-- died with a TypeError, and gen --format=-- wrote text
    argv = [*GEN, f"{name}=--"] if cmd == "gen" else ["patch", "t.json", f"{name}=--"]
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"patchtower {cmd}: error: argument {name}: expected one argument\n")
    assert parse_args([*GEN, "--precisions=--"]).precisions == []
