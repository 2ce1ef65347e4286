"""`oseq.cli._parse` reads argv as the argparse parser it replaced did
(`cli_parser_oracle.py`): the same arguments, or the same error line, or help.

The deliberate differences are left out of the inputs: argparse took an
abbreviated long option, ended the options at `--`, read `-hx` as `-h` with
the value `x` and `-hh` or `-h=h` as `-h` twice, and refused a `poset`
expression that followed an option (its reference is `parse_intermixed_args`,
which reads them all, as `_parse` does).
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from cli_parser_oracle import _parser
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fixtures_cli import USAGE_ERRORS

from oseq import InputError, ascii_int
from oseq.cli import _VERBS, _help, _parse

ROOT = Path(__file__).resolve().parents[1]
_REFERENCE = _parser()
(_SUBPARSERS,) = [a for a in _REFERENCE._actions if a.dest == "command"]


def _reference(argv):
    """("error", line), ("help", 0) or (function, arguments) from argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if argv[:1] == ["poset"]:
                args = _SUBPARSERS.choices["poset"].parse_intermixed_args(argv[1:])
                args.command = "poset"
            else:
                args = _REFERENCE.parse_args(argv)
    except InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "help", exc.code
    values = vars(args)
    func = values.pop("func")
    if values["command"] == "verify":
        # read and ignored: argparse appended each to a list, and the table
        # keeps the last choice given, its first by default
        values["features"] = values["features"][-1] if values["features"] else "sz8"
    return func, values


def _read(argv):
    """The same outcome from `_parse`."""
    try:
        func, args = _parse(argv)
    except InputError as exc:
        return "error", str(exc)
    return ("help", 0) if func is _help else (func, vars(args))


def _recorded_argvs():
    outputs = json.loads((ROOT / "tests" / "cli_outputs.json").read_text(encoding="utf-8"))
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    return [entry["argv"] for entry in outputs] + [shlex.split(key) for key in expected]


def test_every_recorded_argv_reads_as_argparse_read_it():
    for argv in _recorded_argvs():
        outcome = _read(argv)
        assert outcome[0] not in ("error", "help"), argv
        assert outcome == _reference(argv), argv


@pytest.mark.parametrize("argv", [list(args) for args, _ in USAGE_ERRORS])
def test_every_usage_error_case_reads_as_argparse_read_it(argv):
    assert _read(argv) == _reference(argv)


# Tokens that start with `-` and are positionals all the same: `-` alone, a
# negative number (argparse's `$` also matches before a final newline) or a
# token with a space in it
_DASHED = ["-", "-5", "-1.5", "-.5", "-5\n", "-٣", "-x y", "-x=y z"]
_GOOD = {str: ["x", "C(2)", "", "a=b", "7", *_DASHED], ascii_int: ["7", "12", " 7", "-5", "-5\n"]}
_BAD = {str: ["-x", "--cache", "-5."], ascii_int: ["x", "1_1", "٧", "", "-x", "-1.5", "-x y"], tuple: ["bogus", "", "-x"]}


def _undeclared(options):
    """Option tokens the verb does not declare and that abbreviate none it does."""
    tokens = {name for _, _, arguments in _VERBS.values() for name in arguments if name[0] == "-"}
    tokens |= {"--x", "--bogus", "--x=1", "-x", "-z", "-q=1", "-5."}
    return sorted(
        token for token in tokens
        if token not in options
        and not (token.startswith("--") and any(o.startswith(token.partition("=")[0]) for o in options))
    )


def _option(name, values):
    value = st.sampled_from(values)
    return st.one_of(value.map(lambda v: [name, v]), value.map(lambda v: [f"{name}={v}"]))


def _good(name, kind):
    return st.just([name]) if kind is bool else _option(name, kind if isinstance(kind, tuple) else _GOOD[kind])


def _bad(name, kind):
    if kind is bool:
        return st.sampled_from([[f"{name}=x"], [f"{name}="]])
    return st.one_of(_option(name, _BAD[tuple if isinstance(kind, tuple) else kind]), st.just([name]))


def _argv(verb):
    """An argv for the verb in any order: from one positional too few to one
    too many, up to three options with valid values, and at most one bad
    chunk: a bad value, an option without its value, an undeclared option or
    a help option."""
    arguments = _VERBS[verb][2]
    positionals = {name: kind for name, kind in arguments.items() if name[0] != "-"}
    declared = {name: kind for name, kind in arguments.items() if name[0] == "-"}
    suites = [c for kind in positionals.values() if isinstance(kind, tuple) for c in kind]
    required = sum(name[-1] not in "?*" for name in positionals)
    arg = st.sampled_from(suites or ["C(2)", "A(4)", "CpxA4", "", *_DASHED]).map(lambda t: ("arg", [t]))
    good = [_good(name, kind).map(lambda t: ("option", t)) for name, kind in declared.items()]
    bad = st.one_of(
        st.sampled_from(["nosuch", ""]).map(lambda t: ("arg", [t])),
        st.sampled_from(_undeclared({*declared, "-h", "--help"})).map(lambda t: ("undeclared", [t])),
        st.sampled_from([["-h"], ["--help"], ["--help=x"], ["-h=x"], ["-h="]]).map(lambda t: ("help", t)),
        *(_bad(name, kind).map(lambda t: ("option", t)) for name, kind in declared.items()),
    )
    return st.tuples(
        st.sampled_from([[]] * 30 + [["--x"], ["-x"], ["-z=1"], ["-5"]]),
        st.sampled_from([[verb]] * 30 + [["nosuch"], [""], []]),
        st.lists(arg, min_size=max(required - 1, 0), max_size=len(positionals) + 1),
        st.lists(st.one_of(good), max_size=3) if good else st.just([]),
        st.lists(bad, max_size=1),
    ).flatmap(
        lambda p: st.permutations(p[2] + p[3] + p[4]).map(lambda chunks: _assemble(p[0], p[1], chunks))
    )


def _assemble(before, head, chunks):
    if head == ["poset"]:
        # its reference reads only what follows the verb, and its second pass
        # would leave an expression after an undeclared option unread
        before = []
        chunks = sorted(chunks, key=lambda chunk: chunk[0] == "undeclared")
    return [*before, *head, *(t for _, chunk in chunks for t in chunk)]


@pytest.mark.parametrize("verb", list(_VERBS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_argv_reads_as_argparse_read_it(verb, data):
    argv = data.draw(_argv(verb))
    assert _read(argv) == _reference(argv)
