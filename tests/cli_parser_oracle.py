"""The argparse parser that `oseq.cli._parse` replaced: the slow reference of
the tests.

`_Parser` and `_parser()` are kept as they were in `oseq/cli.py`.  Only
`ascii_int` is wrapped here, so that argparse names its type "int" in
"invalid int value: 'x'", as the CLI's error text does.
"""

import argparse

from oseq import SUITE_NAMES, InputError
from oseq import ascii_int as _ascii_int
from oseq.cli import (
    cmd_catalog,
    cmd_classify,
    cmd_compare,
    cmd_fixtures,
    cmd_os,
    cmd_poset,
    cmd_product,
    cmd_psi,
    cmd_verify,
)


def ascii_int(text):
    return _ascii_int(text)


ascii_int.__name__ = "int"  # argparse names a type in its error: "invalid int value: 'x'"


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, so that it exits 1 with one
    `error:` line like every other user error; `--help` still exits 0."""

    def error(self, message):
        raise InputError(message)


def _parser():
    parser = _Parser(prog="oseq", description="Order-sequence calculus for finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("os", cmd_os, help="order sequence of an expression")
    p.add_argument("expr")
    p.add_argument("--cache", help="flat-file cache path")
    p.add_argument("--check-cache", action="store_true", help="recompute and verify cached entries")

    p = add("compare", cmd_compare, help="domination verdict for two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = add("classify", cmd_classify, help="nilpotent / supersolvable / solvable report")
    p.add_argument("expr")

    p = add("psi", cmd_psi, help="sum of element orders")
    p.add_argument("expr")

    p = add("product", cmd_product, help="sequence product of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")

    p = add("poset", cmd_poset, help="domination poset over expressions or fixtures")
    p.add_argument("exprs", nargs="*")
    p.add_argument("--fixtures", help="fixture file (defaults to the shipped one)")
    p.add_argument("--order", type=ascii_int, help="select fixtures of this order")
    p.add_argument("--emit", choices=["text", "dot", "csv"], default="text")
    p.add_argument("--out", help="write output to a file instead of stdout")

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--fixtures", help="fixture file (defaults to the shipped one)")
    p.add_argument("--primes", help="comma-separated prime sample")
    # accepted so that `verify simple --features sz8` still parses; nothing reads it
    p.add_argument("--features", action="append", choices=["sz8"], help="ignored: Sz8 needs no flag")

    p = add("catalog", cmd_catalog, help="list catalog names or build one entry")
    p.add_argument("name", nargs="?")
    p.add_argument("--prime", type=ascii_int)

    p = add("fixtures", cmd_fixtures, help="load and summarise a fixture file")
    p.add_argument("--fixtures", help="fixture file (defaults to the shipped one)")
    return parser
