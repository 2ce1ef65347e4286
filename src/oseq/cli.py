"""Command-line front end.

Verbs: os, compare, classify, psi, product, poset, verify, catalog, fixtures.
Exit codes: 0 ok, 1 user error, 2 construction failure, 3 verification failure.
Each verb imports the modules it runs when it runs, so building the parser
and mapping errors to exit codes load no other `oseq` module.  The bare
`catalog` listing prints the names `oseq` keeps and loads nothing more.
"""

from __future__ import annotations

import argparse
import sys

from . import CATALOG_FIXED_NAMES, CATALOG_PRIME_NAMES, SUITE_NAMES, BuildError, InputError, ascii_int

USER_ERROR, CONSTRUCTION_ERROR, VERIFICATION_ERROR = 1, 2, 3


def _build_expr(text):
    from .expr import build, parse

    return build(parse(text))


def cmd_os(args):
    from .expr import build, parse, print_expr
    from .order_sequence import format_sequence, os_of_group

    if args.check_cache and not args.cache:
        raise InputError("--check-cache needs --cache")
    node = parse(args.expr)
    cached = None
    if args.cache:  # only the cache key needs the canonical text
        from .cache import cache_get, cache_put

        key = print_expr(node)
        cached = cache_get(args.cache, key)
    if cached is not None and not args.check_cache:
        print(cached)
        return 0
    text = format_sequence(os_of_group(build(node)))
    if cached is not None and cached != text:
        print(f"cache mismatch for {key!r}: cached {cached!r}, computed {text!r}", file=sys.stderr)
        return VERIFICATION_ERROR
    if args.cache and cached is None:
        cache_put(args.cache, key, text)
    print(text)
    return 0


def cmd_compare(args):
    from .order_sequence import compare, os_of_group

    g1 = _build_expr(args.expr1)
    g2 = _build_expr(args.expr2)
    print(compare(os_of_group(g1), os_of_group(g2)).value)
    return 0


def cmd_classify(args):
    from .classify import classify_group

    g = _build_expr(args.expr)
    report = classify_group(g)
    print(f"order: {report.order}")
    print(f"nilpotent: {report.nilpotent}")
    print(f"supersolvable: {report.supersolvable}")
    print(f"solvable: {report.solvable}")
    if report.chain is not None:
        print("chain of prime-order normal subgroups: " + " > ".join(map(str, report.chain)))
    print("derived series orders: " + " > ".join(map(str, report.derived_orders)))
    return 0


def cmd_psi(args):
    from .order_sequence import os_of_group, psi

    g = _build_expr(args.expr)
    print(psi(os_of_group(g)))
    return 0


def cmd_product(args):
    from .order_sequence import format_sequence, os_of_group, os_product

    g1 = _build_expr(args.expr1)
    g2 = _build_expr(args.expr2)
    print(format_sequence(os_product(os_of_group(g1), os_of_group(g2))))
    return 0


def cmd_poset(args):
    from .poset import Corpus, CorpusEntry, build_poset, to_csv, to_dot

    if args.exprs:
        if args.order is not None or args.fixtures is not None:
            raise InputError("poset over expressions takes no --order or --fixtures")
        from .expr import build, parse, print_expr
        from .order_sequence import os_of_group

        entries = []
        for text in args.exprs:
            node = parse(text)
            entries.append(CorpusEntry(print_expr(node), os_of_group(build(node))))
        corpus = Corpus(entries)
    else:
        from .fixtures import corpus_for_order, load_fixtures

        if args.order is None:
            raise InputError("poset over a fixture file needs --order")
        corpus = corpus_for_order(load_fixtures(args.fixtures), args.order)
        if not len(corpus):
            raise InputError(f"no fixtures of order {args.order}")
    result = build_poset(corpus)
    if args.emit == "dot":
        out = to_dot(result)
    elif args.emit == "csv":
        out = to_csv(result)
    else:
        lines = ["labels: " + ", ".join(result.labels)]
        lines.append("minimal: " + ", ".join(sorted(result.minimal)))
        lines.append("maximal: " + ", ".join(sorted(result.maximal)))
        for top, low in result.hasse:
            lines.append(f"{top} covers {low}")
        out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        print(out, end="")
    return 0


def cmd_verify(args):
    from .verify import SuiteUsageError, run_suite

    primes = None
    if args.primes is not None:
        try:
            primes = tuple(ascii_int(p) for p in args.primes.split(","))
        except ValueError:
            raise SuiteUsageError(f"--primes takes comma-separated integers; got {args.primes!r}") from None
    checks = run_suite(args.suite, fixtures=args.fixtures, primes=primes)
    failed = 0
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        detail = f"  [{check.detail}]" if check.detail else ""
        print(f"{status} {check.name}{detail}")
        failed += 0 if check.ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return VERIFICATION_ERROR if failed else 0


def cmd_catalog(args):
    if not args.name:
        if args.prime is not None:
            raise InputError("--prime needs a catalog name")
        for name in CATALOG_FIXED_NAMES:
            print(name)
        for name in CATALOG_PRIME_NAMES:
            print(f"{name} (takes a prime)")
        return 0
    from .construct import catalog
    from .order_sequence import format_sequence, os_of_group

    grp = catalog(args.name, args.prime)
    print(f"order: {len(grp)}")
    print(format_sequence(os_of_group(grp)))
    return 0


def cmd_fixtures(args):
    from .fixtures import load_fixtures

    fixtures = load_fixtures(args.fixtures)
    by_order = {}
    for f in fixtures:
        by_order.setdefault(f.n, []).append(f.label)
    print(f"{len(fixtures)} fixtures loaded")
    for n in sorted(by_order):
        print(f"order {n}: {', '.join(by_order[n])}")
    return 0


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


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except BuildError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return CONSTRUCTION_ERROR


if __name__ == "__main__":
    sys.exit(main())
