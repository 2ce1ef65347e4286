"""Command-line front end.

Verbs: os, compare, classify, psi, product, poset, verify, catalog, fixtures.
Exit codes: 0 ok, 1 user error, 2 construction failure, 3 verification failure.
`_parse` reads argv from the one `_VERBS` table, and each verb imports the
modules it runs when it runs, so reading argv, printing help and mapping
errors to exit codes load no other module: no other `oseq` module, and not
argparse.  The bare `catalog` listing prints the names `oseq` keeps.
"""

import sys
from types import SimpleNamespace

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
    from .poset import build_poset, to_csv, to_dot

    if args.exprs:
        if args.order is not None or args.fixtures is not None:
            raise InputError("poset over expressions takes no --order or --fixtures")
        from .expr import build, parse, print_expr
        from .order_sequence import os_of_group
        from .poset import require_unique_labels

        labelled = [(print_expr(node), node) for node in map(parse, args.exprs)]
        require_unique_labels([label for label, _ in labelled])  # before any group is built
        entries = [(label, os_of_group(build(node))) for label, node in labelled]
    else:
        from .fixtures import load_fixtures

        if args.order is None:
            raise InputError("poset over a fixture file needs --order")
        entries = [(f.label, f.seq) for f in load_fixtures(args.fixtures) if f.n == args.order]
        if not entries:
            raise InputError(f"no fixtures of order {args.order}")
    result = build_poset(entries)
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


# Each verb: its function, its one-line help, and its positionals (`NAME?` may
# be left out, `NAME*` takes any number) and `--options`, each mapped to how it
# is read: str, ascii_int, a tuple of choices (the first the default) or bool.
_VERBS = {
    "os": (cmd_os, "order sequence of an expression", {"expr": str, "--cache": str, "--check-cache": bool}),
    "compare": (cmd_compare, "domination verdict for two expressions", {"expr1": str, "expr2": str}),
    "classify": (cmd_classify, "nilpotent / supersolvable / solvable report", {"expr": str}),
    "psi": (cmd_psi, "sum of element orders", {"expr": str}),
    "product": (cmd_product, "sequence product of two expressions", {"expr1": str, "expr2": str}),
    "poset": (cmd_poset, "domination poset over expressions or fixtures", {
        "exprs*": str, "--fixtures": str, "--order": ascii_int, "--emit": ("text", "dot", "csv"), "--out": str}),
    # `--features` is accepted so that `verify simple --features sz8` still parses; nothing reads it
    "verify": (cmd_verify, "run a verification suite", {
        "suite": SUITE_NAMES, "--fixtures": str, "--primes": str, "--features": ("sz8",)}),
    "catalog": (cmd_catalog, "list catalog names or build one entry", {"name?": str, "--prime": ascii_int}),
    "fixtures": (cmd_fixtures, "load and summarise a fixture file", {"--fixtures": str}),
}
_HELP = {"-h": None, "--help": None}


def _help(verb):
    """Print the usage of the verb, or of every verb: the README's CLI block."""
    print("usage: oseq VERB ...\nOrder-sequence calculus for finite groups\n" if verb is None else "usage: ", end="")
    for name in [verb] if verb else _VERBS:
        words = ["oseq", name]
        for arg, kind in _VERBS[name][2].items():
            meta = "|".join(kind) if isinstance(kind, tuple) else arg.strip("-?*").upper()
            word = arg if kind is bool else f"{arg} {meta}" if arg[0] == "-" else meta + " ..." * (arg[-1] == "*")
            words.append(f"[{word}]" if arg[0] == "-" or arg[-1] in "?*" else word)
        print(" ".join(words) + "\n    " + _VERBS[name][1])
    return 0


def _option(token, options):
    """(name, text after `=` or None) for a declared option, (None, None) for
    another option, None for a positional.  As in argparse, a token that starts
    with `-` is an option unless it is `-`, a negative number or has a space."""
    name, eq, value = token.partition("=")
    if token in options or eq and name in options:
        return (token, None) if token in options else (name, value)
    digits = token[1:].removesuffix("\n")  # argparse's `$` also matches before a final newline
    whole, dot, frac = digits.partition(".")
    number = digits.isdecimal() or dot and frac.isdecimal() and (whole.isdecimal() or not whole)
    return (None, None) if token[:1] == "-" and token != "-" and " " not in token and not number else None


def _value(name, kind, text):
    if isinstance(kind, tuple) and text not in kind:
        raise InputError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
    try:
        return text if isinstance(kind, tuple) else kind(text)
    except ValueError:
        raise InputError(f"argument {name}: invalid int value: {text!r}") from None


def _parse(argv):
    """The verb's function and its arguments, or `_help` and the verb: argv
    read as argparse read it, with its error lines in its order.  Options come
    before, between or after positionals, as `--opt value` or `--opt=value`;
    the last of a repeated one counts.  Unlike argparse, no long option is
    abbreviated, `--` is an unknown option and `NAME*` takes every positional."""
    func, values, extras = None, {}, []
    arguments, options, pending = {"command": tuple(_VERBS)}, _HELP, ["command"]
    tokens = iter(argv)
    for token in tokens:
        option = _option(token, options)
        if option is None and pending and pending[0][-1] == "*":
            values[pending[0]].append(token)
        elif option is None and pending:
            name = pending.pop(0)
            values[name] = _value(name, arguments[name], token)
            if func is None:  # the verb: its entry reads the rest of argv
                func, _, arguments = _VERBS[token]
                options = {name: kind for name, kind in arguments.items() if name[0] == "-"} | _HELP
                pending = [name for name in arguments if name[0] != "-"]
                values |= {n: [] if n[-1] == "*" else k[0] if isinstance(k, tuple) else False if k is bool else None
                           for n, k in arguments.items()}
        elif option is None or option[0] is None:
            extras.append(token)
        else:
            name, value = option
            kind = options[name]
            if kind in (None, bool) and value is not None:
                raise InputError(f"argument {name if kind else '-h/--help'}: ignored explicit argument {value!r}")
            if kind is None:
                return _help, values.get("command")
            if kind is not bool and value is None:
                value = next(tokens, None)
                if value is None or _option(value, options) is not None:
                    raise InputError(f"argument {name}: expected one argument")
            values[name] = True if kind is bool else _value(name, kind, value)
    missing = [name for name in pending if name[-1] not in "?*"]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise InputError(f"unrecognized arguments: {' '.join(extras)}")
    return func, SimpleNamespace(**{name.strip("-?*").replace("-", "_"): v for name, v in values.items()})


def main(argv=None):
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv)
        return func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except BuildError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return CONSTRUCTION_ERROR


if __name__ == "__main__":
    sys.exit(main())
