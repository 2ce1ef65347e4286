"""Verification suites: rebuild the table groups and check the printed claims.

Each suite returns a list of Check records; a runner prints one line per
check.  table1, table2, table3 and simple read their fixtures by label
(`--fixtures PATH`, else the shipped file); thm23, thm25 and thm29 read a
theorem's primes (`--primes`, ASCII digits, else the defaults); props reads
neither.  `run_suite` refuses an option that the suite does not read.
"""

from collections import namedtuple
from math import gcd

from . import CATALOG, CATALOG_FIXED_NAMES, SUITE_NAMES, InputError
from .arith import isprime
from .construct import catalog, elementary_abelian, psl2, suzuki8
from .order_sequence import (
    OrderSequence,
    Verdict,
    compare,
    format_sequence,
    is_plausible,
    nilpotent_from_os,
    os_cyclic,
    os_of_group,
    os_product,
    psi,
)

__all__ = [
    "Check",
    "SuiteUsageError",
    "SUITE_NAMES",
    "run_suite",
    "catalog_sample",
    "order12_corpus_groups",
]


class SuiteUsageError(InputError):
    """Bad suite name or primes violating a theorem's hypotheses."""


Check = namedtuple("Check", "name ok detail", defaults=("",))


def _eq(name, computed, expected):
    ok = computed == expected
    detail = f"computed {computed}" if ok else f"computed {computed}, expected {expected}"
    return Check(name, ok, detail)


def _os_eq(name, computed, expected):
    return _eq(name, format_sequence(computed), format_sequence(expected))


def _verdict(name, a, b, expected):
    v = compare(a, b)
    return _eq(name, v.value, expected.value)


# -- table suites -------------------------------------------------------------

_TABLE1_CONSTRUCTIBLE = (
    ("C5xA5", "SG300_22"),
    ("C7xA5", "SG420_13"),
    ("C13xA5", "SG780_13"),
    ("C15xA5", "SG900_88"),
    ("SD_300_23", "SG300_23"),
)

_TABLE1_DOMINATIONS = (
    ("SG300_22", "SG300_23"),
    ("SG420_13", "SG420_16"),
    ("SG780_13", "SG780_16"),
    ("SG780_13", "SG780_17"),
    ("SG780_13", "SG780_20"),
    ("SG900_88", "SG900_89"),
    ("SG900_88", "SG900_90"),
    ("SG900_88", "SG900_91"),
    ("SG900_88", "SG900_92"),
    ("SG900_88", "SG900_94"),
    ("SG900_88", "SG900_95"),
    ("SG900_88", "SG900_96"),
    ("SG900_88", "SG900_97"),
    ("SG900_88", "SG900_100"),
    ("SG900_88", "SG900_101"),
    ("SG900_88", "SG900_103"),
    ("SG900_88", "SG900_119"),
    ("SG900_88", "SG900_120"),
    ("SG900_88", "SG900_129"),
)

_TABLE3_ROWS = (
    (72, ("SG72_40",), ("SG72_35",)),
    (144, ("SG144_119",), ("SG144_99",)),
    (144, ("SG144_116",), ("SG144_174",)),
    (144, ("SG144_186",), ("SG144_177",)),
    (216, ("SG216_100", "SG216_168"), ("SG216_34", "SG216_36", "SG216_131")),
    (216, ("SG216_157",), ("SG216_60", "SG216_72", "SG216_144")),
)


def suite_table1(by_label):
    checks = []
    for cat_name, label in _TABLE1_CONSTRUCTIBLE:
        seq = os_of_group(catalog(cat_name))
        checks.append(_os_eq(f"os({cat_name}) == {label}", seq, by_label[label].seq))
    for top, low in _TABLE1_DOMINATIONS:
        checks.append(
            _verdict(f"{top} > {low}", by_label[top].seq, by_label[low].seq, Verdict.PROPERLY_DOMINATES)
        )
    return checks


def suite_table2(by_label):
    from .classify import is_solvable, is_supersolvable

    groups = {name: catalog(name) for name in
              ("C4xF8", "C22xF8", "C24xD14", "C7xA5", "C35xA4", "C5xC7A4", "D10xF7")}
    seqs = {name: os_of_group(g) for name, g in groups.items()}
    checks = [
        _eq("order(C4xF8)", len(groups["C4xF8"]), 224),
        _eq("order(C22xF8)", len(groups["C22xF8"]), 224),
        _eq("order(C24xD14)", len(groups["C24xD14"]), 224),
        _eq("order(C7xA5)", len(groups["C7xA5"]), 420),
        _eq("order(C35xA4)", len(groups["C35xA4"]), 420),
        _eq("order(C5xC7A4)", len(groups["C5xC7A4"]), 420),
        _eq("order(D10xF7)", len(groups["D10xF7"]), 420),
        _verdict("C4xF8 > C24xD14", seqs["C4xF8"], seqs["C24xD14"], Verdict.PROPERLY_DOMINATES),
        _verdict("C22xF8 > C24xD14", seqs["C22xF8"], seqs["C24xD14"], Verdict.PROPERLY_DOMINATES),
        _verdict("C7xA5 > D10xF7", seqs["C7xA5"], seqs["D10xF7"], Verdict.PROPERLY_DOMINATES),
        _verdict("C35xA4 > D10xF7", seqs["C35xA4"], seqs["D10xF7"], Verdict.PROPERLY_DOMINATES),
        _verdict("C5xC7A4 > D10xF7", seqs["C5xC7A4"], seqs["D10xF7"], Verdict.PROPERLY_DOMINATES),
        _os_eq("os(C7xA5) == SG420_13", seqs["C7xA5"], by_label["SG420_13"].seq),
        _os_eq("os(D10xF7) == SG420_16", seqs["D10xF7"], by_label["SG420_16"].seq),
        _eq("supersolvable(C24xD14)", is_supersolvable(groups["C24xD14"]), True),
        _eq("supersolvable(D10xF7)", is_supersolvable(groups["D10xF7"]), True),
        _eq("supersolvable(C4xF8)", is_supersolvable(groups["C4xF8"]), False),
        _eq("supersolvable(C22xF8)", is_supersolvable(groups["C22xF8"]), False),
        _eq("supersolvable(C35xA4)", is_supersolvable(groups["C35xA4"]), False),
        _eq("supersolvable(C5xC7A4)", is_supersolvable(groups["C5xC7A4"]), False),
        _eq("solvable(C7xA5)", is_solvable(groups["C7xA5"]), False),
    ]
    return checks


def suite_table3(by_label):
    from .classify import is_supersolvable

    checks = []
    for n, h_labels, g_labels in _TABLE3_ROWS:
        labels = (*h_labels, *g_labels)
        base = by_label[labels[0]].seq
        for other in labels[1:]:
            checks.append(
                _verdict(f"{labels[0]} == {other} (order {n})", base, by_label[other].seq, Verdict.EQUAL)
            )
    wreath = catalog("S3wrC2")
    twisted = catalog("SD_72_35")
    checks.append(_os_eq("os(S3wrC2) == SG72_40", os_of_group(wreath), by_label["SG72_40"].seq))
    checks.append(_os_eq("os(SD_72_35) == SG72_35", os_of_group(twisted), by_label["SG72_35"].seq))
    checks.append(_eq("supersolvable(S3wrC2)", is_supersolvable(wreath), False))
    checks.append(_eq("supersolvable(SD_72_35)", is_supersolvable(twisted), True))
    return checks


# -- theorem families ----------------------------------------------------------


def suite_thm23(primes):
    base_h = os_of_group(catalog("C5xA5"))
    base_g = os_of_group(catalog("SD_300_23"))
    checks = []
    for p in primes:
        h = os_of_group(catalog("C5pxA5", p))
        g = os_of_group(catalog("CpxSD300", p))
        checks.append(_verdict(f"C{5 * p}xA5 > CpxSD300 (p={p})", h, g, Verdict.PROPERLY_DOMINATES))
        if gcd(p, 300) == 1:
            cp = os_cyclic(p)
            checks.append(_os_eq(f"os(C{5 * p}xA5) == os(Cp)os(C5xA5) (p={p})", h, os_product(cp, base_h)))
            checks.append(_os_eq(f"os(CpxSD300) == os(Cp)os(SD_300_23) (p={p})", g, os_product(cp, base_g)))
    return checks


def _thm25_expected_h(p):
    return OrderSequence(((1, 1), (2, 3), (3, 8), (p, p - 1), (2 * p, 3 * p - 3), (3 * p, 8 * p - 8)))


def _thm25_expected_g(p):
    return OrderSequence(
        ((1, 1), (2, 4 * p + 3), (3, 2), (6, 2 * p), (p, p - 1), (2 * p, 3 * p - 3), (3 * p, 2 * p - 2))
    )


def suite_thm25(primes):
    checks = []
    for p in primes:
        h = os_of_group(catalog("CpxA4", p))
        g = os_of_group(catalog("S3xD2p", p))
        checks.append(_os_eq(f"os(CpxA4) closed form (p={p})", h, _thm25_expected_h(p)))
        checks.append(_os_eq(f"os(S3xD2p) closed form (p={p})", g, _thm25_expected_g(p)))
        checks.append(_verdict(f"CpxA4 > S3xD2p (p={p})", h, g, Verdict.PROPERLY_DOMINATES))
    return checks


def suite_thm29(primes):
    from .classify import is_supersolvable

    printed = OrderSequence(((1, 1), (2, 21), (3, 8), (4, 18), (6, 24)))
    wreath_seq = os_of_group(catalog("S3wrC2"))
    twisted_seq = os_of_group(catalog("SD_72_35"))
    checks = [
        _os_eq("os(S3wrC2) == printed", wreath_seq, printed),
        _os_eq("os(SD_72_35) == printed", twisted_seq, printed),
    ]
    for p in primes:
        h_grp = catalog("CpxS3wrC2", p)
        g_grp = catalog("CpxSD72", p)
        h, g = os_of_group(h_grp), os_of_group(g_grp)
        checks.append(_os_eq(f"os equality at order {72 * p}", h, g))
        checks.append(_os_eq(f"os == os(Cp)os(base) (p={p})", h, os_product(os_cyclic(p), printed)))
        checks.append(_eq(f"supersolvable(CpxS3wrC2) (p={p})", is_supersolvable(h_grp), False))
        checks.append(_eq(f"supersolvable(CpxSD72) (p={p})", is_supersolvable(g_grp), True))
    return checks


# -- simple-group block ---------------------------------------------------------


def suite_simple(by_label):
    l2_fix = by_label["L2_64"].seq
    sz_fix = by_label["C32xSz8"].seq
    computed = os_of_group(psl2(64))
    # gcd(9, |Sz(8)| = 29120) = 1, so the order of each pair (a, b) in
    # C3^2 x Sz(8) is ord(a) * ord(b): os_product of the factors' sequences.
    product = os_product(os_of_group(elementary_abelian(3, 2)), os_of_group(suzuki8()))
    return [
        _os_eq("os(PSL2(64)) == L2_64", computed, l2_fix),
        _verdict("L2_64 vs C32xSz8", l2_fix, sz_fix, Verdict.INCOMPARABLE),
        _eq("psi(L2_64)", psi(l2_fix), 12106687),
        _eq("psi(C32xSz8)", psi(sz_fix), 5482775),
        _eq("psi(C32xSz8) < psi(L2_64)", psi(sz_fix) < psi(l2_fix), True),
        _os_eq("os(C3^2 x Sz8) == C32xSz8", product, sz_fix),
    ]


# -- property suites -------------------------------------------------------------

# Expression text; a check line names each group by its text without the
# parentheses, C(2)^2 as C2^2.
_COPRIME_PAIRS = (
    ("C(2)", "C(3)"), ("C(2)", "C(9)"), ("C(3)", "C(4)"), ("C(4)", "C(9)"), ("C(5)", "S(3)"), ("C(7)", "A(4)"),
    ("C(5)", "D(8)"), ("C(9)", "D(8)"), ("C(5)", "A(4)"), ("C(7)", "Dic(12)"), ("C(25)", "S(4)"),
)
_CONGRUENCE_TRIPLES = (
    ("C(5)", "C(12)", "A(4)"), ("C(5)", "C(12)", "D(12)"), ("C(7)", "C(12)", "Dic(12)"),
    ("C(7)", "C(4)", "C(2)^2"), ("C(11)", "C(6)", "S(3)"), ("C(5)", "C(8)", "D(8)"),
)
_ORDER12_CORPUS = ("C(12)", "C(2)xC(6)", "D(12)", "A(4)", "Dic(12)")


def _label(text):
    return text.replace("(", "").replace(")", "")


def _group(text):
    from .expr import build, parse  # here, so that `verify simple` parses no text

    return build(parse(text))


def order12_corpus_groups():
    return tuple((_label(text), _group(text)) for text in _ORDER12_CORPUS)


def catalog_sample():
    """The catalog groups used by the classification-wide property suites:
    every entry that takes no prime, in the order of `oseq.CATALOG`, then
    three that take one."""
    sample = [(name, catalog(name)) for name in CATALOG if name in CATALOG_FIXED_NAMES]
    sample.append(("CpxA4(11)", catalog("CpxA4", 11)))
    sample.append(("CpxA4(17)", catalog("CpxA4", 17)))
    sample.append(("S3xD2p(11)", catalog("S3xD2p", 11)))
    return tuple(sample)


def suite_props():
    from .classify import is_nilpotent

    checks = []
    pair_count = 0
    for a, b in _COPRIME_PAIRS:
        ga, gb = _group(a), _group(b)
        if gcd(len(ga), len(gb)) != 1:
            continue
        pair_count += 1
        left = os_of_group(_group(f"{a} x {b}"))
        right = os_product(os_of_group(ga), os_of_group(gb))
        checks.append(_os_eq(f"product law {_label(a)} x {_label(b)}", left, right))
    checks.append(_eq("coprime pairs checked >= 10", pair_count >= 10, True))

    c2 = os_of_group(_group("C(2)"))
    square = os_product(c2, c2)
    left = os_of_group(_group("C(2)^2"))
    checks.append(_eq("product law fails for C2 x C2", left.entries != square.entries, True))
    ok, reason = is_plausible(square, 4)
    checks.append(Check("os(C2)^2 rejected with the phi(4) reason",
                        (not ok) and "phi(4)" in (reason or ""), reason or ""))

    for h, a, b in _CONGRUENCE_TRIPLES:
        sh, sa, sb = (os_of_group(_group(text)) for text in (h, a, b))
        inner = compare(sa, sb)
        outer = compare(os_product(sh, sa), os_product(sh, sb))
        ok = inner is Verdict.PROPERLY_DOMINATES and outer is Verdict.PROPERLY_DOMINATES
        checks.append(Check(f"domination congruence {_label(h)} * ({_label(a)} > {_label(b)})", ok,
                            f"inner {inner.value}, outer {outer.value}"))

    groups12 = dict(order12_corpus_groups())
    for g_name in ("C12", "C2xC6"):
        for h_name in ("D12", "A4", "Dic12"):
            checks.append(_verdict(f"nilpotent dominates: {g_name} > {h_name}",
                                   os_of_group(groups12[g_name]), os_of_group(groups12[h_name]),
                                   Verdict.PROPERLY_DOMINATES))

    for name, group in catalog_sample():
        checks.append(_eq(f"sequence nilpotency test agrees on {name}",
                          nilpotent_from_os(os_of_group(group)), is_nilpotent(group)))
    return checks


# Suite -> what it runs, and whether it reads its fixtures by label or a
# theorem's primes: the defaults, and the hypothesis on each prime p (p is
# prime, p >= least and p % modulus is not in excluded) with its text.  For
# thm23, the odd primes are those >= 3, and 5 is the only prime p % 5 == 0.
_Suite = namedtuple("_Suite", "check fixtures primes", defaults=(False, None))
_Primes = namedtuple("_Primes", "default least modulus excluded text")
_SUITES = {
    "table1": _Suite(suite_table1, fixtures=True),
    "table2": _Suite(suite_table2, fixtures=True),
    "table3": _Suite(suite_table3, fixtures=True),
    "thm23": _Suite(suite_thm23, primes=_Primes((3, 7, 13, 17), 3, 5, (0, 1), "odd primes p != 5 with p % 5 != 1")),
    "thm25": _Suite(suite_thm25, primes=_Primes((11, 17, 23), 11, 3, (1,), "primes p >= 11 with p % 3 != 1")),
    "thm29": _Suite(suite_thm29, primes=_Primes((5, 7, 11), 5, 1, (), "primes p >= 5")),
    "simple": _Suite(suite_simple, fixtures=True),
    "props": _Suite(suite_props),
}


def run_suite(name, fixtures=None, primes=None):
    """Run a suite on what it reads: its fixtures by label, from the file at
    the path `fixtures` or else the shipped file, or its theorem's `primes`,
    or else the default ones.  An option given to a suite that does not read
    it is a SuiteUsageError, and so is a prime outside the hypothesis or given
    twice; a prime of 10^6 or more is refused by `isprime` with an `ArithError`."""
    if name not in _SUITES:
        raise SuiteUsageError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    for option, value in (("primes", primes), ("fixtures", fixtures)):
        if value is not None and not getattr(suite, option):
            readers = ", ".join(n for n, s in _SUITES.items() if getattr(s, option))
            raise SuiteUsageError(f"suite {name!r} takes no {option}; {readers} do")
    if suite.fixtures:
        from .fixtures import fixtures_by_label, load_fixtures
        return suite.check(fixtures_by_label(load_fixtures(fixtures)))
    if suite.primes is None:
        return suite.check()
    spec = suite.primes
    primes = tuple(primes or spec.default)
    seen = set()
    for p in primes:
        if not (isprime(p) and p >= spec.least and p % spec.modulus not in spec.excluded):
            raise SuiteUsageError(f"{name} requires {spec.text}; got {p}")
        if p in seen:
            raise SuiteUsageError(f"{name} takes each prime once; got {p} twice")
        seen.add(p)
    return suite.check(primes)
