"""Order sequences as run-length-encoded multisets, and their calculus.

A sequence is stored as ascending (order, multiplicity) pairs and is never
expanded to its non-decreasing list.
Canonical text form (used by fixtures, the cache, and the CLI, bit-exact):
``n=<total>; (o1,m1)(o2,m2)...``.
"""

import re
from collections import Counter, namedtuple
from enum import Enum
from itertools import accumulate

from . import InputError
from .arith import divisors, factorint, totient

__all__ = [
    "SequenceError",
    "OrderSequence",
    "Verdict",
    "os_of_group",
    "os_cyclic",
    "psi",
    "compare",
    "os_product",
    "is_plausible",
    "nilpotent_from_os",
    "format_sequence",
    "parse_pairs",
    "parse_sequence",
]


class SequenceError(InputError):
    """Malformed order sequence or undefined sequence operation."""


class OrderSequence(namedtuple("OrderSequence", "entries")):
    """Ascending (order, multiplicity) pairs; multiplicities >= 1."""

    __slots__ = ()

    def __new__(cls, entries):
        last = 0
        for o, m in entries:
            if o <= last:
                raise SequenceError("orders must be strictly increasing")
            if m < 1:
                raise SequenceError("multiplicities must be positive")
            last = o
        return super().__new__(cls, entries)

    @property
    def total(self):
        return sum(m for _, m in self.entries)


def _from_counts(counts):
    return OrderSequence(tuple(sorted(counts.items())))


def os_of_group(group):
    """Element orders of the whole table, run-length encoded."""
    return _from_counts(group.order_counts())


def os_cyclic(n):
    """Closed form for the cyclic group of order n < 10^6: one (d, phi(d)) per divisor."""
    if n < 1:
        raise SequenceError("group order must be >= 1")
    return OrderSequence(tuple((d, totient(d)) for d in divisors(n)))


def psi(seq):
    """Sum of element orders."""
    return sum(o * m for o, m in seq.entries)


class Verdict(Enum):
    EQUAL = "Equal"
    PROPERLY_DOMINATES = "ProperlyDominates"
    PROPERLY_DOMINATED_BY = "ProperlyDominatedBy"
    INCOMPARABLE = "Incomparable"


def compare(a, b):
    """Domination verdict via cumulative counting functions, no expansion.

    With F_s(t) = #{elements of order <= t}, sequence a dominates b exactly
    when F_a(t) <= F_b(t) at every breakpoint.
    """
    if a.total != b.total:
        raise SequenceError("sequences of different totals are not comparable")
    if a.entries == b.entries:
        return Verdict.EQUAL
    step = Counter(dict(a.entries))
    step.subtract(dict(b.entries))
    diff = list(accumulate(step[t] for t in sorted(step)))  # F_a(t) - F_b(t) at each breakpoint
    if max(diff) <= 0:
        return Verdict.PROPERLY_DOMINATES
    if min(diff) >= 0:
        return Verdict.PROPERLY_DOMINATED_BY
    return Verdict.INCOMPARABLE


def os_product(a, b):
    """All pairwise order products, merged on equal values."""
    counts = Counter()
    for o1, m1 in a.entries:
        for o2, m2 in b.entries:
            counts[o1 * o2] += m1 * m2
    return _from_counts(counts)


def is_plausible(seq, n):
    """Necessary conditions for being the order sequence of a group of order n.

    Returns (ok, reason); reason names the first violated condition.  An order
    of 10^6 or more that divides n is an `ArithError`, as `arith` factors it.
    """
    if seq.total != n:
        return False, f"total {seq.total} does not equal n={n}"
    if not seq.entries or seq.entries[0] != (1, 1):
        return False, "identity entry (1,1) missing or with multiplicity != 1"
    for o, _ in seq.entries:
        if n % o:
            return False, f"order {o} does not divide n={n}"
    for o, m in seq.entries:
        t = totient(o)
        if m % t:
            return False, f"phi({o})={t} does not divide multiplicity {m}"
    return True, None


def _is_prime_power_of(o, p):
    while o % p == 0:
        o //= p
    return o == 1


def nilpotent_from_os(seq):
    """Nilpotency decided from the sequence alone.

    For every prime p dividing n, which must be below 10^6, the number of
    elements of p-power order must equal the largest power of p dividing n.
    """
    ok, reason = is_plausible(seq, seq.total)
    if not ok:
        raise SequenceError(f"implausible sequence: {reason}")
    n = seq.total
    for p, e in factorint(n).items():
        count = sum(m for o, m in seq.entries if _is_prime_power_of(o, p))
        if count != p**e:
            return False
    return True


# -- canonical text form ---------------------------------------------------

_PAIR_RE = re.compile(r"\(([0-9]+),([0-9]+)\)")


def format_sequence(seq):
    return f"n={seq.total}; " + "".join(f"({o},{m})" for o, m in seq.entries)


def _int(digits):
    """int(digits), refused as a SequenceError past Python's limit on the
    digits of an int read from text."""
    try:
        return int(digits)
    except ValueError:
        raise SequenceError(f"a number of {len(digits)} digits is too long") from None


def parse_pairs(text):
    compact = re.sub(r"\s+", "", text)
    if not re.fullmatch(r"(?:\([0-9]+,[0-9]+\))+", compact):
        raise SequenceError(f"malformed sequence text: {text!r}")
    return OrderSequence(tuple((_int(o), _int(m)) for o, m in _PAIR_RE.findall(compact)))


def parse_sequence(text):
    m = re.fullmatch(r"n=([0-9]+);\s*(.*)", text.strip())
    if not m:
        raise SequenceError(f"malformed canonical sequence: {text!r}")
    seq = parse_pairs(m.group(2))
    if seq.total != _int(m.group(1)):
        raise SequenceError(f"declared total {m.group(1)} does not match entries")
    return seq
