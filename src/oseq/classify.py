"""Nilpotency, supersolvability, and solvability of enumerated groups."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import isprime
from .groups import (
    QUOTIENT_THRESHOLD,
    Group,
    GroupError,
    SubgroupSet,
    commutator_subgroup,
    is_normal,
    quotient,
)

__all__ = [
    "ClassificationReport",
    "classify_group",
    "derived_series",
    "is_nilpotent",
    "is_solvable",
    "is_supersolvable",
    "lower_central_series",
    "supersolvable_chain",
    "prime_order_normal_subgroups",
]


def _series(group, operands):
    """The series G = S0 > S1 > ... with S(i+1) = [A, B], up to a trivial or
    repeated term; `operands` maps the generators of S(i) to those of A and B.
    """
    series = [SubgroupSet(group, tuple(range(len(group))))]
    gens = group.generators
    while len(series[-1]) > 1:
        nxt, gens = commutator_subgroup(group, *operands(gens))
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    return series


def derived_series(group):
    """G > G' > G'' > ... with each term the commutator subgroup of the last."""
    return _series(group, lambda gens: (gens, gens))


def lower_central_series(group):
    """G > [G, G] > [G, [G, G]] > ... until the series stabilises."""
    return _series(group, lambda gens: (group.generators, gens))


def is_nilpotent(group):
    """Nilpotent exactly when the lower central series reaches the trivial group."""
    return len(lower_central_series(group)[-1]) == 1


def is_solvable(group):
    return len(derived_series(group)[-1]) == 1


def _cyclic_members(group, i):
    out = [0]
    x = i
    while x != 0:
        out.append(x)
        x = group.mul(x, i)
    return frozenset(out)


def prime_order_normal_subgroups(group):
    """All distinct normal subgroups of prime order, in index order."""
    seen = set()
    found = []
    for i in range(1, len(group)):
        if isprime(group.order_of(i)):
            members = _cyclic_members(group, i)
            if members in seen:
                continue
            seen.add(members)
            sub = SubgroupSet(group, tuple(sorted(members)))
            if is_normal(group, sub):
                found.append(sub)
    return found


def supersolvable_chain(group):
    """Primes consumed along a chain of prime-order normal subgroups, or None.

    A group is supersolvable exactly when it is trivial or has a normal
    subgroup of prime order with supersolvable quotient; the search
    backtracks over all candidates and memoises quotients by their
    structural fingerprint.
    """
    if len(group) > QUOTIENT_THRESHOLD:
        raise GroupError(f"group order {len(group)} exceeds threshold {QUOTIENT_THRESHOLD}")
    memo = {}

    def rec(g):
        if len(g) == 1:
            return ()
        fp = g.fingerprint()
        if fp in memo:
            return memo[fp]
        result = None
        for sub in prime_order_normal_subgroups(g):
            tail = rec(quotient(g, sub))
            if tail is not None:
                result = (len(sub),) + tail
                break
        memo[fp] = result
        return result

    return rec(group)


def is_supersolvable(group):
    return supersolvable_chain(group) is not None


@dataclass(frozen=True)
class ClassificationReport:
    order: int
    nilpotent: bool
    supersolvable: bool
    solvable: bool
    chain: tuple | None  # primes of the supersolvable witness chain
    derived_orders: tuple  # subgroup sizes along the derived series

    def __post_init__(self):
        if self.nilpotent and not self.supersolvable:
            raise GroupError("inconsistent report: nilpotent but not supersolvable")
        if self.supersolvable and not self.solvable:
            raise GroupError("inconsistent report: supersolvable but not solvable")


def classify_group(group):
    """Full report.  A group that is not solvable is not supersolvable, so it
    skips the quotient search, which refuses orders above QUOTIENT_THRESHOLD."""
    series = derived_series(group)
    solvable = len(series[-1]) == 1
    chain = supersolvable_chain(group) if solvable else None
    return ClassificationReport(
        order=len(group),
        nilpotent=is_nilpotent(group),
        supersolvable=chain is not None,
        solvable=solvable,
        chain=chain,
        derived_orders=tuple(len(s) for s in series),
    )
