"""Nilpotency, supersolvability, and solvability of enumerated groups."""

from collections import namedtuple

from .arith import factorint
from .groups import GroupError, commutator_subgroup

__all__ = [
    "ClassificationReport",
    "classify_group",
    "derived_series",
    "is_nilpotent",
    "is_solvable",
    "is_supersolvable",
    "lower_central_series",
    "supersolvable_chain",
]


def _series(group, operands):
    """The series G = S0 > S1 > ... with S(i+1) = [A, B], up to a trivial or
    repeated term; `operands` maps the generators of S(i) to those of A and B.
    """
    series = [range(len(group))]
    gens = group.generators
    while len(series[-1]) > 1:
        nxt, gens = commutator_subgroup(group, *operands(gens))
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    return series


def derived_series(group):
    """G > G' > G'' > ... with each term the commutator subgroup of the last:
    G as `range(n)`, then each term as a frozenset of member indices."""
    return _series(group, lambda gens: (gens, gens))


def lower_central_series(group):
    """G > [G, G] > [G, [G, G]] > ... until the series stabilises, its terms
    held as in `derived_series`."""
    return _series(group, lambda gens: (group.generators, gens))


def is_nilpotent(group):
    """Nilpotent exactly when the lower central series reaches the trivial group."""
    return len(lower_central_series(group)[-1]) == 1


def is_solvable(group):
    return len(derived_series(group)[-1]) == 1


def _normal_prime_coset(group, x, members, generators):
    """p when <xN> is a normal subgroup of prime order p in G/N, else 0.

    N is the normal subgroup `members`, and `generators` holds the pairs
    (g, g^-1) over G's generators.  The order of xN divides ord(x), and
    x^p lies in N for at most one prime p when x does not, so the powers of x
    are walked up to each prime factor of ord(x) in turn.  <xN> is normal
    when each generator conjugate g^-1 x g lies in some x^-i N.
    """
    mul = group.mul
    y, k = x, 1
    for p in factorint(group.order_of(x)):
        for _ in range(p - k):
            y = mul(y, x)
        k = p
        if y in members:
            break
    else:
        return 0
    for g, g_inv in generators:
        z = mul(mul(g_inv, x), g)
        for _ in range(p):
            if z in members:
                break
            z = mul(x, z)
        else:
            return 0
    return p


def supersolvable_chain(group):
    """Primes of a chain 1 = N0 < N1 < ... < Nk = G of normal subgroups of G
    with prime indices [N(i+1) : N(i)], or None when G is not supersolvable.

    A group is supersolvable exactly when it is trivial or has a normal
    subgroup of prime order with supersolvable quotient (Huppert, Endliche
    Gruppen I, 1967).  Quotients of a supersolvable group are supersolvable,
    so the first such subgroup never leads to a dead end.  The walk stays
    inside G: N is a set of member indices, each coset xN is tried once, at
    its least index x, and the first that passes grows N by xN, ..., x^(p-1)N.
    """
    n, mul = len(group), group.mul
    generators = [(g, group.inv(g)) for g in group.generators]
    members, chain = {0}, []
    while len(members) < n:
        tried = set(members)
        for x in range(1, n):
            if x not in tried:
                tried.update(mul(x, h) for h in members)
                p = _normal_prime_coset(group, x, members, generators)
                if p:
                    break
        else:
            return None
        layer = members
        for _ in range(p - 1):
            layer = {mul(x, h) for h in layer}
            members |= layer
        chain.append(p)
    return tuple(chain)


def is_supersolvable(group):
    return supersolvable_chain(group) is not None


class ClassificationReport(
    namedtuple("ClassificationReport", "order nilpotent supersolvable solvable chain derived_orders")
):
    """`chain` holds the primes of the supersolvable witness chain, or None;
    `derived_orders` the subgroup sizes along the derived series."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.nilpotent and not self.supersolvable:
            raise GroupError("inconsistent report: nilpotent but not supersolvable")
        if self.supersolvable and not self.solvable:
            raise GroupError("inconsistent report: supersolvable but not solvable")
        return self


def classify_group(group):
    """Full report.  A group that is not solvable is neither supersolvable nor
    nilpotent, so it skips the supersolvable chain search and the lower
    central series."""
    series = derived_series(group)
    solvable = len(series[-1]) == 1
    chain = supersolvable_chain(group) if solvable else None
    return ClassificationReport(
        order=len(group),
        nilpotent=solvable and is_nilpotent(group),
        supersolvable=chain is not None,
        solvable=solvable,
        chain=chain,
        derived_orders=tuple(len(s) for s in series),
    )
