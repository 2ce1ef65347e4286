"""`supersolvable_chain` checked against two independent references.

`supersolvable_chain` walks a chain of normal subgroups inside G.  The first
reference is the quotient recursion it replaced: find every normal subgroup
of prime order, form the quotient group, recurse, and backtrack over the
candidates.  Its chains must match term by term.  The second is Huppert's
criterion (Huppert, Normale Teiler und maximale Untergruppen endlicher
Gruppen, Math. Z. 60, 1954): G is supersolvable exactly when every maximal
subgroup has prime index, decided here from all subgroups of a Cayley table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime

from oseq import classify
from oseq.classify import supersolvable_chain
from oseq.construct import alternating, catalog, cyclic, direct_product, heisenberg, psl2, symmetric
from oseq.groups import Group, PermBacking, enumerate_group
from oseq.verify import catalog_sample, order12_corpus_groups
from quotient_oracle import is_normal, quotient


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
            if is_normal(group, members):
                found.append(members)
    return found


def quotient_recursion_chain(group):
    """The chain of the first prime-order normal subgroup whose quotient has one."""
    if len(group) == 1:
        return ()
    for sub in prime_order_normal_subgroups(group):
        tail = quotient_recursion_chain(quotient(group, sub))
        if tail is not None:
            return (len(sub),) + tail
    return None


def _subgroups(group):
    """Every subgroup, as a frozenset of indices, over a Cayley table."""
    n = len(group)
    table = [[group.mul(x, y) for y in range(n)] for x in range(n)]

    def closure(seeds):
        members, elems = {0}, [0]
        for x in elems:  # grows while it is walked
            for s in seeds:
                y = table[x][s]
                if y not in members:
                    members.add(y)
                    elems.append(y)
        return frozenset(members)

    cyclic_subs = {closure([x]) for x in range(n)}
    found = set(cyclic_subs)
    frontier = list(found)
    for sub in frontier:  # every subgroup is a join of cyclic subgroups
        for c in cyclic_subs:
            if not c <= sub:
                joined = closure(sub | c)
                if joined not in found:
                    found.add(joined)
                    frontier.append(joined)
    return found


def huppert_is_supersolvable(group):
    n = len(group)
    proper = [s for s in _subgroups(group) if len(s) < n]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    return all(isprime(n // len(s)) for s in maximal)


_NAMED_GROUPS = (
    *catalog_sample(),
    *order12_corpus_groups(),
    ("S4", symmetric(4)),
    ("A5", alternating(5)),
    ("He3", heisenberg(3)),
    ("He5", heisenberg(5)),
    ("PSL(2,7)", psl2(7)),
)


@pytest.mark.parametrize("group", [pytest.param(g, id=name) for name, g in _NAMED_GROUPS])
def test_chain_matches_quotient_recursion_on_named_groups(group):
    assert supersolvable_chain(group) == quotient_recursion_chain(group)


@pytest.mark.parametrize(
    "group", [pytest.param(g, id=name) for name, g in _NAMED_GROUPS if len(g) <= 72]
)
def test_chain_agrees_with_huppert_on_named_groups(group):
    assert (supersolvable_chain(group) is not None) == huppert_is_supersolvable(group)


@st.composite
def _perm_groups(draw):
    degree = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    backing = PermBacking(degree)
    return enumerate_group(backing, [backing.pack(p) for p in perms])


@settings(max_examples=150, deadline=None)
@given(_perm_groups())
def test_chain_matches_both_references_on_random_permutation_groups(group):
    chain = supersolvable_chain(group)
    assert chain == quotient_recursion_chain(group)
    if len(group) <= 72:
        assert (chain is not None) == huppert_is_supersolvable(group)


def test_prime_order_normal_subgroups_are_normal():
    g = direct_product(cyclic(3), symmetric(3))
    subs = prime_order_normal_subgroups(g)
    assert subs
    for sub in subs:
        assert isprime(len(sub))
        assert is_normal(g, sub)


@pytest.mark.parametrize("name", ["C4xF8", "C13xA5", "SD_300_23", "D10xF7"])
def test_each_coset_is_tried_once_at_its_least_index(monkeypatch, name):
    group = catalog(name)
    tries = {}  # N -> the indices x tried against N
    real = classify._normal_prime_coset

    def spy(g, x, members, generators):
        tries.setdefault(frozenset(members), []).append(x)
        return real(g, x, members, generators)

    monkeypatch.setattr(classify, "_normal_prime_coset", spy)
    assert supersolvable_chain(group) == quotient_recursion_chain(group)
    for members, xs in tries.items():
        cosets = [frozenset(group.mul(x, h) for h in members) for x in xs]
        assert all(x == min(c) for x, c in zip(xs, cosets))
        assert len(set(cosets)) == len(xs) < len(group) // len(members)


def test_each_walk_inverts_only_its_generators_each_once(monkeypatch):
    # Group.inv keeps no memo, so a walk that inverted arbitrary elements, or
    # a generator once per coset, would slow down without failing elsewhere.
    # The generators of a walk are the group's for the chain and the operands'
    # for a commutator subgroup; inversions in the factors of a product, which
    # its backing makes for each one of the group's own, are not counted.
    real_inv, real_commutators, real_chain = Group.inv, classify.commutator_subgroup, classify.supersolvable_chain
    walks = []  # (the indices a walk of `group` may invert, those it inverted)

    def inv(self, i):
        if self is group:
            walks[-1][1].append(i)
        return real_inv(self, i)

    def commutators(g, a_gens, b_gens):
        walks.append(({*a_gens, *b_gens}, []))
        return real_commutators(g, a_gens, b_gens)

    def chain(g):
        walks.append((set(g.generators), []))
        return real_chain(g)

    monkeypatch.setattr(Group, "inv", inv)
    monkeypatch.setattr(classify, "commutator_subgroup", commutators)
    monkeypatch.setattr(classify, "supersolvable_chain", chain)
    for _, group in (*catalog_sample(), *order12_corpus_groups()):
        walks.clear()
        classify.classify_group(group)
        assert any(inverted for _, inverted in walks)
        for allowed, inverted in walks:
            assert set(inverted) <= allowed
            assert len(inverted) == len(set(inverted))
