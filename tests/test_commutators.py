"""The generator-commutator series checked against all-pairs references.

`derived_series`, `lower_central_series` and `is_nilpotent` build every
commutator subgroup as a normal closure of generator commutators.  The
references here form [A, B] from every pair (a, b) of members instead, over
a Cayley table that shares no code with `commutator_subgroup`, and decide
nilpotency by counting elements of prime-power order against the Sylow
orders.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from oseq.classify import derived_series, is_nilpotent, lower_central_series
from oseq.construct import alternating, heisenberg, symmetric
from oseq.groups import PermBacking, commutator_subgroup, enumerate_group
from oseq.verify import catalog_sample, order12_corpus_groups


def _cayley(group):
    """Rows left[x][y] = x*y, composed along a BFS over the generators."""
    n = len(group)
    left = [None] * n
    left[0] = tuple(range(n))
    gen_rows = [(g, tuple(group.mul(g, y) for y in range(n))) for g in group.generators]
    reached = [0]
    for x in reached:
        for g, row in gen_rows:
            xg = group.mul(x, g)
            if left[xg] is None:
                left[xg] = tuple(map(left[x].__getitem__, row))
                reached.append(xg)
    assert len(reached) == n, "the generators do not generate the group"
    return left


def _closure(left, seeds):
    members = {0}
    elems = [0]
    seeds = sorted(set(seeds))
    for x in elems:
        for s in seeds:
            y = left[x][s]
            if y not in members:
                members.add(y)
                elems.append(y)
    return tuple(sorted(members))


def _all_pairs_commutators(left, inv, a_members, b_members):
    """<[a, b] : a in A, b in B> with [a, b] = a^-1 b^-1 a b."""
    comms = set()
    for a in a_members:
        row, row_inv = left[a], left[inv[a]]
        comms.update(left[row_inv[inv[b]]][row[b]] for b in b_members)
    return _closure(left, comms)


def _all_pairs_series(left, inv, lower):
    """Derived series (G_{i+1} = [G_i, G_i]) or lower central series (g_{i+1} = [G, g_i])."""
    series = [tuple(range(len(left)))]
    while len(series[-1]) > 1:
        a_members = series[0] if lower else series[-1]
        nxt = _all_pairs_commutators(left, inv, a_members, series[-1])
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    return series


def _is_p_power(o, p):
    while o % p == 0:
        o //= p
    return o == 1


def _sylow_counting_is_nilpotent(group):
    """Nilpotent iff, for each p | n, exactly p^e elements have p-power order."""
    counts = Counter(group.orders())
    return all(
        sum(m for o, m in counts.items() if _is_p_power(o, p)) == p**e
        for p, e in factorint(len(group)).items()
    )


def _assert_matches_references(group):
    left = _cayley(group)
    inv = [row.index(0) for row in left]
    assert [tuple(sorted(s)) for s in derived_series(group)] == _all_pairs_series(left, inv, lower=False)
    assert [tuple(sorted(s)) for s in lower_central_series(group)] == _all_pairs_series(left, inv, lower=True)
    assert is_nilpotent(group) == _sylow_counting_is_nilpotent(group)


_NAMED_GROUPS = (
    *catalog_sample(),
    *order12_corpus_groups(),
    ("S4", symmetric(4)),
    ("A5", alternating(5)),
    ("He3", heisenberg(3)),
)


@pytest.mark.parametrize("group", [pytest.param(g, id=name) for name, g in _NAMED_GROUPS])
def test_series_match_all_pairs_on_named_groups(group):
    _assert_matches_references(group)


@st.composite
def _perm_groups(draw):
    degree = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    backing = PermBacking(degree)
    return enumerate_group(backing, [backing.pack(p) for p in perms])


@settings(max_examples=100, deadline=None)
@given(_perm_groups())
def test_series_match_all_pairs_on_random_permutation_groups(group):
    _assert_matches_references(group)


def test_commutator_subgroup_returns_generators_of_the_subgroup():
    s4 = symmetric(4)
    sub, gens = commutator_subgroup(s4, s4.generators, s4.generators)
    assert len(sub) == 12
    assert _closure(_cayley(s4), gens) == tuple(sorted(sub))


def test_commutator_subgroup_of_central_generators_is_trivial():
    he3 = heisenberg(3)
    centre = lower_central_series(he3)[1]
    sub, gens = commutator_subgroup(he3, he3.generators, centre)
    assert sub == {0} and gens == ()
