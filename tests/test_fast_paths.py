"""The element-layer fast paths checked against their slow, obvious references.

The fast paths: `PermBacking.mul` composes packed permutations with one
`bytes.translate`, and `PermBacking.inv` is one `bytes.maketrans`;
`enumerate_group` keeps a permutation group as a stabiliser chain and lists
it coset by coset of a point stabiliser when its table is first read, one
translate table per coset; `Group.order_counts` counts its orders on one
coset per suborbit, with no table, and walks one coset of the two-point
stabiliser K, a slice of the stabiliser's table, per K-orbit of points;
`Group.order_of` builds one
table per power walk, so neither calls `mul`; `Group.order_of` fills
the orders of a whole cyclic subgroup from one walk; PSL(2,q) and Sz(8) are
the permutations their matrices induce on one projective orbit; C(n), D(n)
and Dic(n) code a^k b^s as the integer k + s * m, C(n) with no enumeration,
and C_p^k codes the vector v as the sum of v_i p^i over the backing of
C(p)^k, numbered breadth-first as before; a semidirect product is
given the action of each generator of its acting group only, and builds the
action of every element by one walk: F7's C6 multiplies C7 by 3, F8's C7
multiplies GF(8) by x, He(p)'s y shears C_p^2, SD_300_23's Dic12 acts by two
pinned GL(2,5) matrices, SD_72_35's D8 by the negation and the identity, and
C7 : A4's two 3-cycles multiply C7 by 4 and 2.

The references compose and invert a permutation point by point, enumerate
breadth-first and count powers until the identity through `backing.mul` (or
walk every element, `Group.orders()`, or every element of one coset per
suborbit, `_count_by_coset_walk`, or one element per orbit of K by
conjugation, `_count_by_k_orbits`), multiply matrices (tuples
of rows) entry by entry with `FieldSpec.add` and `FieldSpec.mul`, pick
invertible matrices by a Leibniz determinant, search matrix words for the
first action satisfying the relations of Dic12, enumerate Sz(8), Dic(n) and
He(p) as matrices, apply the powers of a companion matrix, number the
projective line by field element, enumerate C(n) and D(n) as the rotations
and reflections of a polygon, build C(n), D(n), Dic(n), C_p^k and the
products over C_p^k on the tuple backings they had, form the quotient group
of A4 by V4, and write the action of every element by a closed formula or a
kernel.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, namedtuple
from functools import reduce
from math import gcd
from operator import xor
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseq import construct
from oseq.arith import isprime
from oseq.cli import main
from oseq.construct import (
    ConstructionError,
    _projective_group,
    _suzuki8_matrices,
    affine,
    alternating,
    catalog,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    heisenberg,
    psl2,
    semidirect_product,
    suzuki8,
    symmetric,
)
from oseq.expr import build, parse
from oseq.finite_field import FieldError, FieldSpec
from oseq.fixtures import fixtures_by_label, load_fixtures
from oseq.groups import (
    DEFAULT_CLOSURE_CAP,
    Group,
    GroupError,
    PermBacking,
    commutator_subgroup,
    enumerate_group,
)
from oseq.order_sequence import os_of_group
import sd_300_23_oracle
from catalog_oracle import _SD_300_23_MATRICES, _c7_rtimes_a4
from quotient_oracle import quotient, subgroup_closure


def _inv_by_points(a):
    """The inverse of a packed permutation, point by point."""
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return bytes(out)


class _MapPermBacking(PermBacking):
    """PermBacking with the point-by-point product and inverse that the byte
    tables replaced; not a PermBacking by type, so it is enumerated breadth-first."""

    __slots__ = ()

    def mul(self, a, b):
        return bytes(map(a.__getitem__, b))

    def inv(self, a):
        return _inv_by_points(a)


def _degree_and_pair(degree):
    perm = st.permutations(range(degree)).map(bytes)
    return st.tuples(st.just(degree), perm, perm)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(255), st.integers(1, 255)).flatmap(_degree_and_pair))
def test_perm_mul_matches_pointwise_composition(case):
    degree, a, b = case
    assert PermBacking(degree).mul(a, b) == bytes(map(a.__getitem__, b))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(255), st.integers(1, 255)).flatmap(lambda d: st.permutations(range(d)).map(bytes)))
def test_perm_inv_matches_the_pointwise_inverse(a):
    assert PermBacking(len(a)).inv(a) == _inv_by_points(a)


def _orders_by_powers(group):
    out = []
    for i in range(len(group)):
        x, o = i, 1
        while x != 0:
            x = group.mul(x, i)
            o += 1
        out.append(o)
    return out


def _fresh(group):
    """The same group with no element order computed yet."""
    gens = [group.table[g] for g in group.generators]
    return Group(group.backing, group.table, generator_elements=gens, index=group.index)


def _check_orders(group, rng):
    expected = _orders_by_powers(group)
    fresh = _fresh(group)
    visit = list(range(len(group)))
    rng.shuffle(visit)  # fills from one walk must not depend on the visiting order
    assert {i: fresh.order_of(i) for i in visit} == dict(enumerate(expected))
    assert _fresh(group).orders() == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    ),
    st.randoms(use_true_random=False),
)
def test_orders_match_powers_on_random_permutation_groups(case, rng):
    degree, perms = case
    backing = PermBacking(degree)
    _check_orders(enumerate_group(backing, [backing.pack(p) for p in perms]), rng)


def _c4xs3_mod_c2():
    """C4 x S3 over the square of the C4 generator: a coset backing of order 12."""
    g = direct_product(cyclic(4), symmetric(3))
    return quotient(g, subgroup_closure(g, [2 * 6]))  # (2, 0), row-major over |S3| = 6


@pytest.mark.parametrize(
    "make",
    [
        lambda: dicyclic(12),
        lambda: heisenberg(3),
        lambda: build(parse("F7")),
        _c4xs3_mod_c2,
        lambda: direct_product(cyclic(4), symmetric(3)),
    ],
    ids=["Dic12", "He3-semidirect", "F42-semidirect", "C4xS3/C2-coset", "C4xS3-product"],
)
def test_orders_match_powers_on_named_groups(make):
    _check_orders(make(), random.Random(5))


def test_coset_quotient_orders():
    q = _c4xs3_mod_c2()
    assert type(q.backing).__name__ == "CosetBacking"
    assert sorted(q.orders()) == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]


def _bfs_by_mul(backing, generators, cap=DEFAULT_CLOSURE_CAP):
    """Breadth-first closure with every product x * g through `backing.mul`."""
    ident = backing.identity()
    table = [ident]
    index = {ident: 0}
    head = 0
    while head < len(table):
        x = table[head]
        head += 1
        for g in generators:
            y = backing.mul(x, g)
            if y not in index:
                if len(table) >= cap:
                    raise GroupError(f"closure exceeded cap {cap}")
                index[y] = len(table)
                table.append(y)
    return Group(backing, table, generator_elements=generators, index=index)


def _orders_by_mul(group):
    """The order of each element, counting powers g^(k+1) = g^k * g through `backing.mul`."""
    mul, ident = group.backing.mul, group.backing.identity()
    out = []
    for g in group.table:
        x, o = g, 1
        while x != ident:
            x = mul(x, g)
            o += 1
        out.append(o)
    return out


def _outcome(enumerate_, group, cap):
    """The order of <generators of group> under `cap`, or the refusal message."""
    try:
        return len(enumerate_(group.backing, [group.table[g] for g in group.generators], cap=cap))
    except GroupError as e:
        return str(e)


def _check_same_group(fast, slow, caps, image=lambda x: x, orders=None):
    """`fast` holds the group `slow` holds, numbered its own way.

    `slow` is a breadth-first enumeration through `mul`, and `image` carries
    its elements to those of `fast`.  The two hold the same elements, their
    generators are equal as elements, and element by element the orders
    agree with `_orders_by_mul` (or the given list) and the inverses with
    `slow`'s.  Each index points back at its element, the identity sits at
    index 0, and under each cap the two enumerations both refuse or both answer.
    """
    table, index = fast.table, fast.index
    assert table[0] == fast.backing.identity()
    assert all(index[x] == i for i, x in enumerate(table))
    images = [image(x) for x in slow.table]
    assert len(table) == len(slow) and set(images) == set(table)
    assert [table[g] for g in fast.generators] == [images[g] for g in slow.generators]
    at = [index[y] for y in images]
    known = fast.orders()
    assert [known[j] for j in at] == (_orders_by_mul(slow) if orders is None else orders)
    assert [table[fast.inv(j)] for j in at] == [images[slow.inv(i)] for i in range(len(slow))]
    for cap in caps:
        expected = len(slow) if cap >= len(slow) else f"closure exceeded cap {cap}"
        assert _outcome(enumerate_group, fast, cap) == _outcome(_bfs_by_mul, slow, cap) == expected


def _drawn_cap(n):
    """A cap drawn from 1..n + 1, the same on every run."""
    return random.Random(n).randint(1, n + 1)


@pytest.mark.parametrize("group", [psl2(q) for q in (4, 5, 7, 8, 9)] + [symmetric(5)],
                         ids=["PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)", "S5"])
def test_bfs_indices_match_the_pointwise_product(group):
    # the test backing is not a PermBacking by type, so it keeps the BFS numbering
    gens = [group.table[g] for g in group.generators]
    slow = enumerate_group(_MapPermBacking(group.backing.degree), gens)
    assert slow.table == _bfs_by_mul(slow.backing, gens).table
    n = len(group)
    _check_same_group(group, slow, [n - 1, n, _drawn_cap(n)])


def _check_translate_paths(group, monkeypatch, caps):
    """The coset enumeration and the orders of a permutation group against the
    `mul` references; with `PermBacking.mul` disabled, so both fast paths are
    the ones checked, and the same generators give the same table again."""
    gens = [group.table[g] for g in group.generators]
    slow = _bfs_by_mul(_MapPermBacking(group.backing.degree), gens)

    def refuse(self, a, b):
        raise AssertionError("PermBacking.mul called")

    with monkeypatch.context() as m:
        m.setattr(PermBacking, "mul", refuse)
        fast = enumerate_group(group.backing, gens)
        last = fast.order_of(len(fast) - 1)  # orders() then starts from known entries
        _check_same_group(fast, slow, caps)
    assert fast.table == group.table
    assert fast.generators == group.generators
    assert last == fast.orders()[-1]


def _permutation_dic12():
    """The degree-25 permutation group by which SD_300_23's Dic12 acts on C5^2."""
    sd = catalog("SD_300_23").backing
    return enumerate_group(PermBacking(25), [bytes(sd.perms[g]) for g in sd.acting.generators])


@pytest.mark.parametrize(
    "make",
    [*(lambda q=q: psl2(q) for q in (4, 5, 7, 8, 9, 16)),
     suzuki8, lambda: symmetric(5), lambda: alternating(6), _permutation_dic12],
    ids=[*(f"PSL2_{q}" for q in (4, 5, 7, 8, 9, 16)), "Sz8", "S5", "A6", "SD_300_23-Dic12"],
)
def test_translate_bfs_and_orders_match_the_mul_references(make, monkeypatch):
    group = make()
    assert type(group.backing) is PermBacking
    _check_translate_paths(group, monkeypatch, [_drawn_cap(len(group))])


_random_perm_groups = st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)), min_size=1, max_size=3))
)


@settings(max_examples=80, deadline=None)
@given(_random_perm_groups, st.data())
def test_translate_paths_match_the_references_on_random_generators(case, data):
    degree, perms = case
    backing = PermBacking(degree)
    group = enumerate_group(backing, [backing.pack(p) for p in perms])
    cap = data.draw(st.integers(1, len(group) + 1), label="cap")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_translate_paths(group, monkeypatch, [cap])


# md5 of each table, joined, and its generator indices: the coset numbering,
# pinned so that a table built on first read keeps every index
_PINNED_TABLES = {
    "S6": ("52b0d2c3145e915b587d155db3e3083d", (120, 144)),
    "PSL(2,16)": ("86dca0d3c286ce8e7c44b40299ae2ca2", (15, 240, 30)),
    "Sz(8)": ("3a58ce57e446d27a70b261b32ccf6da8", (7, 14, 1, 448)),
}


def test_permutation_enumeration_is_deterministic():
    # two processes with different string hashing give the same tables, read
    # after the orders are counted from the chain; two enumerations in one
    # process are compared by `_check_translate_paths`
    code = (
        "import hashlib\n"
        "from oseq.construct import psl2, suzuki8, symmetric\n"
        "for name, g in (('S6', symmetric(6)), ('PSL(2,16)', psl2(16)), ('Sz(8)', suzuki8())):\n"
        "    g.order_counts()\n"
        "    assert all(g.index[x] == i for i, x in enumerate(g.table)) and len(g.index) == len(g)\n"
        "    print(name, hashlib.md5(b''.join(g.table)).hexdigest(), g.generators)\n"
    )
    expected = "".join(f"{name} {md5} {gens}\n" for name, (md5, gens) in _PINNED_TABLES.items())
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


def _table_built(group):
    """Whether the group's table slot is set; reading `group.table` would build it."""
    try:
        Group.table.__get__(group)
    except AttributeError:
        return False
    return True


def _block_perms(degree):
    """Generators that keep {0..k-1} and {k..degree-1}: an intransitive group."""
    return st.integers(0, degree).flatmap(
        lambda k: st.lists(
            st.tuples(st.permutations(range(k)), st.permutations(range(k, degree))).map(lambda ab: [*ab[0], *ab[1]]),
            min_size=1,
            max_size=3,
        )
    )


_counted_perm_groups = st.integers(1, 7).flatmap(
    lambda d: st.tuples(
        st.just(d), st.one_of(st.lists(st.permutations(range(d)), min_size=1, max_size=3), _block_perms(d))
    )
)


@settings(max_examples=150, deadline=None)
@given(_counted_perm_groups)
def test_suborbit_count_matches_the_power_walk_on_random_groups(case):
    degree, perms = case
    backing = PermBacking(degree)
    group = enumerate_group(backing, [backing.pack(p) for p in perms])
    counts = group.order_counts()
    assert not _table_built(group) or len(group) == 1  # the trivial group has no chain
    assert counts == Counter(_orders_by_mul(group))


@pytest.mark.parametrize(
    "make",
    [*(lambda n=n: symmetric(n) for n in range(1, 9)),
     *(lambda n=n: alternating(n) for n in range(1, 9))],
    ids=[*(f"S{n}" for n in range(1, 9)), *(f"A{n}" for n in range(1, 9))],
)
def test_suborbit_count_matches_the_mul_walk_on_named_groups(make):
    group = make()
    assert group.order_counts() == Counter(_orders_by_mul(group))


_COUNTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 49, 61, 64)


@pytest.mark.parametrize(
    "make",
    [*(lambda q=q: psl2(q) for q in _COUNTED_Q), suzuki8],
    ids=[*(f"PSL2_{q}" for q in _COUNTED_Q), "Sz8"],
)
def test_suborbit_count_matches_the_full_walk(make):
    # the full walk, `orders()`, is itself checked against `_orders_by_mul`
    # by `test_translate_bfs_and_orders_match_the_mul_references`
    group = make()
    counts = group.order_counts()
    assert not _table_built(group)
    assert counts == Counter(group.orders())


def _count_by_coset_walk(group):
    """The element orders of a permutation group, counted from its chain as
    `order_counts` did before K-orbits: the stabiliser H's count, plus for each
    suborbit other than {b} its length times the orders of every element of
    one coset u_p H, x walked until x^l fixes b and ord(x) = l * ord(x^l)."""
    chain = group._chain
    if chain is None:
        return Counter(group.orders())
    b, stab = chain.base, chain.stabiliser
    counts = _count_by_coset_walk(stab)
    tail = group.backing._tail
    seen = {b}
    for p in chain.orbit:
        if p in seen:
            continue
        seen.add(p)
        suborbit = [p]
        for q in suborbit:  # grows while it is walked
            for s in chain.kept:
                if s[q] not in seen:
                    seen.add(s[q])
                    suborbit.append(s[q])
        for h in stab.table:
            x = h.translate(chain.transversal[p] + tail)
            y, l = x, 1
            while y[b] != b:
                y = y.translate(x + tail)
                l += 1
            counts[l * stab.order_of(stab.index[y])] += len(suborbit)
    return counts


def _count_by_k_orbits(group):
    """The element orders of a permutation group, counted from its chain as
    `order_counts` did before it went down a second level: as
    `_count_by_coset_walk`, but the coset u_c H of the suborbit holding c,
    the base of H's chain, is split into orbits of K = H_c acting by
    conjugation, k^-1 (u_c h) k = u_c (k'^-1 h k) for k' = u_c^-1 k u_c, by a
    breadth-first walk over K's generators with a bytearray of visited
    elements, and one element per orbit is walked, times the orbit's size."""
    chain = group._chain
    if chain is None:
        return Counter(group.orders())
    b, stab, kept = chain.base, chain.stabiliser, chain.kept
    counts = _count_by_k_orbits(stab)
    table, index, order_of = stab.table, stab.index, stab.order_of
    tail = group.backing._tail
    full = group.backing.identity() + tail
    c = stab._chain.base if stab._chain else None
    seen = {b}
    for p in chain.orbit:
        if p in seen:
            continue
        seen.add(p)
        suborbit = [p]
        for q in suborbit:  # grows while it is walked
            for s in kept:
                if s[q] not in seen:
                    seen.add(s[q])
                    suborbit.append(s[q])
        if c in suborbit:
            p = c
        ut = chain.transversal[p] + tail
        conj = ()  # (k, the table of k'^-1) for each generator k of K, on u_c H only
        if p == c:
            uinv = bytes.maketrans(ut, full)
            conj = [(k, ut.translate(bytes.maketrans(k + tail, full)).translate(uinv)) for k in stab._chain.kept]
        coset = Counter()
        visited = bytearray(len(stab))
        for i, h in enumerate(table):
            if visited[i]:
                continue
            visited[i] = 1
            orbit = [h]
            for v in orbit:  # grows while it is walked
                vt = v + tail
                for k, kt in conj:
                    z = k.translate(vt).translate(kt)
                    j = index[z]
                    if not visited[j]:
                        visited[j] = 1
                        orbit.append(z)
            x = h.translate(ut)
            xt = x + tail
            y, l = x, 1
            while y[b] != b:
                y = y.translate(xt)
                l += 1
            coset[l * order_of(index[y])] += len(orbit)
        for o, m in coset.items():
            counts[o] += m * len(suborbit)
    return counts


def _two_point_stabiliser_is_trivial(group):
    """Whether K = H_c, H = G_b and c the base of H's chain, is trivial, so
    that no coset is split into K-cosets at the top of the chain."""
    stab = group._chain.stabiliser if group._chain else None
    return stab is None or stab._chain is None or not stab._chain.kept


@pytest.mark.parametrize(
    "make",
    [*(lambda q=q: psl2(q) for q in _COUNTED_Q), suzuki8,
     *(lambda n=n: symmetric(n) for n in range(1, 10)),
     *(lambda n=n: alternating(n) for n in range(1, 10))],
    ids=[*(f"PSL2_{q}" for q in _COUNTED_Q), "Sz8",
         *(f"S{n}" for n in range(1, 10)), *(f"A{n}" for n in range(1, 10))],
)
def test_k_orbit_count_matches_the_coset_walk(make):
    group = make()
    counts = group.order_counts()
    assert not _table_built(group) or len(group) == 1
    assert counts == _count_by_coset_walk(make())
    assert counts == _count_by_k_orbits(make())
    assert sum(counts.values()) == len(group)


def _orders_walked_at_the_top(group):
    """How many elements `order_counts` walks on the cosets of G_b: each one
    walked asks H = G_b for the order of its power that fixes b, once."""
    stab, calls = group._chain.stabiliser, Counter()
    order_of = Group.order_of

    def spy(self, i):
        calls[id(self)] += 1
        return order_of(self, i)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Group, "order_of", spy)
        group.order_counts()
    return calls[id(stab)]


def test_two_level_count_walks_one_k_coset_per_k_orbit():
    # PSL(2,64) is 2-transitive on 65 points, and K = H_c, cyclic of order 63,
    # fixes b and is regular on the other 63 points: 2 slices of 63 elements,
    # where the walk over u_c H took all 4,032
    assert _orders_walked_at_the_top(psl2(64)) == 2 * 63
    # Sz(8): K has order 7, and one slice per orbit of K on the 64 points
    # other than c, found here from K's table
    sz = suzuki8()
    sub = sz._chain.stabiliser._chain
    k_orbits = {frozenset(k[d] for k in sub.stabiliser.table) for d in range(65) if d != sub.base}
    assert len(sub.stabiliser) == 7 and len(k_orbits) == 10
    assert _orders_walked_at_the_top(sz) == len(k_orbits) * 7


def _transitive_perms(degree):
    """A degree-cycle and one or two other permutations: a transitive group."""
    cycle = [*range(1, degree), 0]
    return st.lists(st.permutations(range(degree)), min_size=1, max_size=2).map(lambda ps: [cycle, *ps])


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 7).flatmap(lambda d: st.tuples(st.just(d), _transitive_perms(d))))
def test_k_orbit_count_matches_the_oracles_on_random_transitive_groups(case):
    degree, perms = case
    backing = PermBacking(degree)
    group = enumerate_group(backing, [backing.pack(p) for p in perms])
    assume(not _two_point_stabiliser_is_trivial(group))
    counts = group.order_counts()
    assert not _table_built(group)
    assert counts == _count_by_coset_walk(enumerate_group(backing, [backing.pack(p) for p in perms]))
    assert counts == _count_by_k_orbits(enumerate_group(backing, [backing.pack(p) for p in perms]))
    assert counts == Counter(_orders_by_mul(group))


def test_psl2_64_is_counted_without_its_table():
    # 262080 degree-65 permutations in a list and an index take over 30 MB;
    # the chain keeps a 4032-element stabiliser and its own 63-element one;
    # GF(64), which psl2 builds on each call, is counted too
    by_label = fixtures_by_label(load_fixtures())
    tracemalloc.start()
    try:
        group = psl2(64)
        seq = os_of_group(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq == by_label["L2_64"].seq
    assert len(group) == 262080
    assert not _table_built(group)
    assert peak < 4 << 20


def _mat_mul_by_entries(spec, a, b):
    d = len(a)
    return tuple(
        tuple(reduce(spec.add, (spec.mul(a[i][k], b[k][j]) for k in range(d)), 0) for j in range(d))
        for i in range(d)
    )


class MatrixBacking:
    """Square matrices of one dimension over a field, as tuples of rows."""

    __slots__ = ("spec", "dim")

    def __init__(self, spec, dim):
        self.spec = spec
        self.dim = dim

    def identity(self):
        return tuple(tuple(int(i == j) for j in range(self.dim)) for i in range(self.dim))

    def mul(self, a, b):
        return _mat_mul_by_entries(self.spec, a, b)

    def inv(self, a):
        # the last power of a before the identity
        x, ident = a, self.identity()
        while (y := self.mul(x, a)) != ident:
            x = y
        return x

    def fast_order(self, a):
        return None


class _TuplePermBacking:
    """Permutations as tuples: the branch `PermBacking` had above degree 255."""

    __slots__ = ("degree",)

    def __init__(self, degree):
        self.degree = degree

    def pack(self, images):
        return tuple(images)

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        return tuple(map(a.__getitem__, b))

    def inv(self, a):
        out = [0] * self.degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def fast_order(self, a):
        return None


def _perm_backing(degree):
    return PermBacking(degree) if degree <= 255 else _TuplePermBacking(degree)


def _perm_cyclic(n):
    """C_n as the rotation of n points, numbered breadth-first."""
    backing = _perm_backing(n)
    gens = [] if n == 1 else [backing.pack((i + 1) % n for i in range(n))]
    return _bfs_by_mul(backing, gens)


def _perm_dihedral(n):
    """D_n as the rotation and reflection of n/2 points (D4 on 4 points),
    numbered breadth-first."""
    m = n // 2
    if m == 2:
        backing = PermBacking(4)
        gens = [backing.pack((1, 0, 3, 2)), backing.pack((2, 3, 0, 1))]
    else:
        backing = _perm_backing(m)
        rot = backing.pack((i + 1) % m for i in range(m))
        ref = backing.pack((m - i) % m for i in range(m))
        gens = [rot, ref]
    return _bfs_by_mul(backing, gens)


class _ModMatrixBacking:
    """2x2 matrices over the integers mod a prime q, as row-major 4-tuples."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q

    def identity(self):
        return (1, 0, 0, 1)

    def mul(self, x, y):
        (a, b, c, d), (e, f, g, h), q = x, y, self.q
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)

    def inv(self, x):
        (a, b, c, d), q = x, self.q
        r = pow(a * d - b * c, -1, q)
        return (d * r % q, -b * r % q, -c * r % q, a * r % q)

    def fast_order(self, x):
        return None


def _matrix_dicyclic(n):
    """Dic_n as 2x2 matrices over GF(q) for the smallest prime q = 1 mod n/2.

    The generators are diag(zeta, 1/zeta), for the least zeta of order n/2,
    and ((0, 1), (-1, 0)).  The entries are integers mod q, since q may pass
    64, the size of the largest field `FieldSpec` builds (Dic(256) needs
    q = 257).
    """
    half = n // 2
    q = half + 1
    while not (isprime(q) and (q - 1) % half == 0):
        q += 1
    zeta = next(x for x in range(2, q) if min(e for e in range(1, q) if pow(x, e, q) == 1) == half)
    a = (zeta, 0, 0, pow(zeta, -1, q))
    b = (0, 1, q - 1, 0)
    return enumerate_group(_ModMatrixBacking(q), [a, b])


INDEX_ORACLES = (
    [(cyclic, _perm_cyclic, n) for n in (1, 2, 7, 12, 256, 300)]
    + [(dihedral, _perm_dihedral, n) for n in (4, 6, 14, 512)]
    + [(dicyclic, _matrix_dicyclic, n) for n in (8, 12, 20, 256)]
)


@pytest.mark.parametrize(
    "fast,slow,n", INDEX_ORACLES, ids=[f"{fast.__name__}({n})" for fast, _, n in INDEX_ORACLES]
)
def test_families_keep_the_indices_of_their_old_models(fast, slow, n):
    new, old = fast(n), slow(n)
    assert len(new) == len(old)
    assert new.generators == old.generators
    assert new.orders() == old.orders()
    for i in range(len(old)):
        assert new.inv(i) == old.inv(i)
        assert [new.mul(i, g) for g in new.generators] == [old.mul(i, g) for g in old.generators]


class PairMetacyclicBacking:
    """Pairs (k, s) standing for a^k b^s, with a^m = 1, b^2 = a^z and b^-1 a b = a^-1.

    C(m) uses only s = 0, D(2m) has z = 0 and Dic(2m) has z = m/2.
    """

    __slots__ = ("m", "z")

    def __init__(self, m, z=0):
        if m < 1 or (2 * z) % m:
            raise GroupError("metacyclic backing needs m >= 1 and a^z central")
        self.m = m
        self.z = z

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        k, s = a
        j, t = b
        if s:  # b a^j = a^-j b
            return ((k - j + self.z * t) % self.m, 1 - t)
        return ((k + j) % self.m, t)

    def inv(self, a):
        k, s = a
        return ((k + self.z) % self.m, 1) if s else (-k % self.m, 0)

    def fast_order(self, a):
        k, s = a
        m = self.m
        return 2 * m // gcd(self.z, m) if s else m // gcd(k, m)


class VectorBacking:
    """GF(p)^k written additively; elements are coefficient tuples."""

    __slots__ = ("p", "k")

    def __init__(self, p, k):
        self.p = p
        self.k = k

    def identity(self):
        return (0,) * self.k

    def mul(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def inv(self, a):
        p = self.p
        return tuple((p - x) % p for x in a)

    def fast_order(self, a):
        return 1 if not any(a) else self.p


# C(n), D(n), Dic(n) and C_p^k as they were built on tuples: C(n) enumerated
# from (1, 0), D(n) and Dic(n) from (1, 0) and (0, 1), C_p^k from the unit
# vectors in order.
def _pair_cyclic(n):
    return enumerate_group(PairMetacyclicBacking(n), [] if n == 1 else [(1, 0)])


def _pair_dihedral(n):
    return enumerate_group(PairMetacyclicBacking(n // 2), [(1, 0), (0, 1)])


def _pair_dicyclic(n):
    return enumerate_group(PairMetacyclicBacking(n // 2, n // 4), [(1, 0), (0, 1)])


def _tuple_elementary_abelian(p, k):
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return enumerate_group(VectorBacking(p, k), gens)


def _digits(t, p, k):
    """The vector of C_p^k coded as the integer t: its k base-p digits, least
    significant first."""
    return tuple(t // p**i % p for i in range(k))


_Vectors = namedtuple("_Vectors", "table index")


def _vectors(p, k):
    """The table of C_p^k with each integer decoded by `_digits`, and the
    index of those vectors."""
    table = [_digits(t, p, k) for t in elementary_abelian(p, k).table]
    return _Vectors(table, {v: i for i, v in enumerate(table)})


def _check_decoded(new, old, decode):
    """`new` holds `old`'s elements coded as integers, index for index: its
    table decodes to `old`'s, the generators agree, every raw product, inverse
    and order decodes to the tuple backing's, and by index every product,
    inverse and order agrees."""
    assert [decode(t) for t in new.table] == old.table
    assert new.generators == old.generators
    b, ob = new.backing, old.backing
    for x in new.table:
        assert decode(b.inv(x)) == ob.inv(decode(x))
        assert b.fast_order(x) == ob.fast_order(decode(x))
        assert [decode(b.mul(x, y)) for y in new.table] == [ob.mul(decode(x), decode(y)) for y in new.table]
    n = len(old)
    assert new.orders() == old.orders()
    for i in range(n):
        assert new.inv(i) == old.inv(i)
        assert [new.mul(i, j) for j in range(n)] == [old.mul(i, j) for j in range(n)]


TUPLE_MODELS = (
    [(cyclic, _pair_cyclic, n) for n in (1, 2, 3, 7, 12, 30)]
    + [(dihedral, _pair_dihedral, n) for n in (4, 6, 8, 14, 30)]
    + [(dicyclic, _pair_dicyclic, n) for n in (8, 12, 20, 36)]
)


@pytest.mark.parametrize(
    "fast,slow,n", TUPLE_MODELS, ids=[f"{fast.__name__}({n})" for fast, _, n in TUPLE_MODELS]
)
def test_metacyclic_integers_decode_to_the_pairs_of_the_tuple_model(fast, slow, n):
    # a^k b^s is the integer k + s * m
    new, old = fast(n), slow(n)
    m = old.backing.m
    _check_decoded(new, old, lambda t: (t % m, t // m))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_elementary_abelian_integers_decode_to_the_vectors_of_the_tuple_model(p, k):
    _check_decoded(elementary_abelian(p, k), _tuple_elementary_abelian(p, k), lambda t: _digits(t, p, k))


def _tuple_heisenberg(p):
    n = _tuple_elementary_abelian(p, 2)
    y = [n.index[u, (w + u) % p] for u, w in n.table]
    return semidirect_product(n, _pair_cyclic(p), [y])


def _tuple_frobenius56():
    n = _tuple_elementary_abelian(2, 3)
    spec = FieldSpec(2, 3)
    x = [n.index[_digits(spec.mul(2, spec.encode(v)), 2, 3)] for v in n.table]
    return semidirect_product(n, _pair_cyclic(7), [x])


def _tuple_sd_300_23():
    n = _tuple_elementary_abelian(5, 2)
    spec = FieldSpec(5)
    images = [[n.index[_matvec(spec, m, v)] for v in n.table] for m in _SD_300_23_MATRICES]
    return semidirect_product(n, _pair_dicyclic(12), images)


def _tuple_sd_72_35():
    n = _tuple_elementary_abelian(3, 2)
    negate = [n.index[tuple((3 - x) % 3 for x in v)] for v in n.table]
    return semidirect_product(n, _pair_dihedral(8), [negate, range(len(n))])


TUPLE_ACTIONS = (
    [(lambda p=p: heisenberg(p), lambda p=p: _tuple_heisenberg(p), f"He{p}") for p in (3, 5, 7, 11)]
    + [(lambda: build(parse("F8")), _tuple_frobenius56, "F8"),
       (lambda: catalog("SD_300_23"), _tuple_sd_300_23, "SD_300_23"),
       (lambda: catalog("SD_72_35"), _tuple_sd_72_35, "SD_72_35")]
)


@pytest.mark.parametrize("fast,slow", [a[:2] for a in TUPLE_ACTIONS], ids=[a[2] for a in TUPLE_ACTIONS])
def test_products_over_vectors_keep_the_actions_of_the_tuple_model(fast, slow):
    new, old = fast(), slow()
    assert new.backing.perms == old.backing.perms
    assert new.generators == old.generators
    acting, old_acting = new.backing.acting, old.backing.acting
    h = len(old_acting)
    assert [[acting.mul(i, j) for j in range(h)] for i in range(h)] == [
        [old_acting.mul(i, j) for j in range(h)] for i in range(h)
    ]
    for i in range(len(old)):
        assert new.inv(i) == old.inv(i)
        assert [new.mul(i, g) for g in new.generators] == [old.mul(i, g) for g in old.generators]


def test_sd_300_23_is_the_group_it_was_on_the_permutation_dic12_renumbered():
    # Dic12's index j stands for the permutation perms[j] it acts by, an
    # element of the old acting group; C5^2 keeps its numbering, and both
    # products are row-major over 12 acting elements
    new, old = catalog("SD_300_23"), sd_300_23_oracle._sd_300_23()
    perms, old_acting = new.backing.perms, old.backing.acting
    assert type(old_acting.backing) is PermBacking and len(old_acting) == 12
    image = [i // 12 * 12 + old_acting.index[bytes(perms[i % 12])] for i in range(len(new))]
    assert sorted(image) == list(range(len(old)))
    assert [image[g] for g in new.generators] == list(old.generators)
    old_orders = old.orders()
    assert new.orders() == [old_orders[j] for j in image]
    for i, x in enumerate(image):
        assert image[new.inv(i)] == old.inv(x)
        assert [image[new.mul(i, j)] for j in range(len(new))] == [old.mul(x, y) for y in image]
    assert os_of_group(new).entries == os_of_group(old).entries


@pytest.mark.parametrize("n", [1, 2, 12, DEFAULT_CLOSURE_CAP])
def test_cyclic_is_its_own_index_and_enumerates_nothing(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_group called")

    monkeypatch.setattr(construct, "enumerate_group", refuse)
    group = cyclic(n)
    assert (group.table, group.index) == (range(n), range(n))
    assert group.generators == (() if n == 1 else (1,))


def test_elementary_abelian_enumerates_only_its_own_vectors(monkeypatch):
    # C(3)^4's backing is built with no C(3) enumerated
    sizes = []

    def counting(*args, **kwargs):
        group = enumerate_group(*args, **kwargs)
        sizes.append(len(group))
        return group

    monkeypatch.setattr(construct, "enumerate_group", counting)
    assert len(elementary_abelian(3, 4)) == 81
    assert sizes == [81]


def _matrix_heisenberg(p):
    """He(p) as unitriangular matrices over GF(p), numbered breadth-first from
    x = I + E12, z = I - E13 and y = I + E23."""
    x = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    z = ((1, 0, p - 1), (0, 1, 0), (0, 0, 1))
    y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    return _bfs_by_mul(MatrixBacking(FieldSpec(p), 3), [x, z, y])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_is_the_unitriangular_group_numbered_row_major(p):
    # He(p) is numbered row-major over C_p^2 : C_p, on purpose, as every
    # other semidirect product is.  Index x * p + j is ((u, w), y^j), with
    # (u, w) the vector at index x of C_p^2, and stands for the matrix
    # [[1, u, uj - w], [0, 1, j], [0, 0, 1]]: (u, w; j)(u', w'; j') is
    # (u + u', w + w' + ju'; j + j') on both sides.
    vectors = _vectors(p, 2)

    def index(m):
        (_, u, c), (_, _, j), _ = m
        return vectors.index[u, (u * j - c) % p] * p + j

    fast, slow = heisenberg(p), _matrix_heisenberg(p)
    gens = [slow.table[g] for g in slow.generators]
    for m in slow.table:
        assert [fast.mul(index(m), index(g)) for g in gens] == [index(slow.backing.mul(m, g)) for g in gens]
    _check_same_group(fast, slow, [], image=index)


# The stdout of each query under the breadth-first numbering of He(p); the
# printed chain depends on the numbering, and the row-major one keeps it.
_HE_STDOUT = {
    "He(3)": (
        "order: 27\nnilpotent: True\nsupersolvable: True\nsolvable: True\n"
        "chain of prime-order normal subgroups: 3 > 3 > 3\nderived series orders: 27 > 3 > 1\n",
        "n=27; (1,1)(3,26)\n",
    ),
    "He(7) x C(12)": (
        "order: 4116\nnilpotent: True\nsupersolvable: True\nsolvable: True\n"
        "chain of prime-order normal subgroups: 3 > 2 > 2 > 7 > 7 > 7\nderived series orders: 4116 > 7 > 1\n",
        "n=4116; (1,1)(2,1)(3,2)(4,2)(6,2)(7,342)(12,4)(14,342)(21,684)(28,684)(42,684)(84,1368)\n",
    ),
    "D(16) x C(9) x He(3)": (
        "order: 3888\nnilpotent: True\nsupersolvable: True\nsolvable: True\n"
        "chain of prime-order normal subgroups: 3 > 3 > 3 > 3 > 3 > 2 > 2 > 2 > 2\n"
        "derived series orders: 3888 > 12 > 1\n",
        "n=3888; (1,1)(2,9)(3,80)(4,2)(6,720)(8,4)(9,162)(12,160)(18,1458)(24,320)(36,324)(72,648)\n",
    ),
    "Wr2(He(3))": (
        "order: 1458\nnilpotent: False\nsupersolvable: True\nsolvable: True\n"
        "chain of prime-order normal subgroups: 3 > 3 > 3 > 3 > 3 > 3 > 2\n"
        "derived series orders: 1458 > 81 > 3 > 1\n",
        "n=1458; (1,1)(2,27)(3,728)(6,702)\n",
    ),
}


@pytest.mark.parametrize("text", sorted(_HE_STDOUT))
def test_heisenberg_queries_print_as_before(text, capsys):
    for verb, expected in zip(("classify", "os"), _HE_STDOUT[text]):
        assert main([verb, text]) == 0
        assert capsys.readouterr().out == expected


def _matvec(spec, rows, v):
    return tuple(reduce(spec.add, map(spec.mul, row, v), 0) for row in rows)


def _det(m, p):
    """The Leibniz determinant of a square matrix over GF(p), p prime."""
    total = 0
    for sigma in itertools.permutations(range(len(m))):
        term = (-1) ** sum(1 for i, j in itertools.combinations(sigma, 2) if i > j)
        for row, col in enumerate(sigma):
            term *= m[row][col]
        total += term
    return total % p


def _invertible_matrices(p, dim):
    """The dim x dim matrices over GF(p) with a non-zero determinant, in
    lexicographic order of their row-major entries."""
    rows = list(itertools.product(range(p), repeat=dim))
    return [m for m in itertools.product(rows, repeat=dim) if _det(m, p)]


def _induced_permutation(spec, vectors, m):
    return bytes(vectors.index[_matvec(spec, m, v)] for v in vectors.table)


def test_frobenius56_acts_by_the_companion_matrix_powers():
    spec, vectors = FieldSpec(2), _vectors(2, 3)
    # the companion matrix of x^3 + x + 1: column j is x times x^j, reduced
    companion = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
    backing = MatrixBacking(spec, 3)
    power, expected = backing.identity(), []
    for _ in range(7):
        expected.append(tuple(_induced_permutation(spec, vectors, power)))
        power = backing.mul(power, companion)
    assert power == backing.identity()
    assert build(parse("F8")).backing.perms == tuple(expected)


# A two-generator presentation: relators are words of signed 1-based
# generator indices, and `order` is the size a faithful image must have.
Presentation = namedtuple("Presentation", "relators order")
# An action found by the search: one permutation of the target's indices
# per element of the acting matrix group.
_Action = namedtuple("_Action", "acting target perms")
_DIC12 = Presentation(((1,) * 6, (2, 2, -1, -1, -1), (-2, 1, 2, 1)), 12)


def _matrix_word_search(pres, dim, p, oracle):
    """Faithful actions of a presented group on GF(p)^dim, searched over
    matrix words, with the image group enumerated as matrices and each
    matrix applied to every vector.  The candidates are taken in
    lexicographic order of the generator matrices; an action is kept when it
    is the first for its image subgroup and for the order sequence of its
    semidirect product, and that sequence is the oracle's."""
    spec = FieldSpec(p)
    backing = MatrixBacking(spec, dim)
    gl = _invertible_matrices(p, dim)
    ident = backing.identity()
    inv_of = {m: backing.inv(m) for m in gl}
    vectors, decoded = elementary_abelian(p, dim), _vectors(p, dim)

    def value(letters, word):
        m = ident
        for s in word:
            m = backing.mul(m, letters[s])
        return m

    first = [w for w in pres.relators if all(abs(s) == 1 for s in w)]
    rest = [w for w in pres.relators if w not in first]
    candidates = []
    for a in gl:
        letters = {1: a, -1: inv_of[a]}
        if all(value(letters, w) == ident for w in first):
            for b in gl:
                letters[2], letters[-2] = b, inv_of[b]
                if all(value(letters, w) == ident for w in rest):
                    candidates.append([a, b])
    results, seen_subgroups, seen_sequences = [], set(), set()
    for images in candidates:
        try:
            image = enumerate_group(backing, images, cap=pres.order)
        except GroupError:
            continue
        if len(image) != pres.order or frozenset(image.table) in seen_subgroups:
            continue
        seen_subgroups.add(frozenset(image.table))
        perms = tuple(tuple(_induced_permutation(spec, decoded, m)) for m in image.table)
        action = _Action(image, vectors, perms)
        generator_images = [perms[g] for g in image.generators]
        seq = os_of_group(semidirect_product(vectors, image, generator_images)).entries
        if seq in seen_sequences:
            continue
        seen_sequences.add(seq)
        if seq == oracle.entries:
            results.append(action)
    if not results:
        raise ConstructionError("no action found")
    return results


def test_sd_300_23_is_the_first_action_of_the_matrix_word_search():
    oracle = fixtures_by_label(load_fixtures())["SG300_23"].seq
    slow = _matrix_word_search(_DIC12, 2, 5, oracle=oracle)[0]
    assert [slow.acting.table[g] for g in slow.acting.generators] == list(_SD_300_23_MATRICES)
    fast = catalog("SD_300_23").backing
    # both act on an elementary_abelian(5, 2) of their own, equal index for index
    normal, target = fast.normal, slow.target
    assert (normal.table, normal.generators) == (target.table, target.generators)
    assert [[normal.mul(i, j) for j in range(25)] for i in range(25)] == [[target.mul(i, j) for j in range(25)] for i in range(25)]
    # a matrix acts by the permutation it induces on the vectors: Dic12's
    # generators act as the search's, and its 12 elements by its 12 matrices
    assert [fast.perms[g] for g in fast.acting.generators] == [slow.perms[g] for g in slow.acting.generators]
    assert len(set(slow.perms)) == 12 and set(fast.perms) == set(slow.perms)


def test_c7_rtimes_a4_acts_through_the_quotient_by_v4():
    a4 = alternating(4)
    q = quotient(a4, commutator_subgroup(a4, a4.generators, a4.generators)[0])
    assert len(q) == 3
    coset_of = q.backing.coset_of
    perms = tuple(tuple(i * pow(2, coset_of[j], 7) % 7 for i in range(7)) for j in range(len(a4)))
    # C5xC7A4's C7 : A4 is `Aff(7, A(4), 4, 2)`; the builder it replaced, too
    assert affine(7, a4, 4, 2).backing.perms == _c7_rtimes_a4().backing.perms == perms


def test_frobenius42_acts_by_the_powers_of_3():
    perms = tuple(tuple(i * pow(3, j, 7) % 7 for i in range(7)) for j in range(6))
    assert build(parse("F7")).backing.perms == perms


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_heisenberg_acts_by_the_powers_of_the_shear(p):
    # y^j sends (u, w) to (u, w + ju)
    n = _vectors(p, 2)
    perms = tuple(tuple(n.index[u, (w + j * u) % p] for u, w in n.table) for j in range(p))
    assert heisenberg(p).backing.perms == perms


def test_sd_72_35_acts_through_the_quotient_by_a_klein_subgroup():
    # the kernel <r^2, s> fixes every vector, and the other coset negates it
    n, h = _vectors(3, 2), dihedral(8)
    rot, ref = h.generators
    kernel = set(subgroup_closure(h, (h.mul(rot, rot), ref)))
    ident = tuple(range(len(n.table)))
    negate = tuple(n.index[tuple(-x % 3 for x in v)] for v in n.table)
    perms = tuple(ident if j in kernel else negate for j in range(len(h)))
    assert catalog("SD_72_35").backing.perms == perms


def _point(spec, v):
    """The representative of a projective point with first non-zero entry 1."""
    lead = spec.inv(next(x for x in v if x))
    return tuple(spec.mul(lead, x) for x in v)


def _orbit(spec, mats, start):
    """The projective points reached from `start`, in the order a BFS meets them."""
    points = [_point(spec, start)]
    for v in points:
        for m in mats:
            w = _point(spec, _matvec(spec, m, v))
            if w not in points:
                points.append(w)
    return points


def test_suzuki8_matches_the_matrix_bfs():
    spec = FieldSpec(2, 3)
    mats = _suzuki8_matrices(spec)
    matrices = _bfs_by_mul(MatrixBacking(spec, 4), mats)
    fast = suzuki8()
    assert len(matrices) == len(fast) == 29120
    points = _orbit(spec, mats, (0, 0, 0, 1))
    number = {
        tuple(spec.mul(c, x) for x in v): i for i, v in enumerate(points) for c in range(1, 8)
    }
    # M applied to the 4 x 65 matrix whose columns are the points.  GF(8) adds
    # by XOR of the encodings, so row r of the product is the XOR over k of
    # row k of the points with each entry multiplied by M[r][k].
    scaled = {
        (k, c): int.from_bytes(bytes(spec.mul(c, v[k]) for v in points), "big")
        for k in range(4) for c in range(8)
    }
    induced = {}
    for m in matrices.table:
        image = [
            reduce(xor, (scaled[k, c] for k, c in enumerate(row))).to_bytes(65, "big") for row in m
        ]
        induced[m] = bytes(number[w] for w in zip(*image))
    # The matrix BFS carried to the permutations the matrices induce: the
    # powers of each matrix, walked once per cyclic subgroup, stand in for
    # `_orders_by_mul`, and inverting the induced permutations point by point
    # for inverting 29,120 matrices.
    slow = Group(_MapPermBacking(65), [induced[m] for m in matrices.table], [induced[m] for m in mats])
    _check_same_group(fast, slow, [_drawn_cap(29120)], orders=matrices.orders())


def test_suzuki8_acts_on_an_ovoid():
    sz = suzuki8()
    assert type(sz.backing) is PermBacking and sz.backing.degree == 65
    spec = FieldSpec(2, 3)
    points = _orbit(spec, _suzuki8_matrices(spec), (0, 0, 0, 1))
    assert len(points) == 65
    ovoid = set(points)
    # the line through a and b holds b and the points a + cb for c in GF(8):
    # besides a and b, none of them is on the ovoid
    for a, b in itertools.combinations(points, 2):
        for c in range(1, 8):
            w = _point(spec, tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(a, b)))
            assert w not in ovoid
    # Sz(8) is 2-transitive on the 65 points: |Sz(8)| = 65 * 448 and 448 = 64 * 7
    assert sum(1 for g in sz.table if g[0] == 0) == 448
    assert sum(1 for g in sz.table if g[0] == 0 and g[1] == 1) == 7


def test_wide_projective_orbit_is_refused():
    # PG(2,16) has 16^2 + 16 + 1 = 273 points, one orbit under these matrices
    spec = FieldSpec(2, 4)
    mats = [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    ]
    assert len(_orbit(spec, mats, (1, 0, 0))) == 273
    with pytest.raises(ConstructionError, match="more than 255 points"):
        _projective_group("PGL(3,16)", spec, mats, (1, 0, 0), 0)


def projective_action(spec, m, point):
    """Image of a point of the projective line under a 2x2 matrix over spec.

    The q + 1 points are numbered 0..q: point 0 is [1:0] and point 1+x is
    [x:1] for the element encoded x.  Scalar matrices act trivially.
    """
    if len(m) != 2:
        raise FieldError("projective line action needs a 2x2 matrix")
    (a, b), (c, d) = m
    if spec.mul(a, d) == spec.mul(b, c):
        raise FieldError("singular matrix cannot act on the projective line")
    if point == 0:  # [1:0]
        num, den = a, c
    else:
        x = point - 1
        num = spec.add(spec.mul(a, x), b)
        den = spec.add(spec.mul(c, x), d)
    if den == 0:
        return 0
    return 1 + spec.mul(num, spec.inv(den))


def test_projective_line_points():
    # GF(64) has 65 points; the diagonal torus fixes [1:0] and [0:1] and
    # moves every other point
    f64 = FieldSpec(2, 6)
    torus = ((2, 0), (0, f64.inv(2)))
    assert [pt for pt in range(65) if projective_action(f64, torus, pt) == pt] == [0, 1]
    assert sorted(projective_action(f64, torus, pt) for pt in range(65)) == list(range(65))
    f5 = FieldSpec(5)
    shear = ((1, 1), (0, 1))
    # [0:1] is point 1, [1:1] is point 2
    assert projective_action(f5, shear, 1) == 2


def test_projective_scalars_act_trivially():
    f5 = FieldSpec(5)
    scalar = ((3, 0), (0, 3))
    points = list(range(6))
    assert [projective_action(f5, scalar, pt) for pt in points] == points


def test_projective_rejects_singular():
    f5 = FieldSpec(5)
    with pytest.raises(FieldError):
        projective_action(f5, ((1, 2), (2, 4)), 0)


PSL_FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


@pytest.mark.parametrize("p,k", PSL_FIELDS, ids=[str(p**k) for p, k in PSL_FIELDS])
def test_psl2_matches_the_projective_line_numbering(p, k):
    spec = FieldSpec(p, k)
    q = spec.q
    alpha = next(x for x in range(1, q) if all(spec.pow(x, e) != 1 for e in range(1, q - 1)))
    mats = [((1, 1), (0, 1)), ((1, 0), (alpha, 1)), ((alpha, 0), (0, spec.inv(alpha)))]
    backing = PermBacking(q + 1)
    gens = [backing.pack(projective_action(spec, m, pt) for pt in range(q + 1)) for m in mats]
    slow = _bfs_by_mul(_MapPermBacking(q + 1), gens)
    fast = psl2(q)
    assert type(fast.backing) is PermBacking and fast.backing.degree == q + 1
    # psl2 numbers the points in the order a BFS from [1:0] meets them
    orbit = _orbit(spec, mats, (1, 0))
    line_point = lambda v: 1 + spec.mul(v[0], spec.inv(v[1])) if v[1] else 0
    renumber = [0] * (q + 1)
    for i, v in enumerate(orbit):
        renumber[line_point(v)] = i

    def image(x):
        y = bytearray(q + 1)
        for i, j in enumerate(x):
            y[renumber[i]] = renumber[j]
        return bytes(y)

    n = len(slow)
    _check_same_group(fast, slow, [n - 1, n, _drawn_cap(n)], image=image)
