"""The element-layer fast paths checked against their slow, obvious references.

`PermBacking.mul` composes packed permutations with one `bytes.translate`,
`Group.order_of` fills the orders of a whole cyclic subgroup from one walk,
`mat_mul` reads the field's add/mul tables inline, and the GL(k,p) relator
search runs on the permutations the matrices induce on GF(p)^k.  The
references here compose a permutation point by point, count powers until the
identity, multiply matrices entry by entry with `FieldSpec.add` and
`FieldSpec.mul`, and search over matrix words.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.construct import (
    ActionMap,
    ConstructionError,
    PresentationSpec,
    cyclic,
    dicyclic,
    direct_product,
    elementary_abelian,
    find_action_by_relations,
    frobenius42,
    general_linear,
    heisenberg,
    psl2,
    semidirect_product,
    symmetric,
)
from oseq.finite_field import FieldError, Matrix, field_make, mat_inv, mat_mul
from oseq.groups import (
    Group,
    GroupError,
    MatrixBacking,
    PermBacking,
    enumerate_group,
    quotient,
    subgroup_closure,
)
from oseq.order_sequence import os_of_group, parse_pairs


class _MapPermBacking(PermBacking):
    """PermBacking with the point-by-point product the byte table replaced."""

    __slots__ = ()

    def mul(self, a, b):
        return bytes(map(a.__getitem__, b))


def _degree_and_pair(degree):
    perm = st.permutations(range(degree)).map(bytes)
    return st.tuples(st.just(degree), perm, perm)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(255), st.integers(1, 255)).flatmap(_degree_and_pair))
def test_perm_mul_matches_pointwise_composition(case):
    degree, a, b = case
    assert PermBacking(degree).mul(a, b) == bytes(map(a.__getitem__, b))


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
    return quotient(g, subgroup_closure(g, [g.index[(2, 0)]]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: dicyclic(12),
        lambda: heisenberg(3),
        lambda: frobenius42(),
        _c4xs3_mod_c2,
        lambda: direct_product(cyclic(4), symmetric(3)),
    ],
    ids=["Dic12", "He3-matrix", "F42-semidirect", "C4xS3/C2-coset", "C4xS3-product"],
)
def test_orders_match_powers_on_named_groups(make):
    _check_orders(make(), random.Random(5))


def test_coset_quotient_orders():
    q = _c4xs3_mod_c2()
    assert type(q.backing).__name__ == "CosetBacking"
    assert sorted(q.orders()) == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]


@pytest.mark.parametrize("group", [psl2(q) for q in (4, 5, 7, 8, 9)] + [symmetric(5)], ids=lambda g: g.name)
def test_bfs_indices_match_the_pointwise_product(group):
    backing = _MapPermBacking(group.backing.degree)
    slow = enumerate_group(backing, [group.table[g] for g in group.generators])
    assert slow.table == group.table
    assert slow.generators == group.generators


def _mat_mul_by_entries(a, b):
    spec, d = a.spec, a.dim
    return tuple(
        tuple(reduce(spec.add, (spec.mul(a.rows[i][k], b.rows[k][j]) for k in range(d)), 0)
              for j in range(d))
        for i in range(d)
    )


FIELDS = [(2, 1), (5, 1), (2, 3), (2, 6), (3, 6)]


@pytest.mark.parametrize("p,k", FIELDS, ids=[f"GF({p}^{k})" for p, k in FIELDS])
def test_table_limit_splits_the_fields(p, k):
    # GF(3^6) has 729 elements, above the table limit: mat_mul takes its per-call loop
    assert (field_make(p, k)._mul is None) == (p**k > 256)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_mat_mul_matches_entrywise_arithmetic(field, dim, data):
    spec = field_make(*field)
    entry = st.one_of(st.just(0), st.integers(0, spec.q - 1))
    square = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    a, b = Matrix(spec, data.draw(square)), Matrix(spec, data.draw(square))
    product = mat_mul(a, b)
    assert product.rows == _mat_mul_by_entries(a, b)
    assert product == Matrix(spec, product.rows)
    assert hash(product) == hash(Matrix(spec, product.rows))


@pytest.mark.parametrize("p,k", [(5, 1), (3, 6)])
def test_mat_mul_rejects_mismatched_operands(p, k):
    spec = field_make(p, k)
    two = Matrix.identity(spec, 2)
    with pytest.raises(FieldError):
        mat_mul(two, Matrix.identity(spec, 3))
    with pytest.raises(FieldError):
        mat_mul(two, Matrix.identity(field_make(7), 2))
    assert two != Matrix.identity(field_make(7), 2)


def _matvec(spec, rows, v):
    return tuple(reduce(spec.add, map(spec.mul, row, v), 0) for row in rows)


def _matrix_word_search(pres, dim, p, oracle=None):
    """The relator search over matrix words, with the image group enumerated
    as matrices and each matrix applied to every vector."""
    spec = field_make(p)
    gl = general_linear(spec, dim)
    ident = Matrix.identity(spec, dim)
    inv_of = {m: mat_inv(m) for m in gl}
    vectors = elementary_abelian(p, dim)

    def value(letters, word):
        m = ident
        for s in word:
            m = mat_mul(m, letters[s])
        return m

    first = [w for w in pres.relators if all(abs(s) == 1 for s in w)]
    rest = [w for w in pres.relators if w not in first]
    candidates = []
    for a in gl:
        letters = {1: a, -1: inv_of[a]}
        if all(value(letters, w) == ident for w in first):
            if pres.generators == 1:
                candidates.append([a])
                continue
            for b in gl:
                letters[2], letters[-2] = b, inv_of[b]
                if all(value(letters, w) == ident for w in rest):
                    candidates.append([a, b])
    results, seen_subgroups, seen_sequences = [], set(), set()
    for images in candidates:
        try:
            image = enumerate_group(MatrixBacking(spec, dim), images, cap=pres.order)
        except GroupError:
            continue
        if len(image) != pres.order or frozenset(image.table) in seen_subgroups:
            continue
        seen_subgroups.add(frozenset(image.table))
        perms = tuple(
            tuple(vectors.index[_matvec(spec, m.rows, v)] for v in vectors.table) for m in image.table
        )
        action = ActionMap(image, vectors, perms)
        seq = os_of_group(semidirect_product(vectors, image, action)).entries
        if seq in seen_sequences:
            continue
        seen_sequences.add(seq)
        if oracle is None or seq == oracle.entries:
            results.append(action)
    if not results:
        raise ConstructionError("no action found")
    return results


_D8 = PresentationSpec(2, ((1,) * 4, (2, 2), (-2, 1, 2, 1)), 8)
_DIC12 = PresentationSpec(2, ((1,) * 6, (2, 2, -1, -1, -1), (-2, 1, 2, 1)), 12)
SEARCHES = [
    (PresentationSpec(1, ((1,),), 1), 1, 5, None),
    (_D8, 2, 3, None),
    (_D8, 2, 3, parse_pairs("(1,1)(2,21)(3,8)(4,18)(6,24)")),
    (_DIC12, 2, 5, parse_pairs("(1,1)(2,25)(3,50)(4,150)(5,24)(6,50)")),
]


@pytest.mark.parametrize(
    "pres,dim,p,oracle", SEARCHES, ids=["trivial-GF5", "D8-GF3", "D8-GF3-oracle", "Dic12-GF5-oracle"]
)
def test_relator_search_matches_matrix_words(pres, dim, p, oracle):
    fast = find_action_by_relations(pres, dim, p, oracle=oracle)
    slow = _matrix_word_search(pres, dim, p, oracle=oracle)
    assert [a.perms for a in fast] == [a.perms for a in slow]
    for f, s in zip(fast, slow):
        assert f.target is s.target
        # same generators in the same order: the permutation image keeps every BFS index
        assert len(f.acting) == len(s.acting)
        assert f.acting.generators == s.acting.generators


def test_relator_search_failure_matches_matrix_words():
    pres, oracle = PresentationSpec(1, ((1, 1, 1),), 3), parse_pairs("(1,1)(2,1)")
    with pytest.raises(ConstructionError):
        find_action_by_relations(pres, 1, 2, oracle=oracle)
    with pytest.raises(ConstructionError):
        _matrix_word_search(pres, 1, 2, oracle=oracle)
