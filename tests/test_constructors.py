import itertools

import pytest

from oseq import CATALOG_FIXED_NAMES, CATALOG_PRIME_NAMES, InputError
from oseq.construct import (
    ConstructionError,
    _row_major,
    _semidirect,
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
    validate_action,
    wreath_square,
)
from oseq.expr import build, parse
from oseq.finite_field import FieldSpec
from oseq.groups import (
    DEFAULT_CLOSURE_CAP,
    DirectProductBacking,
    GroupError,
    PermBacking,
    commutator_subgroup,
    enumerate_group,
)
from oseq.order_sequence import os_of_group, parse_pairs


@pytest.mark.parametrize(
    "maker,order",
    [
        (lambda: cyclic(1), 1),
        (lambda: cyclic(12), 12),
        (lambda: dihedral(4), 4),
        (lambda: dihedral(12), 12),
        (lambda: dicyclic(8), 8),
        (lambda: dicyclic(12), 12),
        (lambda: symmetric(4), 24),
        (lambda: symmetric(1), 1),
        (lambda: alternating(3), 3),
        (lambda: alternating(5), 60),
        (lambda: alternating(6), 360),
        (lambda: heisenberg(3), 27),
        (lambda: elementary_abelian(2, 4), 16),
        (lambda: build(parse("F7")), 42),
        (lambda: build(parse("F8")), 56),
    ],
)
def test_advertised_orders(maker, order):
    assert len(maker()) == order


def test_constructor_parameter_errors():
    for bad in (lambda: cyclic(0), lambda: dihedral(7), lambda: dihedral(2),
                lambda: dicyclic(10), lambda: heisenberg(2), lambda: heisenberg(4)):
        with pytest.raises(ConstructionError):
            bad()


class _Dic12Model:
    """Normal-form oracle: pairs (i, eps) with a^i b^eps and the textbook rules."""

    def elements(self):
        return [(i, e) for i in range(6) for e in range(2)]

    def mul(self, x, y):
        (i, e), (j, f) = x, y
        if e == 0:
            return ((i + j) % 6, f)
        if f == 0:
            return ((i - j) % 6, 1)
        return ((i - j + 3) % 6, 0)

    def order(self, x):
        acc, n = x, 1
        while acc != (0, 0):
            acc = self.mul(acc, x)
            n += 1
        return n


def test_dicyclic_against_normal_form_model():
    model = _Dic12Model()
    expected = sorted(model.order(x) for x in model.elements())
    assert sorted(dicyclic(12).orders()) == expected
    assert os_of_group(dicyclic(12)).entries == ((1, 1), (2, 1), (3, 2), (4, 6), (6, 2))


def test_heisenberg_exponent():
    he3 = heisenberg(3)
    assert all(he3.order_of(i) == 3 for i in range(1, 27))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_matches_elementary_abelian_sequence(p):
    assert os_of_group(heisenberg(p)).entries == os_of_group(elementary_abelian(p, 3)).entries


def test_direct_product():
    assert os_of_group(direct_product(cyclic(2), cyclic(3))).entries == ((1, 1), (2, 1), (3, 2), (6, 2))
    g = direct_product(cyclic(5), alternating(5))
    assert len(g) == 300
    assert os_of_group(g).entries == ((1, 1), (2, 15), (3, 20), (5, 124), (10, 60), (15, 80))


def _row_major_product(g, h):
    """g x h numbered row-major, as `direct_product` builds it for two non-trivial factors."""
    return _row_major(DirectProductBacking(g, h), g, h)


@pytest.mark.parametrize("trivial", [cyclic(1), symmetric(1), alternating(2)], ids=["C1", "S1", "A2"])
@pytest.mark.parametrize("make", [lambda: alternating(4), lambda: dicyclic(12), lambda: cyclic(2)], ids=["A4", "Dic12", "C2"])
def test_a_trivial_factor_gives_back_the_other_one(trivial, make):
    g = make()
    assert direct_product(g, trivial) is g
    assert direct_product(trivial, g) is g
    for pairs in (_row_major_product(g, trivial), _row_major_product(trivial, g)):
        assert pairs.generators == g.generators  # index for index the same group
        assert [pairs.mul(i, j) for i in range(len(g)) for j in range(len(g))] == [
            g.mul(i, j) for i in range(len(g)) for j in range(len(g))
        ]
        assert pairs.orders() == g.orders()


def test_trivial_semidirect_equals_direct():
    for n, h in ((cyclic(5), symmetric(3)), (cyclic(3), dihedral(8))):
        ident = tuple(range(len(n)))
        twisted = semidirect_product(n, h, [ident] * len(h.generators))
        assert twisted.backing.perms == (ident,) * len(h)
        straight = direct_product(n, h)
        assert os_of_group(twisted).entries == os_of_group(straight).entries


def test_semidirect_rejects_bogus_action():
    n, h = cyclic(5), cyclic(2)
    with pytest.raises(ConstructionError, match="not an automorphism"):
        semidirect_product(n, h, [(0, 2, 1, 3, 4)])  # swaps two elements of C5
    with pytest.raises(ConstructionError, match="generator images"):
        semidirect_product(n, h, [])


def _is_automorphism_all_pairs(n, perm):
    return all(perm[n.mul(i, j)] == n.mul(perm[i], perm[j]) for i in range(len(n)) for j in range(len(n)))


def _powers(perm):
    """The powers of perm, one permutation each, from the identity on."""
    powers = [tuple(range(len(perm)))]
    while True:
        nxt = tuple(perm[x] for x in powers[-1])
        if nxt == powers[0]:
            return tuple(powers)
        powers.append(nxt)


@pytest.mark.parametrize(
    "n,automorphisms", [(symmetric(3), 6), (dihedral(8), 8), (dicyclic(8), 24)], ids=["S3", "D8", "Q8"]
)
def test_validate_action_accepts_exactly_the_automorphisms(n, automorphisms):
    # every bijection fixing 0, checked against the law on all |N|^2 pairs;
    # an automorphism of order k then makes C_k act by its powers
    accepted = 0
    for images in itertools.permutations(range(1, len(n))):
        perm = (0, *images)
        if _is_automorphism_all_pairs(n, perm):
            validate_action(n, [perm])
            powers = _powers(perm)
            h = cyclic(len(powers))  # C1 has no generator to act
            assert semidirect_product(n, h, [perm] * len(h.generators)).backing.perms == powers
            accepted += 1
        else:
            with pytest.raises(ConstructionError, match="not an automorphism"):
                validate_action(n, [perm])
    assert accepted == automorphisms


def test_an_action_that_is_not_a_homomorphism_is_refused():
    # x2 has order 3 on C7, which does not divide the order 4 of D8's
    # rotation; each image is an automorphism, so only the walk refuses it
    n, h = cyclic(7), dihedral(8)
    images = [[2 * i % 7 for i in range(7)], range(7)]
    validate_action(n, images)
    with pytest.raises(ConstructionError, match="action is not a homomorphism"):
        semidirect_product(n, h, images)
    with pytest.raises(ConstructionError, match="action is not a homomorphism"):
        _semidirect(n, h, images)


def test_frobenius42_against_affine_permutations():
    # independent model: x -> x + 1 and x -> 3x on 7 points
    backing = PermBacking(7)
    shift = backing.pack((i + 1) % 7 for i in range(7))
    scale = backing.pack((3 * i) % 7 for i in range(7))
    affine = enumerate_group(backing, [shift, scale])
    assert os_of_group(build(parse("F7"))).entries == os_of_group(affine).entries
    assert os_of_group(build(parse("F7"))).entries == ((1, 1), (2, 7), (3, 14), (6, 14), (7, 6))


def test_frobenius56_against_affine_permutations():
    # independent model: translations and the multiplier acting on 8 field points
    f8 = FieldSpec(2, 3)
    backing = PermBacking(8)
    shift = backing.pack(f8.add(v, 1) for v in range(8))
    scale = backing.pack(f8.mul(v, 2) for v in range(8))
    affine = enumerate_group(backing, [shift, scale])
    assert os_of_group(build(parse("F8"))).entries == os_of_group(affine).entries
    assert os_of_group(build(parse("F8"))).entries == ((1, 1), (2, 7), (7, 48))


def test_actions_on_one_coordinate_act_on_cyclic_p():
    # C7 : H acts on a `cyclic(7)`, whose elements are their own indices
    # (its table is a range), and enumerates no second copy of C7
    c7 = cyclic(7)
    for normal in (build(parse("F7")).backing.normal, affine(7, alternating(4), 4, 2).backing.normal):
        assert (normal.table, normal.generators) == (c7.table, c7.generators)
        assert [[normal.mul(i, j) for j in range(7)] for i in range(7)] == [[c7.mul(i, j) for j in range(7)] for i in range(7)]


def test_wreath_square():
    w = wreath_square(symmetric(3))
    assert len(w) == 72
    assert os_of_group(w).entries == ((1, 1), (2, 21), (3, 8), (4, 18), (6, 24))
    small = wreath_square(cyclic(2))
    assert sorted(small.orders()).count(2) == 5
    assert os_of_group(small).entries == os_of_group(dihedral(8)).entries


@pytest.mark.parametrize(
    "make",
    [lambda: cyclic(3), lambda: symmetric(3), lambda: dihedral(8), lambda: dicyclic(8), lambda: alternating(4),
     lambda: build(parse("F7"))],
    ids=["C3", "S3", "D8", "Q8", "A4", "F7"],
)
def test_wreath_square_swap_passes_validate_action(make):
    # wreath_square does not run validate_action on the coordinate swap; it
    # accepts it, and the checked semidirect product is the same group, with
    # the identity and the swap (a, b) -> (b, a) of the pairs as its action
    g = make()
    w = wreath_square(g)
    base, two = w.backing.normal, w.backing.acting
    pairs = [divmod(t, len(g)) for t in range(len(base))]
    swap = tuple(b * len(g) + a for a, b in pairs)
    assert w.backing.perms == (tuple(range(len(base))), swap)
    validate_action(base, [swap])
    checked = semidirect_product(base, two, [swap])
    assert (checked.table, checked.generators) == (w.table, w.generators)
    assert checked.backing.perms == w.backing.perms


def test_wreath_square_of_a5_against_degree_10_permutations():
    # independent model: A5 on points 0-4, A5 on points 5-9, and the block swap
    backing = PermBacking(10)
    a5_gens = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]  # (0 1 2) and (2 3 4)
    gens = [backing.pack((*c, *range(5, 10))) for c in a5_gens]
    gens += [backing.pack((*range(5), *(5 + x for x in c))) for c in a5_gens]
    gens.append(backing.pack((*range(5, 10), *range(5))))
    model = enumerate_group(backing, gens)
    w = wreath_square(alternating(5))
    assert len(w) == len(model) == 7200
    assert os_of_group(w).entries == os_of_group(model).entries


@pytest.mark.parametrize(
    "q,order",
    [(2, 6), (3, 12), (4, 60), (5, 60), (7, 168), (8, 504), (9, 360), (13, 1092)],
)
def test_psl2_orders(q, order):
    assert len(psl2(q)) == order


def test_psl2_5_matches_a5():
    assert os_of_group(psl2(5)).entries == os_of_group(alternating(5)).entries
    assert os_of_group(psl2(4)).entries == os_of_group(alternating(5)).entries


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_psl2_is_perfect(q):
    g = psl2(q)
    assert len(commutator_subgroup(g, g.generators, g.generators)[0]) == len(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic(DEFAULT_CLOSURE_CAP + 1),
        lambda: dihedral(2 * DEFAULT_CLOSURE_CAP),
        lambda: symmetric(10),
        lambda: alternating(10),
        lambda: symmetric(10**9),  # k! is multiplied only until it passes the cap
        lambda: alternating(10**9),
    ],
    ids=["C", "D", "S10", "A10", "S-huge", "A-huge"],
)
def test_named_families_above_the_cap_fail_before_building(make):
    with pytest.raises(GroupError, match="closure cap"):
        make()


def test_psl2_rejects_bad_q():
    with pytest.raises(ConstructionError):
        psl2(6)
    with pytest.raises(ConstructionError):
        psl2(128)


def test_catalog_entries():
    assert len(catalog("C15xA5")) == 900
    assert os_of_group(catalog("C15xA5")).entries == (
        (1, 1), (2, 15), (3, 62), (5, 124), (6, 30), (10, 60), (15, 488), (30, 120))
    assert os_of_group(catalog("CpxA4", 11)).entries == (
        (1, 1), (2, 3), (3, 8), (11, 10), (22, 30), (33, 80))
    assert len(catalog("S3xD2p", 11)) == 132
    assert len(catalog("C5xC7A4")) == 420
    assert len(catalog("C24xD14")) == 224


def test_catalog_name_errors():
    # each is a usage error, not a failed construction
    with pytest.raises(InputError, match="unknown catalog name 'NoSuchGroup'"):
        catalog("NoSuchGroup")
    with pytest.raises(InputError):
        catalog("CpxA4")
    with pytest.raises(InputError, match="12 is not prime"):
        catalog("CpxA4", 12)
    with pytest.raises(InputError):
        catalog("C5xA5", 7)


def test_catalog_names_stable():
    names = CATALOG_FIXED_NAMES + CATALOG_PRIME_NAMES
    for required in ("C5xA5", "SD_300_23", "SD_72_35", "S3wrC2", "CpxA4", "S3xD2p"):
        assert required in names


def test_sd_300_23_and_sd_72_35_have_their_published_sequences():
    assert os_of_group(catalog("SD_300_23")).entries == parse_pairs(
        "(1,1)(2,25)(3,50)(4,150)(5,24)(6,50)").entries
    assert os_of_group(catalog("SD_72_35")).entries == parse_pairs(
        "(1,1)(2,21)(3,8)(4,18)(6,24)").entries


@pytest.mark.parametrize(
    "text,match",
    [
        # `_semidirect` reaches an element of Dic12 with two actions
        ("Aff(5, Dic(12), 1, 1, 0, 1, 0, 2, 2, 0)", "not a homomorphism"),  # a has order 5
        ("Aff(5, Dic(12), 0, 1, 4, 1, 0, 1, 1, 0)", "not a homomorphism"),  # b^2 = 1, not a^3 = -1
        ("Aff(5, Dic(12), 0, 1, 4, 1, 2, 0, 0, 2)", "not a homomorphism"),  # b = 2 is central, so b^-1 a b = a
        # a singular matrix is no permutation of C5^2
        ("Aff(5, Dic(12), 1, 1, 1, 1, 0, 2, 2, 0)", "not an identity-fixing permutation"),
    ],
    ids=["a^6", "b^2", "b^-1ab", "singular"],
)
def test_sd_300_23_refuses_matrices_that_are_not_dic12(text, match):
    with pytest.raises(ConstructionError, match=match):
        build(parse(text))


def test_sd_300_23_acts_faithfully():
    # Dic12's 12 elements act by 12 distinct matrices.  a = -1 satisfies
    # the relations too, and `Aff` builds it, but it acts by only 4
    assert len(set(catalog("SD_300_23").backing.perms)) == 12
    assert len(set(build(parse("Aff(5, Dic(12), 4, 0, 0, 4, 0, 2, 2, 0)")).backing.perms)) == 4


def test_suzuki8():
    sz = suzuki8()
    assert len(sz) == 29120
    assert sorted(set(sz.orders())) == [1, 2, 4, 5, 7, 13]
    # factor the printed composite display by the coprime C3^2 part
    assert os_of_group(sz).entries == (
        (1, 1), (2, 455), (4, 3640), (5, 5824), (7, 12480), (13, 6720))
