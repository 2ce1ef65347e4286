"""Products on their indices, checked against the pair model they replaced.

`direct_product` and `_semidirect` number the pair (i, j) of factor indices
as i * w + j, w the order of the right factor, and their backings multiply,
invert and order these indices arithmetically.  The references below are the
backings that multiplied the pairs themselves, over a table of pairs and a
dict back to the index; a product is checked against them index by index,
through divmod(k, w), and so is each factor that is itself a product.
C_p^k, a factor of F8 and SD_300_23, is numbered breadth-first over the
backing of C(p)^k, so that row-major product is checked in its place.
"""

import random
import tracemalloc
from functools import reduce
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseq.construct import (
    alternating,
    catalog,
    cyclic,
    dicyclic,
    dihedral,
    direct_power,
    direct_product,
    heisenberg,
    symmetric,
    wreath_square,
)
from oseq.expr import build, parse
from oseq.groups import DirectProductBacking, Group, SemidirectBacking


class PairDirectProductBacking:
    """Component-wise pairs of indices into two enumerated groups."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def fast_order(self, a):
        return lcm(self.left.order_of(a[0]), self.right.order_of(a[1]))


class PairSemidirectBacking:
    """Pairs (x, h): h twists the first coordinate through fixed permutations."""

    __slots__ = ("normal", "acting", "perms")

    def __init__(self, normal, acting, perms):
        self.normal = normal
        self.acting = acting
        self.perms = perms

    def identity(self):
        return (0, 0)

    def mul(self, a, b):
        x1, h1 = a
        x2, h2 = b
        return (self.normal.mul(x1, self.perms[h1][x2]), self.acting.mul(h1, h2))

    def inv(self, a):
        x, h = a
        hi = self.acting.inv(h)
        return (self.perms[hi][self.normal.inv(x)], hi)

    def fast_order(self, a):
        return None


def _factors(product):
    b = product.backing
    if type(b) is DirectProductBacking:
        return b.left, b.right, PairDirectProductBacking(b.left, b.right)
    assert type(b) is SemidirectBacking
    return b.normal, b.acting, PairSemidirectBacking(b.normal, b.acting, b.perms)


def _pair_model(product):
    """The product over a table of index pairs in row-major order, with the
    generators (i, 0) for g's and (0, j) for h's, as it was built before."""
    left, right, backing = _factors(product)
    table = [(i, j) for i in range(len(left)) for j in range(len(right))]
    gens = [(i, 0) for i in left.generators] + [(0, j) for j in right.generators]
    return Group(backing, table, generator_elements=gens)


def _pair_orders(model):
    """The order of each pair, counting powers through the pair backing."""
    mul, out = model.backing.mul, []
    for g in model.table:
        x, o = g, 1
        while x != (0, 0):
            x = mul(x, g)
            o += 1
        out.append(o)
    return out


def _check_against_pairs(product, rng):
    """Every index of the product, and of each factor that is a product,
    against the pair model: the numbering, the generators, the inverse of
    each index, its products with the generators and with a sample of 32
    indices, and its order."""
    left, right, _ = _factors(product)
    model = _pair_model(product)
    w, n = len(right), len(product)
    assert (product.table, product.index) == (range(n), range(n))
    assert [divmod(g, w) for g in product.generators] == [model.table[g] for g in model.generators]
    fresh = Group(product.backing, range(n), generator_elements=product.generators)
    others = sorted({*product.generators, *rng.sample(range(n), min(n, 32))})
    for a in range(n):
        assert divmod(fresh.inv(a), w) == model.table[model.inv(a)]
        assert [divmod(fresh.mul(a, b), w) for b in others] == [model.table[model.mul(a, b)] for b in others]
    # last, as a wrong product can keep a power walk from reaching the identity
    assert fresh.orders() == _pair_orders(model)
    for factor in (left, right):
        if type(factor.backing) in (DirectProductBacking, SemidirectBacking):
            if type(factor.table) is not range:
                # C_p^k, numbered breadth-first over the backing of the
                # row-major C(p)^k: that product is checked in its place
                factor = direct_product(factor.backing.left, factor.backing.right)
            _check_against_pairs(factor, rng)


@pytest.mark.parametrize(
    "make",
    [
        lambda: direct_product(cyclic(2), cyclic(3)),
        lambda: direct_product(alternating(4), dicyclic(12)),
        lambda: direct_product(symmetric(3), dihedral(14)),
        lambda: wreath_square(symmetric(3)),
        lambda: build(parse("F7")),
        lambda: build(parse("F8")),
        lambda: catalog("SD_300_23"),
        lambda: direct_power(cyclic(2), 5),
        lambda: direct_power(symmetric(4), 2),
    ],
    ids=["C2xC3", "A4xDic12", "S3xD14", "Wr2(S3)", "F7", "F8", "SD_300_23", "C2^5", "S4^2"],
)
def test_named_products_match_the_pair_model(make):
    _check_against_pairs(make(), random.Random(17))


_ATOMS = {
    **{f"C{n}": lambda n=n: cyclic(n) for n in range(2, 7)},
    "D6": lambda: dihedral(6),
    "D8": lambda: dihedral(8),
    "Dic8": lambda: dicyclic(8),
    "S3": lambda: symmetric(3),
    "A4": lambda: alternating(4),
    "F7": lambda: build(parse("F7")),
    "He3": lambda: heisenberg(3),
}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_ATOMS)), min_size=2, max_size=3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_random_products_of_small_atoms_match_the_pair_model(names, wreath, rng):
    groups = [_ATOMS[name]() for name in names]
    if wreath:
        groups[0] = wreath_square(groups[0])
    assume(prod(map(len, groups)) <= 300)
    _check_against_pairs(reduce(direct_product, groups), rng)


def _build_peak(make):
    tracemalloc.start()
    try:
        group = make()
        return group, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_products_allocate_no_pair_tables():
    # a table of 500,000 pairs and a dict back to the index took 82.7 MiB,
    # and the pair tables of Wr2(C(300)) about 49 MiB; its two permutations
    # of the base's 90,000 indices remain; a cyclic factor, built inside the
    # measurement, is a range and allocates no table
    group, peak = _build_peak(lambda: direct_product(cyclic(500), cyclic(1000)))
    assert len(group) == 500_000
    assert peak < 1 << 20
    group, peak = _build_peak(lambda: wreath_square(cyclic(300)))
    assert len(group) == 180_000
    assert peak < 16 << 20
