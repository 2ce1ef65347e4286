import random
import time

import pytest

from oseq.construct import alternating, cyclic, dicyclic, dihedral, direct_product, symmetric
from oseq.groups import (
    Group,
    GroupError,
    MetacyclicBacking,
    PermBacking,
    commutator_subgroup,
    enumerate_group,
)
from quotient_oracle import is_normal, quotient, subgroup_closure


def _derived(g):
    return commutator_subgroup(g, g.generators, g.generators)[0]


def _s3():
    backing = PermBacking(3)
    return enumerate_group(backing, [backing.pack((1, 0, 2)), backing.pack((1, 2, 0))])


def test_enumerate_s3():
    g = _s3()
    assert len(g) == 6
    assert g.table[0] == bytes((0, 1, 2))


def test_enumerate_is_deterministic():
    a, b = _s3(), _s3()
    assert a.table == b.table
    assert a.index == b.index


def test_empty_generators_give_trivial_group():
    g = enumerate_group(PermBacking(4), [])
    assert len(g) == 1


@pytest.mark.parametrize("degree", [0, 256])
def test_perm_backing_takes_degrees_1_to_255(degree):
    with pytest.raises(GroupError):
        PermBacking(degree)


@pytest.mark.parametrize("m,z", [(0, 0), (6, 1), (8, 2)])
def test_metacyclic_backing_needs_a_central_square(m, z):
    # b^2 = a^z commutes with b only when a^-z = a^z
    with pytest.raises(GroupError):
        MetacyclicBacking(m, z)


def test_closure_cap():
    backing = PermBacking(5)
    gens = [backing.pack((1, 0, 2, 3, 4)), backing.pack((0, 2, 3, 4, 1))]
    with pytest.raises(GroupError):
        enumerate_group(backing, gens, cap=10)


def test_element_orders():
    a4 = alternating(4)
    three_cycles = [i for i in range(len(a4)) if a4.order_of(i) == 3]
    assert len(three_cycles) == 8
    # order of a (2,3) cycle type is the lcm of the cycle lengths
    mixed = direct_product(cyclic(2), cyclic(3))
    assert mixed.order_of(mixed.mul(mixed.generators[0], mixed.generators[1])) == 6


class _MaxBacking:
    """max(a, b) on 0..n-1: 0 is its identity, but a power of a non-zero
    element never returns to 0, so the product is not a group law.  Past
    `budget` products it raises, so that an unbounded walk fails instead of
    hanging."""

    def __init__(self, budget):
        self.budget = budget

    def identity(self):
        return 0

    def mul(self, a, b):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("the power walk went on past twice the group order")
        return max(a, b)

    def inv(self, a):
        return a

    def fast_order(self, a):
        return None


def test_order_walk_refuses_a_product_that_is_not_a_group_law():
    g = Group(_MaxBacking(budget=200_000), range(100_000))
    assert g.order_of(0) == 1
    start = time.perf_counter()
    with pytest.raises(GroupError, match="no power equal to the identity within 100000 steps"):
        g.order_of(1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("group", [symmetric(3), alternating(4), dihedral(12), dicyclic(12)])
def test_lagrange_and_identity(group):
    n = len(group)
    orders = group.orders()
    assert orders.count(1) == 1
    assert all(n % o == 0 for o in orders)


def test_subgroup_closure():
    s3 = _s3()
    rot = next(i for i in range(6) if s3.order_of(i) == 3)
    assert len(subgroup_closure(s3, [rot])) == 3
    assert subgroup_closure(s3, []) == (0,)


def test_commutator_closure_of_a4_is_klein():
    a4 = alternating(4)
    comms = {a4.mul(a4.mul(a4.inv(g), a4.inv(h)), a4.mul(g, h))
             for g in range(12) for h in range(12)}
    assert len(subgroup_closure(a4, comms)) == 4
    assert tuple(sorted(_derived(a4))) == subgroup_closure(a4, comms)


def test_is_normal():
    s3 = _s3()
    rot = next(i for i in range(6) if s3.order_of(i) == 3)
    assert is_normal(s3, subgroup_closure(s3, [rot]))
    refl = next(i for i in range(6) if s3.order_of(i) == 2)
    assert not is_normal(s3, subgroup_closure(s3, [refl]))
    a4 = alternating(4)
    assert is_normal(a4, _derived(a4))


def test_quotients():
    c6 = cyclic(6)
    half = next(i for i in range(6) if c6.order_of(i) == 2)
    q = quotient(c6, subgroup_closure(c6, [half]))
    assert len(q) == 3
    s3 = _s3()
    rot = next(i for i in range(6) if s3.order_of(i) == 3)
    assert len(quotient(s3, subgroup_closure(s3, [rot]))) == 2


def test_quotient_of_product_keeps_small_factor():
    g = direct_product(cyclic(11), alternating(4))
    eleven = next(i for i in range(len(g)) if g.order_of(i) == 11)
    q = quotient(g, subgroup_closure(g, [eleven]))
    assert len(q) == 12
    assert sorted(q.orders()).count(3) == 8
    # an order-3 element of the parent projects onto an order-3 coset
    coset_of = q.backing.coset_of
    three = next(i for i in range(len(g)) if g.order_of(i) == 3)
    assert q.order_of(coset_of[three]) == 3


def test_quotient_respects_multiplication():
    g = direct_product(cyclic(11), alternating(4))
    eleven = next(i for i in range(len(g)) if g.order_of(i) == 11)
    q = quotient(g, subgroup_closure(g, [eleven]))
    coset_of = q.backing.coset_of
    rng = random.Random(7)
    for _ in range(1000):
        a, b = rng.randrange(len(g)), rng.randrange(len(g))
        assert coset_of[g.mul(a, b)] == q.mul(coset_of[a], coset_of[b])


def test_quotient_rejects_non_normal():
    s3 = _s3()
    refl = next(i for i in range(6) if s3.order_of(i) == 2)
    with pytest.raises(GroupError):
        quotient(s3, subgroup_closure(s3, [refl]))


def test_derived_subgroup_above_quotient_threshold():
    # 20_000 was the group order above which a quotient group was refused;
    # the commutator closure was never bound by it
    big = direct_product(cyclic(150), cyclic(150))
    assert len(big) > 20_000
    assert _derived(big) == {0}


def test_derived_subgroups():
    assert len(_derived(_s3())) == 3
    assert _derived(cyclic(12)) == {0}
    a5 = alternating(5)
    assert len(_derived(a5)) == 60


def test_inverse_roundtrip():
    d12 = dihedral(12)
    for i in range(len(d12)):
        assert d12.mul(i, d12.inv(i)) == 0
