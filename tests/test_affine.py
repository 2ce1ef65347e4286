"""`Aff(p, H, m...)`, built by `construct.affine`: C_p^k : H with the j-th
generator of H acting by the j-th k x k matrix of the entries, read row by
row.

The reference, `catalog_oracle._reference`, names each element of C_p^k by
its vector, found by a breadth-first walk of C_p^k from 0 that adds the j-th
unit vector along the j-th generator, multiplies the matrix into that vector
entry by entry, and hands the images to `semidirect_product` as explicit
permutations.
"""

import io
import itertools
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseq.cli import main
from oseq.construct import ConstructionError, affine, cyclic, dicyclic, dihedral
from oseq.expr import build, parse
from oseq.groups import DEFAULT_CLOSURE_CAP, GroupError

import catalog_oracle
from catalog_oracle import _reference


def _same(new, old):
    # both act by the test's own H; each builds its own C_p^k, equal index for index
    assert new.backing.acting is old.backing.acting
    _equal_index_for_index(new.backing.normal, old.backing.normal)
    assert new.backing.perms == old.backing.perms
    assert (new.table, new.generators) == (old.table, old.generators)


def _matmul(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def _order(m, p):
    """The multiplicative order of the matrix m, or None if it is singular."""
    k = len(m)
    det = sum(
        (-1) ** sum(s[i] > s[j] for i, j in itertools.combinations(range(k), 2))
        * prod(m[i][s[i]] for i in range(k))
        for s in itertools.permutations(range(k))
    )
    if det % p == 0:
        return None
    one = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    power, order = m, 1
    while power != one:
        power, order = _matmul(power, m, p), order + 1
    return order


@st.composite
def _invertible(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 3))
    m = tuple(tuple(draw(st.integers(0, p - 1)) for _ in range(k)) for _ in range(k))
    order = _order(m, p)
    assume(order is not None)
    return p, m, order


def _flat(*matrices):
    return [x for m in matrices for row in m for x in row]


@settings(max_examples=60, deadline=None)
@given(_invertible(), st.integers(1, 3))
def test_aff_is_the_semidirect_product_with_the_matrix_written_out(case, multiple):
    p, m, order = case
    assume(order * multiple > 1)  # C(1) has no generator to act
    h = cyclic(order * multiple)
    _same(affine(p, h, *_flat(m)), _reference(p, h, [m]))


@settings(max_examples=60, deadline=None)
@given(_invertible(), st.integers(2, 60))
def test_a_cyclic_h_whose_order_ord_m_does_not_divide_is_refused(case, m_order):
    p, m, order = case
    assume(m_order % order)
    with pytest.raises(ConstructionError, match="not a homomorphism"):
        affine(p, cyclic(m_order), *_flat(m))


# D(8)'s rotation r and reflection s, with s r s = r^-1, and Dic(12)'s a and
# b, with b^2 = a^3 and b^-1 a b = a^-1: on one coordinate a = -1 needs b of
# order 4, which GF(13) has and GF(7) has not
@pytest.mark.parametrize(
    "p,h,matrices",
    [
        (3, dihedral(8), [((2, 0), (0, 2)), ((1, 0), (0, 1))]),
        (5, dihedral(8), [((0, 4), (1, 0)), ((1, 0), (0, 4))]),
        (3, dihedral(8), [((0, 2), (1, 0)), ((0, 1), (1, 0))]),
        (5, dicyclic(12), [((0, 1), (4, 1)), ((0, 2), (2, 0))]),
        (7, dicyclic(12), [((1,),), ((6,),)]),
        (13, dicyclic(12), [((12,),), ((5,),)]),
    ],
    ids=["D8-on-GF3^2-by-minus-1", "D8-on-GF5^2", "D8-on-GF3^2", "Dic12-on-GF5^2", "Dic12-on-GF7",
         "Dic12-on-GF13"],
)
def test_aff_with_two_generators_is_the_semidirect_product_with_the_matrices_written_out(p, h, matrices):
    _same(affine(p, h, *_flat(*matrices)), _reference(p, h, matrices))


def _equal_index_for_index(new, old):
    assert (new.table, new.generators) == (old.table, old.generators)
    n = len(old)
    assert new.orders() == old.orders()
    assert [new.inv(i) for i in range(n)] == [old.inv(i) for i in range(n)]
    assert [[new.mul(i, j) for j in range(n)] for i in range(n)] == [[old.mul(i, j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "atom,text,make",
    [
        ("F7", "Aff(7, C(6), 3)", catalog_oracle.frobenius42),
        ("F8", "Aff(2, C(7), 0, 0, 1, 1, 0, 1, 0, 1, 0)", catalog_oracle.frobenius56),
        ("He(3)", "Aff(3, C(3), 1, 0, 1, 1)", lambda: catalog_oracle.heisenberg(3)),
        ("He(5)", "Aff(5, C(5), 1, 0, 1, 1)", lambda: catalog_oracle.heisenberg(5)),
        ("He(7)", "Aff(7, C(7), 1, 0, 1, 1)", lambda: catalog_oracle.heisenberg(7)),
    ],
    ids=["F7", "F8", "He3", "He5", "He7"],
)
def test_named_groups_are_aff_index_for_index(atom, text, make):
    # against the oracle's copies, which write the permutations out
    _equal_index_for_index(build(parse(text)), make())
    _equal_index_for_index(build(parse(atom)), make())


def _identity(k):
    return [int(i == j) for i in range(k) for j in range(k)]


_IDENTITY_20 = ", ".join(map(str, _identity(20)))


@pytest.mark.parametrize(
    "text,code,message",
    [
        ("Aff(5, C(1), 1)", 2, "affine group needs an acting group with generators"),
        ("Aff(5, C(1))", 2, "affine group needs an acting group with generators"),
        ("Aff(5, C(4))", 2, "affine group needs k x k matrices for the 1 generators; 0 entries is not 1 * k^2"),
        ("Aff(5, C(4), 1, 2)", 2, "affine group needs k x k matrices for the 1 generators; 2 entries is not 1 * k^2"),
        ("Aff(5, D(8), 1, 0, 0, 1)", 2,
         "affine group needs k x k matrices for the 2 generators; 4 entries is not 2 * k^2"),
        ("Aff(4, C(2), 1)", 2, "affine group needs a prime; got 4"),
        ("Aff(1, C(2), 1)", 2, "affine group needs a prime; got 1"),
        ("Aff(0, C(2), 1)", 2, "affine group needs a prime; got 0"),
        ("Aff(1000003, C(2), 1)", 2, "1000003 is not below 10^6, the bound of oseq's integer arithmetic"),
        (f"Aff(2, C(2), {_IDENTITY_20})", 2, "C2^20:C2 has more than 500000 elements, the closure cap"),
        ("Aff(3, C(200000), 1)", 2, "C3^1:C200000 has more than 500000 elements, the closure cap"),
        ("Aff(5, C(3), 2)", 2, "action is not a homomorphism"),
        ("Aff(5, C(2), 0)", 2, "generator image is not an identity-fixing permutation"),
        ("Aff(5, C(2), 1, 1, 1, 1)", 2, "generator image is not an identity-fixing permutation"),
        ("Aff(5, C(2), 1", 1, "expected ')', found end of input (at position 14)"),
    ],
    ids=["no-generators", "no-generators-no-entries", "no-entries", "not-a-square", "not-g-squares",
         "composite", "one", "zero", "past-arith-bound", "past-cap-by-k", "past-cap-by-h", "homomorphism",
         "zero-matrix", "singular", "parse"],
)
def test_aff_refusals_and_their_exit_codes(text, code, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["os", text]) == code
    assert out.getvalue() == ""
    assert err.getvalue().endswith(f": {message}\n") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "text,message",
    [
        ("He(101)", "He101 has more than 500000 elements, the closure cap"),
        ("He(2)", "heisenberg group needs an odd prime"),
        ("He(4)", "heisenberg group needs an odd prime"),
    ],
    ids=["past-cap", "two", "composite"],
)
def test_he_refusals_come_before_affs_and_name_he(text, message):
    # He(p) is Aff(p, C(p), 1, 0, 1, 1), which would name the cap C101^2:C101
    # and would take p = 2, giving D8
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["os", text]) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"construction error: {message}\n")


@pytest.mark.parametrize("p,k,h", [(2, 13, 64), (2, 16, 8), (3, 11, 4), (2, 20, 2)])
def test_aff_past_the_cap_fails_before_allocating(p, k, h):
    # refused from p^k |H| alone: built first, C2^13 : C64 took a peak of
    # 6.7 MB and C2^16 : C8 26 MB before the product refused them
    acting, entries = cyclic(h), _identity(k)
    assert p**k * h > DEFAULT_CLOSURE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(GroupError, match="closure cap"):
            affine(p, acting, *entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
