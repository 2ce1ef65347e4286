import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.construct import alternating, catalog, cyclic, dihedral, direct_product, symmetric
from oseq.order_sequence import (
    OrderSequence,
    SequenceError,
    Verdict,
    compare,
    format_sequence,
    is_plausible,
    nilpotent_from_os,
    os_cyclic,
    os_of_group,
    os_product,
    parse_pairs,
    parse_sequence,
    psi,
)


def seq(*pairs):
    return OrderSequence(tuple(pairs))


def test_os_of_group_examples():
    assert os_of_group(alternating(4)).entries == ((1, 1), (2, 3), (3, 8))
    assert os_of_group(cyclic(1)).entries == ((1, 1),)
    assert os_of_group(dihedral(12)).entries == ((1, 1), (2, 7), (3, 2), (6, 2))


def test_os_cyclic():
    assert os_cyclic(6).entries == ((1, 1), (2, 1), (3, 2), (6, 2))
    assert os_cyclic(1).entries == ((1, 1),)
    # brute-force oracle: enumerate the cyclic group and read off orders
    assert os_cyclic(12).entries == os_of_group(cyclic(12)).entries


@pytest.mark.parametrize("n", [2, 7, 30, 100])
def test_os_cyclic_matches_enumeration(n):
    assert os_cyclic(n).entries == os_of_group(cyclic(n)).entries


def test_psi():
    assert psi(os_of_group(alternating(4))) == 31  # 1 + 2*3 + 3*8
    assert psi(os_cyclic(1)) == 1


def test_compare_examples():
    a4 = os_of_group(alternating(4))
    d12 = os_of_group(dihedral(12))
    assert compare(a4, d12) is Verdict.INCOMPARABLE
    assert compare(a4, a4) is Verdict.EQUAL
    h = parse_pairs("(1,1)(2,15)(3,20)(5,124)(10,60)(15,80)")
    g = parse_pairs("(1,1)(2,25)(3,50)(4,150)(5,24)(6,50)")
    assert compare(h, g) is Verdict.PROPERLY_DOMINATES
    assert compare(g, h) is Verdict.PROPERLY_DOMINATED_BY


def test_compare_requires_equal_totals():
    with pytest.raises(SequenceError):
        compare(os_cyclic(4), os_cyclic(6))


def test_os_product():
    c2, c3 = os_cyclic(2), os_cyclic(3)
    assert os_product(c2, c3).entries == os_cyclic(6).entries
    assert os_product(c2, c2).entries == ((1, 1), (2, 2), (4, 1))


def test_os_product_matches_coprime_direct_product():
    p = 7
    left = os_product(os_cyclic(p), os_of_group(catalog("C5xA5")))
    right = os_of_group(catalog("C5pxA5", p))
    assert left.entries == right.entries


def test_is_plausible():
    square = os_product(os_cyclic(2), os_cyclic(2))
    ok, reason = is_plausible(square, 4)
    assert not ok
    assert reason == "phi(4)=2 does not divide multiplicity 1"
    ok, reason = is_plausible(seq((1, 2), (2, 2)), 4)
    assert not ok and "identity" in reason
    ok, reason = is_plausible(os_cyclic(12), 13)
    assert not ok and "total" in reason
    ok, reason = is_plausible(seq((1, 1), (3, 2), (4, 2), (12, 4)), 9)
    assert not ok and "order 4 does not divide" in reason
    for group in (alternating(4), dihedral(12), symmetric(4)):
        ok, reason = is_plausible(os_of_group(group), len(group))
        assert ok and reason is None


def test_nilpotent_from_os():
    assert nilpotent_from_os(os_cyclic(12))
    assert not nilpotent_from_os(os_of_group(symmetric(3)))
    with pytest.raises(SequenceError):
        nilpotent_from_os(os_product(os_cyclic(2), os_cyclic(2)))


def test_canonical_text():
    s = os_of_group(alternating(4))
    assert format_sequence(s) == "n=12; (1,1)(2,3)(3,8)"
    assert parse_sequence("n=12; (1,1)(2,3)(3,8)").entries == s.entries
    with pytest.raises(SequenceError):
        parse_sequence("n=13; (1,1)(2,3)(3,8)")
    with pytest.raises(SequenceError):
        parse_pairs("(1,1)(2")


def test_sequence_validation():
    with pytest.raises(SequenceError):
        seq((2, 1), (2, 3))
    with pytest.raises(SequenceError):
        seq((1, 0))


def _random_rle(rng, total):
    entries = []
    order = 1
    remaining = total
    while remaining:
        order += rng.randrange(1, 8)
        mult = rng.randrange(1, remaining + 1) if remaining > 1 else 1
        if rng.random() < 0.4:
            mult = remaining
        entries.append((order, mult))
        remaining -= mult
    return OrderSequence(tuple(entries))


# The verdict of compare(b, a), given that of compare(a, b).
_MIRROR = {Verdict.EQUAL: Verdict.EQUAL, Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
           Verdict.PROPERLY_DOMINATES: Verdict.PROPERLY_DOMINATED_BY,
           Verdict.PROPERLY_DOMINATED_BY: Verdict.PROPERLY_DOMINATES}


def _naive_verdict(a, b):
    ea, eb = ([o for o, m in s.entries for _ in range(m)] for s in (a, b))
    if ea == eb:
        return Verdict.EQUAL
    if all(x >= y for x, y in zip(ea, eb)):
        return Verdict.PROPERLY_DOMINATES
    if all(x <= y for x, y in zip(ea, eb)):
        return Verdict.PROPERLY_DOMINATED_BY
    return Verdict.INCOMPARABLE


def test_compare_matches_naive_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(1000):
        total = rng.randrange(1, 2001)
        a, b = _random_rle(rng, total), _random_rle(rng, total)
        assert compare(a, b) is _naive_verdict(a, b)


@settings(max_examples=300)
@given(st.data())
def test_compare_matches_naive_property(data):
    total = data.draw(st.integers(1, 400))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = _random_rle(rng, total), _random_rle(rng, total)
    assert compare(a, b) is _naive_verdict(a, b)
    assert compare(b, a) is _MIRROR[compare(a, b)]


@settings(max_examples=200)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32))
def test_product_total_is_multiplicative(n, m, seed):
    rng = random.Random(seed)
    a, b = _random_rle(rng, n), _random_rle(rng, m)
    assert os_product(a, b).total == n * m
