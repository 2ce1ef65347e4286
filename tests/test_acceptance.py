"""Acceptance suite: one test per criterion, exact integer equality throughout.

Criterion 8 sweeps all six nilpotent-over-non-nilpotent pairs at order 12;
the (C2xC6, Dic12) pair is mathematically incomparable, so that single
parametrized case fails by design rather than being weakened away.
"""

import random
from math import gcd

import pytest
from sympy import totient

from oseq.classify import classify_group, is_nilpotent, is_solvable, is_supersolvable
from oseq.construct import (
    alternating,
    catalog,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    heisenberg,
    psl2,
    suzuki8,
)
from oseq.fixtures import fixtures_by_label, load_fixtures
from oseq.order_sequence import (
    OrderSequence,
    Verdict,
    compare,
    nilpotent_from_os,
    os_of_group,
    os_product,
    psi,
)
from oseq.verify import (
    catalog_sample,
    order12_corpus_groups,
    run_suite,
    suite_table1,
    suite_thm23,
    suite_thm25,
    suite_thm29,
)

@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


@pytest.fixture(scope="module")
def by_label(fixtures):
    return fixtures_by_label(fixtures)


def _assert_all(checks, criterion):
    failed = [c for c in checks if not c.ok]
    assert not failed, f"{criterion}: " + "; ".join(f"{c.name} [{c.detail}]" for c in failed)
    print(f"ACCEPTANCE {criterion}: PASS ({len(checks)} checks)")


def test_criterion_01_base_sequences():
    assert os_of_group(alternating(4)).entries == ((1, 1), (2, 3), (3, 8))
    assert os_of_group(dihedral(12)).entries == ((1, 1), (2, 7), (3, 2), (6, 2))
    print("ACCEPTANCE 1: PASS (A4 and D12 displays)")


def test_criterion_02_table1(by_label):
    checks = suite_table1(by_label)
    assert len([c for c in checks if ">" in c.name]) == 19
    _assert_all(checks, "2 (table 1: five sequences, 19 domination pairs)")


def test_criterion_03_order_300p_family():
    checks = suite_thm23((3, 7, 13, 17))
    _assert_all(checks, "3 (order-300p family)")


def test_criterion_04_order_12p_closed_forms():
    checks = suite_thm25((11, 17, 23))
    _assert_all(checks, "4 (order-12p closed forms)")


def test_criterion_05_order_72p_family():
    checks = suite_thm29((5, 7, 11))
    _assert_all(checks, "5 (order-72p family)")


def test_criterion_06_classification_spot_checks():
    assert not is_solvable(alternating(5))
    assert not is_solvable(catalog("C5xA5"))
    assert is_solvable(catalog("SD_300_23"))
    for p in (11, 17):
        assert not is_supersolvable(catalog("CpxA4", p))
        assert is_supersolvable(catalog("S3xD2p", p))
    for p_group in (dihedral(8), cyclic(8), cyclic(9), elementary_abelian(2, 4),
                    heisenberg(3), heisenberg(5), dicyclic(8)):
        assert is_supersolvable(p_group)
    for name, group in catalog_sample():
        report = classify_group(group)
        if report.nilpotent:
            assert report.supersolvable, name
        if report.supersolvable:
            assert report.solvable, name
    print("ACCEPTANCE 6: PASS (classification spot checks, implication chain catalog-wide)")


def test_criterion_07_nilpotency_from_sequence_agrees():
    for name, group in catalog_sample():
        assert nilpotent_from_os(os_of_group(group)) == is_nilpotent(group), name
    print("ACCEPTANCE 7: PASS (sequence-level nilpotency test agrees on the catalog)")


_ORDER12_PAIRS = [(g, h) for g in ("C12", "C2xC6") for h in ("D12", "A4", "Dic12")]


@pytest.mark.parametrize("nil_name,other_name", _ORDER12_PAIRS)
def test_criterion_08_nilpotent_dominates_at_order_12(nil_name, other_name):
    groups = dict(order12_corpus_groups())
    verdict = compare(os_of_group(groups[nil_name]), os_of_group(groups[other_name]))
    assert verdict is Verdict.PROPERLY_DOMINATES, (
        f"os({nil_name}) does not properly dominate os({other_name}): {verdict.value}")


def test_criterion_09_product_theorem_suite():
    checks = run_suite("props")
    known_false = "nilpotent dominates: C2xC6 > Dic12"
    failed = [c for c in checks if not c.ok and c.name != known_false]
    assert not failed, failed
    print("ACCEPTANCE 9: PASS (product law, plausibility witness, domination congruence)")


def test_criterion_10_simple_group_block(by_label):
    computed = os_of_group(psl2(64))
    assert computed.entries == by_label["L2_64"].seq.entries
    assert compare(by_label["L2_64"].seq, by_label["C32xSz8"].seq) is Verdict.INCOMPARABLE
    assert psi(by_label["L2_64"].seq) == 12106687
    assert psi(by_label["C32xSz8"].seq) == 5482775
    assert psi(by_label["C32xSz8"].seq) < psi(by_label["L2_64"].seq)
    print("ACCEPTANCE 10: PASS (PSL(2,64) display, incomparability, psi inequality)")


def test_criterion_10_optional_suzuki(by_label):
    c3sq, sz8 = elementary_abelian(3, 2), suzuki8()
    product = os_of_group(direct_product(c3sq, sz8))
    assert product.entries == by_label["C32xSz8"].seq.entries
    # `verify simple` multiplies the factors' sequences instead of building
    # the product; that is exact because the factor orders are coprime.
    assert gcd(len(c3sq), len(sz8)) == 1
    assert os_product(os_of_group(c3sq), os_of_group(sz8)) == product
    print("ACCEPTANCE 10 (Sz8): PASS (computed C3^2 x Sz(8) display)")


def _random_rle(rng, total):
    entries = []
    order = 1
    remaining = total
    while remaining:
        order += rng.randrange(1, 8)
        mult = remaining if rng.random() < 0.4 else rng.randrange(1, remaining + 1)
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


def test_criterion_11_sequence_invariants(fixtures):
    computed = [os_of_group(g) for _, g in catalog_sample()]
    computed.append(os_of_group(psl2(64)))
    for p in (3, 11):
        computed.append(os_of_group(catalog("CpxSD300", p)))
    sequences = [(f"fixture {f.label}", f.seq, f.n) for f in fixtures]
    sequences += [(f"computed #{i}", s, s.total) for i, s in enumerate(computed)]
    for name, s, n in sequences:
        for o, m in s.entries:
            assert n % o == 0, (name, o)
            assert m % int(totient(o)) == 0, (name, o, m)

    rng = random.Random(11)
    for _ in range(1000):
        total = rng.randrange(1, 2001)
        a, b = _random_rle(rng, total), _random_rle(rng, total)
        assert compare(a, b) is _naive_verdict(a, b)

    orders = sorted({f.n for f in fixtures})
    for n in orders:
        seqs = [f.seq for f in fixtures if f.n == n]
        for a in seqs:
            assert compare(a, a) is Verdict.EQUAL
        for a in seqs:
            for b in seqs:
                assert compare(a, b) is _MIRROR[compare(b, a)]
        strict = {(i, j) for i, a in enumerate(seqs) for j, b in enumerate(seqs)
                  if compare(a, b) is Verdict.PROPERLY_DOMINATES}
        for i, j in strict:
            for k, l in strict:
                if j == k:
                    assert (i, l) in strict
    print("ACCEPTANCE 11: PASS (divisibility invariants, naive-compare agreement, poset axioms)")
