import pytest

from oseq import classify
from oseq.classify import (
    classify_group,
    derived_series,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    supersolvable_chain,
)
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
    symmetric,
)
from sympy import isprime


def test_solvable():
    assert is_solvable(symmetric(3))
    assert is_solvable(symmetric(4))
    assert not is_solvable(alternating(5))
    assert not is_solvable(catalog("C5xA5"))
    assert is_solvable(catalog("SD_300_23"))


def test_derived_series_shapes():
    series = derived_series(symmetric(4))
    assert [len(s) for s in series] == [24, 12, 4, 1]
    assert [len(s) for s in derived_series(alternating(5))] == [60]


def test_supersolvable():
    assert not is_supersolvable(alternating(4))
    assert is_supersolvable(dihedral(8))
    assert is_supersolvable(catalog("S3xD2p", 11))
    assert not is_supersolvable(catalog("CpxA4", 11))
    assert not is_supersolvable(catalog("CpxA4", 17))


@pytest.mark.parametrize(
    "maker",
    [
        lambda: dihedral(8),
        lambda: cyclic(8),
        lambda: cyclic(9),
        lambda: elementary_abelian(2, 4),
        lambda: heisenberg(3),
        lambda: heisenberg(5),
        lambda: dicyclic(8),
    ],
)
def test_p_groups_are_supersolvable(maker):
    assert is_supersolvable(maker())


def test_supersolvable_chain_witness():
    g = catalog("S3xD2p", 11)
    chain = supersolvable_chain(g)
    assert chain is not None
    product = 1
    for p in chain:
        assert isprime(p)
        product *= p
    assert product == len(g)


def test_nilpotent():
    assert is_nilpotent(heisenberg(3))
    assert is_nilpotent(cyclic(12))
    assert is_nilpotent(direct_product(cyclic(2), cyclic(6)))
    assert not is_nilpotent(symmetric(3))
    assert not is_nilpotent(dicyclic(12))


def test_classification_report():
    report = classify_group(catalog("SD_72_35"))
    assert report.order == 72
    assert (report.nilpotent, report.supersolvable, report.solvable) == (False, True, True)
    assert report.chain is not None
    assert report.derived_orders[0] == 72 and report.derived_orders[-1] == 1


def test_implication_chain_on_assorted_groups():
    groups = [cyclic(12), dihedral(12), alternating(4), alternating(5),
              catalog("SD_300_23"), catalog("S3wrC2"), heisenberg(3)]
    for g in groups:
        report = classify_group(g)
        if report.nilpotent:
            assert report.supersolvable
        if report.supersolvable:
            assert report.solvable


def test_threshold_guard():
    # neither the derived series nor the supersolvable chain is capped at
    # 20_000, the group order above which a quotient group was once refused:
    # the chain never forms a quotient group
    big = direct_product(cyclic(150), cyclic(150))
    assert is_solvable(big) is True
    assert supersolvable_chain(big) == (5, 5, 3, 2, 5, 5, 3, 2)


def test_classify_skips_quotients_when_not_solvable():
    # A8 (order 20160) is above 20_000, the group order above which a
    # quotient group was once refused, but is not solvable
    report = classify_group(alternating(8))
    assert len(alternating(8)) > 20_000
    assert (report.nilpotent, report.supersolvable, report.solvable) == (False, False, False)
    assert report.chain is None
    assert report.derived_orders == (20160,)


def test_classify_skips_the_lower_central_series_when_not_solvable(monkeypatch):
    # a nilpotent group is solvable, so a group that is not solvable is not
    # nilpotent, and [G, G] is not formed a second time
    calls = []
    real = classify.lower_central_series

    def spy(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(classify, "lower_central_series", spy)
    assert classify_group(catalog("C5xA5")).nilpotent is False
    assert calls == []
    assert classify_group(catalog("SD_72_35")).nilpotent is False
    assert len(calls) == 1


def test_psl2_64_is_not_solvable():
    assert is_solvable(psl2(64)) is False
