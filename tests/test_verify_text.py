"""`verify props` names its groups by expression text.  Each text builds the
group that the hand-written lambda it replaced built, index for index, and
each check line's label, the text without its parentheses, is that group's
old `.name`, so the suite's output is unchanged.
"""

import pytest

from oseq.construct import (
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    symmetric,
)
from oseq.expr import build, parse
from oseq.groups import DirectProductBacking
from oseq.order_sequence import os_of_group
from oseq.verify import _CONGRUENCE_TRIPLES, _COPRIME_PAIRS, _label, order12_corpus_groups

# The tables as `oseq.verify` held them before they were text.
_OLD_COPRIME_PAIRS = (
    lambda: (cyclic(2), cyclic(3)),
    lambda: (cyclic(2), cyclic(9)),
    lambda: (cyclic(3), cyclic(4)),
    lambda: (cyclic(4), cyclic(9)),
    lambda: (cyclic(5), symmetric(3)),
    lambda: (cyclic(7), alternating(4)),
    lambda: (cyclic(5), dihedral(8)),
    lambda: (cyclic(9), dihedral(8)),
    lambda: (cyclic(5), alternating(4)),
    lambda: (cyclic(7), dicyclic(12)),
    lambda: (cyclic(25), symmetric(4)),
)

_OLD_CONGRUENCE_TRIPLES = (
    lambda: (cyclic(5), cyclic(12), alternating(4)),
    lambda: (cyclic(5), cyclic(12), dihedral(12)),
    lambda: (cyclic(7), cyclic(12), dicyclic(12)),
    lambda: (cyclic(7), cyclic(4), elementary_abelian(2, 2)),
    lambda: (cyclic(11), cyclic(6), symmetric(3)),
    lambda: (cyclic(5), cyclic(8), dihedral(8)),
)


def _old_order12_corpus_groups():
    return (
        ("C12", cyclic(12)),
        ("C2xC6", direct_product(cyclic(2), cyclic(6))),
        ("D12", dihedral(12)),
        ("A4", alternating(4)),
        ("Dic12", dicyclic(12)),
    )


def _same_group(new, old):
    assert (new.table, new.generators) == (old.table, old.generators)
    n = len(old)
    assert [[new.mul(i, j) for j in range(n)] for i in range(n)] == [[old.mul(i, j) for j in range(n)] for i in range(n)]


_ROWS = list(zip(_COPRIME_PAIRS + _CONGRUENCE_TRIPLES, _OLD_COPRIME_PAIRS + _OLD_CONGRUENCE_TRIPLES, strict=True))


@pytest.mark.parametrize("texts,make", _ROWS, ids=[" ".join(texts) for texts, _ in _ROWS])
def test_each_text_row_builds_the_groups_the_lambdas_built(texts, make):
    for text, old in zip(texts, make(), strict=True):
        assert _label(text) == old.name
        new = build(parse(text))
        if text == "C(2)^2":
            # row-major, where elementary_abelian(2, 2) is breadth-first
            assert os_of_group(new).entries == os_of_group(old).entries
        else:
            _same_group(new, old)


def test_order12_corpus_is_the_hand_built_one():
    new, old = order12_corpus_groups(), _old_order12_corpus_groups()
    assert [label for label, _ in new] == [label for label, _ in old]
    for (label, group), (_, old_group) in zip(new, old):
        assert group.name == old_group.name == label
        _same_group(group, old_group)
    # the C2 x C6 of the known false claim is still the product of C2 and C6
    c2xc6 = dict(new)["C2xC6"].backing
    assert type(c2xc6) is DirectProductBacking
    _same_group(c2xc6.left, cyclic(2))
    _same_group(c2xc6.right, cyclic(6))
