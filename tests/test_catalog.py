"""Every catalog entry, built from its expression text in `oseq.CATALOG`,
against the hand-written builder it replaced (`catalog_oracle`), index for
index.

Two entries differ on purpose.  C24xD14's C2^4 is now `C(2)^4`, numbered
row-major, where the builder used the breadth-first `elementary_abelian(2, 4)`
on the same backing; it is compared through the map (i, j) -> (the old index
of C2^4 element i, j).  C22xF8 keeps its table, but `C(2)^2` lists its two
generators in the other order.
"""

import pytest

import catalog_oracle
from oseq import CATALOG, CATALOG_FIXED_NAMES, CATALOG_PRIME_NAMES
from oseq.construct import catalog, elementary_abelian
from oseq.verify import catalog_sample

_CASES = [(name, None) for name in CATALOG_FIXED_NAMES] + [
    (name, p) for name in CATALOG_PRIME_NAMES for p in (5, 7, 11, 13)
]


def _check_isomorphic(new, old, image):
    """`image[i]` is the index in `old` of the element at index i of `new`:
    a bijection that keeps orders, inverses and the product of every element
    with every generator.  As every element is a word in the generators, the
    last fixes every product by induction on the word's length."""
    assert sorted(image) == list(range(len(old))) and len(new) == len(old)
    old_orders = old.orders()
    assert [old_orders[x] for x in image] == new.orders()
    for i, x in enumerate(image):
        assert image[new.inv(i)] == old.inv(x)
        assert [image[new.mul(i, g)] for g in new.generators] == [old.mul(x, image[g]) for g in new.generators]


@pytest.mark.parametrize("name,prime", _CASES, ids=[f"{n}-{p}" if p else n for n, p in _CASES])
def test_catalog_text_builds_the_old_builders_group(name, prime):
    new, old = catalog(name, prime), catalog_oracle.catalog(name, prime)
    if name == "C24xD14":
        old_c24, width = elementary_abelian(2, 4), 14
        image = [old_c24.index[i // width] * width + i % width for i in range(len(new))]
        gens = [image[g] for g in new.generators]
        # C(2)^4's generators are the unit vectors from the last to the first
        assert gens == [*old.generators[3::-1], *old.generators[4:]]
    else:
        image = range(len(new))
        assert new.table == old.table
        gens = list(new.generators)
        if name == "C22xF8":
            gens[:2] = gens[1::-1]
        assert gens == list(old.generators)
    _check_isomorphic(new, old, image)
    if len(new) <= 300:
        assert [[image[new.mul(i, j)] for j in range(len(new))] for i in range(len(new))] == [
            [old.mul(x, y) for y in image] for x in image
        ]


def test_catalog_sample_is_the_catalogs_fixed_entries_in_its_order():
    names = [name for name, _ in catalog_sample()]
    assert names == [*(n for n in CATALOG if n in CATALOG_FIXED_NAMES), "CpxA4(11)", "CpxA4(17)", "S3xD2p(11)"]
    assert names[:13] == [
        "C5xA5", "C7xA5", "C13xA5", "C15xA5", "SD_300_23", "SD_72_35", "S3wrC2",
        "C4xF8", "C22xF8", "C24xD14", "D10xF7", "C35xA4", "C5xC7A4",
    ]
