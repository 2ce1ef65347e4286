"""SD_300_23 as it was built on a permutation Dic12: the slow reference of the
tests.

`_sd_300_23` is kept as it was in `oseq/construct.py`, where the acting
Dic12 was the degree-25 permutation group the two matrices generate and its
relations were checked by hand.  `catalog("SD_300_23")` now acts by
`dicyclic(12)`, numbered its own way, so the two groups hold the same
elements under different indices.
"""

from functools import lru_cache

from catalog_oracle import _SD_300_23_MATRICES
from oseq.construct import (
    ConstructionError,
    _matvec,
    elementary_abelian,
    semidirect_product,
)
from oseq.groups import PermBacking, enumerate_group


@lru_cache(maxsize=None)
def _sd_300_23():
    """C5^2 : Dic12, the solvable group SG300_23 of the order-300 row.

    The acting Dic12 is the group of permutations of GF(5)^2 that the two
    matrices of `_SD_300_23_MATRICES` generate, and its generators act as
    themselves; the vector (x, y) is the integer x + 5y of C5^2.
    """
    from oseq.finite_field import field_make

    n = elementary_abelian(5, 2)
    spec = field_make(5)
    backing = PermBacking(len(n))
    images = ([_matvec(spec, m, (t % 5, t // 5)) for t in n.table] for m in _SD_300_23_MATRICES)
    a, b = (bytes(n.index[x + 5 * y] for x, y in image) for image in images)
    mul, inv = backing.mul, backing.inv
    a3 = mul(a, mul(a, a))
    if mul(a3, a3) != backing.identity() or mul(b, b) != a3 or mul(inv(b), mul(a, b)) != inv(a):
        raise ConstructionError("SD_300_23: the matrices break the relations of Dic12")
    h = enumerate_group(backing, [a, b])
    if len(h) != 12:
        raise ConstructionError(f"SD_300_23: the matrices generate {len(h)} elements, not 12")
    return semidirect_product(n, h, [a, b])
