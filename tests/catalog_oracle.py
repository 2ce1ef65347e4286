"""The catalog and the named atoms as they were built by hand-written
Python: the slow reference of the tests.

`_CATALOG_FIXED`, `_CATALOG_PRIME`, `catalog` and `_SD_300_23_MATRICES` are
kept as they were in `oseq/construct.py`.  The groups that were C_p^k : H
(`_sd_300_23`, `_sd_72_35`, `_c7_rtimes_a4`, and the atoms `frobenius42`,
`frobenius56` and `heisenberg`) are built by `_reference`, which names each
element of C_p^k by its vector, found by a breadth-first walk of C_p^k from 0
that adds the j-th unit vector along the j-th generator, multiplies the
matrix into that vector entry by entry, and hands the images to
`semidirect_product` as explicit permutations.  `oseq` now builds every one
of them from expression text with `construct.affine`.
"""

from functools import lru_cache

from oseq import InputError
from oseq.arith import isprime
from oseq.construct import (
    ConstructionError,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    semidirect_product,
    symmetric,
    wreath_square,
)


def _vectors(n, k):
    """The vector of each index of C_p^k, by a walk of its Cayley graph from
    0 whose j-th generator adds the j-th unit vector."""
    p = n.order_of(n.generators[0])
    vectors, walk = {0: (0,) * k}, [0]
    for x in walk:  # grows while it is walked
        for j, g in enumerate(n.generators):
            y = n.mul(x, g)
            if y not in vectors:
                vectors[y] = tuple((c + (i == j)) % p for i, c in enumerate(vectors[x]))
                walk.append(y)
    return [vectors[i] for i in range(len(n))]


def _reference(p, h, matrices):
    """C_p^k : H, the images of H's generators written out as permutations."""
    k = len(matrices[0])
    n = cyclic(p) if k == 1 else elementary_abelian(p, k)
    vectors = _vectors(n, k)
    index = {v: i for i, v in enumerate(vectors)}
    images = [[index[tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)] for v in vectors]
              for m in matrices]
    return semidirect_product(n, h, images)


# The generators a and b of Dic12 = <a, b | a^6 = 1, b^2 = a^3, b^-1 a b = a^-1>
# as matrices over GF(5), acting on GF(5)^2 by v -> Mv.
_SD_300_23_MATRICES = (((0, 1), (4, 1)), ((0, 2), (2, 0)))


@lru_cache(maxsize=None)
def _sd_300_23():
    """C5^2 : Dic12, the solvable group SG300_23 of the order-300 row, Dic12
    acting by `_SD_300_23_MATRICES`.  `semidirect_product` refuses matrices
    that break Dic12's relations; the 12 actions must differ."""
    group = _reference(5, dicyclic(12), _SD_300_23_MATRICES)
    if len(set(group.backing.perms)) != 12:
        raise ConstructionError("SD_300_23: the matrices do not act faithfully")
    return group


@lru_cache(maxsize=None)
def _sd_72_35():
    """The supersolvable order-72 companion of the wreath square of S3.

    Both groups are C3^2 : D8 semidirect products with identical order
    sequences, so a sequence oracle cannot separate them; in this one the
    rotation inverts every vector and the reflection fixes them, so D8 acts
    through its quotient by the Klein subgroup generated by the half-turn
    and the reflection.  That action fixes every line, which forces
    supersolvability.
    """
    return _reference(3, dihedral(8), [((2, 0), (0, 2)), ((1, 0), (0, 1))])


@lru_cache(maxsize=None)
def _c7_rtimes_a4():
    """C7 : A4 acting through the unique order-3 quotient of A4: its
    generators, the 3-cycles (0 1 2) and (1 2 3), multiply by 4 and 2."""
    return _reference(7, alternating(4), [((4,),), ((2,),)])


@lru_cache(maxsize=None)
def frobenius42():
    """The atom F7: C7 with its full automorphism group C6 on top, the
    generator of C6 multiplying by 3."""
    return _reference(7, cyclic(6), [((3,),)])


@lru_cache(maxsize=None)
def frobenius56():
    """The atom F8: C2^3 with a fixed-point-free C7 on top, its generator
    multiplying GF(8) = GF(2)[x]/(x^3 + x + 1) by x, the vector (a0, a1, a2)
    standing for a0 + a1 x + a2 x^2."""
    return _reference(2, cyclic(7), [((0, 0, 1), (1, 0, 1), (0, 1, 0))])


@lru_cache(maxsize=None)
def heisenberg(p):
    """The atom He(p), p an odd prime: C_p^2 : C_p, y acting on the vectors
    by (u, w) -> (u, w + u)."""
    return _reference(p, cyclic(p), [((1, 0), (1, 1))])


# Keyed by `oseq.CATALOG_FIXED_NAMES` and `oseq.CATALOG_PRIME_NAMES`.
_CATALOG_FIXED = {
    "C5xA5": lambda: direct_product(cyclic(5), alternating(5)),
    "C7xA5": lambda: direct_product(cyclic(7), alternating(5)),
    "C13xA5": lambda: direct_product(cyclic(13), alternating(5)),
    "C15xA5": lambda: direct_product(cyclic(15), alternating(5)),
    "SD_300_23": _sd_300_23,
    "SD_72_35": _sd_72_35,
    "S3wrC2": lambda: wreath_square(symmetric(3)),
    "C4xF8": lambda: direct_product(cyclic(4), frobenius56()),
    "C22xF8": lambda: direct_product(elementary_abelian(2, 2), frobenius56()),
    "C24xD14": lambda: direct_product(elementary_abelian(2, 4), dihedral(14)),
    "D10xF7": lambda: direct_product(dihedral(10), frobenius42()),
    "C35xA4": lambda: direct_product(cyclic(35), alternating(4)),
    "C5xC7A4": lambda: direct_product(cyclic(5), _c7_rtimes_a4()),
}

_CATALOG_PRIME = {
    "CpxA4": lambda p: direct_product(cyclic(p), alternating(4)),
    "S3xD2p": lambda p: direct_product(symmetric(3), dihedral(2 * p)),
    "C5pxA5": lambda p: direct_product(cyclic(5 * p), alternating(5)),
    "CpxSD300": lambda p: direct_product(cyclic(p), catalog("SD_300_23")),
    "CpxS3wrC2": lambda p: direct_product(cyclic(p), catalog("S3wrC2")),
    "CpxSD72": lambda p: direct_product(cyclic(p), catalog("SD_72_35")),
}

@lru_cache(maxsize=None)
def catalog(name, prime=None):
    """Catalog entry by stable name; parametrized names take a prime.

    An unknown name, a prime missing from a parametrized name or given to a
    fixed one, and a prime that is not prime are usage errors (InputError); a
    prime of 10^6 or more is refused by `isprime` with an `ArithError`.
    """
    if name in _CATALOG_FIXED:
        if prime is not None:
            raise InputError(f"catalog entry {name!r} takes no prime argument")
        return _CATALOG_FIXED[name]()
    if name in _CATALOG_PRIME:
        if prime is None:
            raise InputError(f"catalog entry {name!r} requires a prime argument")
        if not isprime(prime):
            raise InputError(f"{prime} is not prime")
        return _CATALOG_PRIME[name](prime)
    raise InputError(f"unknown catalog name {name!r}")
