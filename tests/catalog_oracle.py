"""The catalog as it was built by hand-written Python: the slow reference of
the tests.

`_CATALOG_FIXED`, `_CATALOG_PRIME`, `_sd_300_23`, `_sd_72_35`,
`_c7_rtimes_a4` and `_SD_300_23_MATRICES` are kept as they were in
`oseq/construct.py`, and `catalog` as it was there, looking names up in these
two tables.  `oseq.construct.catalog` now builds each entry from its
expression text in `oseq.CATALOG`.
"""

from functools import lru_cache

from oseq import InputError
from oseq.arith import isprime
from oseq.construct import (
    ConstructionError,
    _linear,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    frobenius42,
    frobenius56,
    symmetric,
    wreath_square,
)

# The generators a and b of Dic12 = <a, b | a^6 = 1, b^2 = a^3, b^-1 a b = a^-1>
# as matrices over GF(5), acting on GF(5)^2 by v -> Mv.
_SD_300_23_MATRICES = (((0, 1), (4, 1)), ((0, 2), (2, 0)))


@lru_cache(maxsize=None)
def _sd_300_23():
    """C5^2 : Dic12, the solvable group SG300_23 of the order-300 row, Dic12
    acting by `_SD_300_23_MATRICES`.  `_semidirect` refuses matrices that
    break Dic12's relations; the 12 actions must differ."""
    group = _linear(5, dicyclic(12), _SD_300_23_MATRICES, "SD_300_23")
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
    return _linear(3, dihedral(8), [((2, 0), (0, 2)), ((1, 0), (0, 1))], "SD_72_35")


@lru_cache(maxsize=None)
def _c7_rtimes_a4():
    """C7 : A4 acting through the unique order-3 quotient of A4: its
    generators, the 3-cycles (0 1 2) and (1 2 3), multiply by 4 and 2."""
    return _linear(7, alternating(4), [((4,),), ((2,),)], "C7:A4")


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
