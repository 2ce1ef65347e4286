"""Exact arithmetic in the fields of PSL(2,q) and Sz(8), by one table of powers.

These are the fields of at most 64 elements: GF(p) for each prime p < 64,
reduced by x, and the nine extension fields GF(p^k), k > 1, each reduced by
its modulus in `_MODULI`.  PSL(2,q) takes q <= 64 and Sz(8) uses GF(8); no
other constructor loads this module.

Field elements are canonically encoded as integers in [0, p^k): the base-p
packing of the coefficient vector of the residue polynomial, least
significant digit = constant term.  Moduli are pinned so the encoding is
identical across runs.  A sum is digit-wise mod p; a product is a lookup in
the powers of the least primitive code and their logarithms (Zech's
logarithms; Lidl & Niederreiter, *Finite Fields*, 1997).  There is no
matrix type: `construct._matvec` applies a tuple of rows to a vector.
"""

from functools import lru_cache

from . import BuildError
from .arith import isprime

__all__ = ["FieldError", "FieldSpec", "field_make"]


class FieldError(BuildError):
    """Bad field parameters or an undefined field operation."""


# The irreducible modulus of each extension field (ascending coefficients,
# monic).  GF(8) and GF(64) keep x^3 + x + 1 and x^6 + x + 1, by which
# Sz(8) and PSL(2,64) are numbered; every other modulus is the first
# irreducible monic polynomial of its degree in coefficient order.
_MODULI = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (2, 4): (1, 0, 0, 1, 1),  # x^4 + x^3 + 1
    (2, 5): (1, 0, 0, 1, 0, 1),  # x^5 + x^3 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (3, 3): (1, 0, 2, 1),  # x^3 + 2x^2 + 1
    (5, 2): (1, 1, 1),  # x^2 + x + 1
    (7, 2): (1, 0, 1),  # x^2 + 1
}


class FieldSpec:
    """GF(p^k) with a pinned modulus, and `primitive`, its least code of order q - 1.

    Immutable after construction; all operations are pure functions of
    int-encoded elements and safe for concurrent use.
    """

    __slots__ = ("p", "k", "q", "modulus", "primitive", "_exp", "_log")

    def __init__(self, p, k=1):
        if not (k == 1 and p < 64 and isprime(p) or (p, k) in _MODULI):
            raise FieldError(f"no field GF({p}^{k}): the fields are GF(p^k), p prime, p^k <= 64")
        self.p, self.k, self.q = p, k, p**k
        self.modulus = _MODULI.get((p, k), (0, 1))
        # the least primitive code: the class of x is not one in GF(9), GF(25) or GF(49)
        for g in range(1, self.q):
            powers = [1]
            while (x := self._product(powers[-1], g)) != 1:
                powers.append(x)
            if len(powers) == self.q - 1:
                break
        self.primitive, self._exp = g, powers
        self._log = [None] + sorted(range(self.q - 1), key=powers.__getitem__)  # _log[powers[e]] = e

    def encode(self, coeffs):
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

    def _product(self, a, b):
        """a * b by Horner's rule over b's digits, top first: shift the sum up a
        degree, x^k reduced to -(m_0 + ... + m_(k-1) x^(k-1)), and add digit * a."""
        p, k = self.p, self.k
        digits = lambda c: [c // p**i % p for i in range(k)]
        da, r = digits(a), [0] * k
        for c in reversed(digits(b)):
            r = [(s - r[-1] * m + c * d) % p for s, m, d in zip([0] + r[:-1], self.modulus, da)]
        return self.encode(r)

    def add(self, a, b):
        p, s, unit = self.p, 0, 1
        while b:  # then a's digits above b's carry over unchanged
            s += (a + b) % p * unit  # the sum of the low digits, mod p
            a, b, unit = a // p, b // p, unit * p
        return s + a * unit

    def mul(self, a, b):
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)] if a and b else 0

    def inv(self, a):
        return self.pow(a, -1)

    def pow(self, a, e):
        if a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if e < 0:
            raise FieldError("zero has no multiplicative inverse")
        return 0 if e else 1

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


field_make = lru_cache(maxsize=None)(FieldSpec)
