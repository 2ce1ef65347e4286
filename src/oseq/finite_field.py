"""Exact arithmetic in the fields of PSL(2,q) and Sz(8), by one table of powers.

These are the fields of at most 64 elements: GF(p) for each prime p < 64,
reduced by x, and the nine extension fields GF(p^k), k > 1, each reduced by
its modulus in `_MODULI`.  PSL(2,q) takes q <= 64 and Sz(8) uses GF(8); no
other constructor loads this module.  Each builds its `FieldSpec` once per
call, and no field is cached: `expr.build` memoises the groups.

Field elements are canonically encoded as integers in [0, p^k): the base-p
packing of the coefficient vector of the residue polynomial, least
significant digit = constant term.  Moduli are pinned so the encoding is
identical across runs.  A product is a lookup in the powers of the least
primitive code g and their logarithms, and a sum is one too: a + b =
a (1 + b / a), with log(1 + g^e) read from a table of Zech's logarithms
(Lidl & Niederreiter, *Finite Fields*, 1997), so no operation walks the
digits.  There is no matrix type: `construct._projective_group` applies
tuples of rows to vectors, through the logarithms of their entries.
"""

from . import BuildError
from .arith import isprime

__all__ = ["FieldError", "FieldSpec"]


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

    __slots__ = ("p", "k", "q", "modulus", "primitive", "_exp", "_log", "_zech")

    def __init__(self, p, k=1):
        if not (k == 1 and p < 64 and isprime(p) or (p, k) in _MODULI):
            raise FieldError(f"no field GF({p}^{k}): the fields are GF(p^k), p prime, p^k <= 64")
        q, m = p**k, _MODULI.get((p, k), (0, 1))
        self.p, self.k, self.q, self.modulus = p, k, q, m
        # The least primitive code g = c1 x + c0 and its powers, each from the
        # last in one pass over its k digits: y g = c1 (y x) + c0 y, where y x
        # shifts y's digits up a degree and reduces x^k to -(m_0 + ... +
        # m_(k-1) x^(k-1)).  Every field here has a primitive code below p^2,
        # and a search that found none would leave fewer than q - 1 powers.
        for g in range(1, min(q, p * p)):
            c1, c0, powers = g // p, g % p, [1]
            while True:
                d = [powers[-1] // p**i % p for i in range(k)]
                y = self.encode(c1 * (s - d[-1] * mi) + c0 * di for s, mi, di in zip([0, *d], m, d))
                if y == 1:
                    break
                powers.append(y)
            if len(powers) == q - 1:
                break
        self.primitive, self._exp = g, powers
        self._log = [None] + sorted(range(q - 1), key=powers.__getitem__)  # _log[powers[e]] = e
        # Zech's logarithms: _zech[e] = log(1 + g^e), None where 1 + g^e = 0;
        # adding 1 changes only the constant digit
        self._zech = [self._log[y - y % p + (y + 1) % p] for y in powers]

    def encode(self, coeffs):
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

    def add(self, a, b):
        """a + b = a (1 + b / a), the logarithm of 1 + b / a looked up in the Zech table."""
        if not (a and b):
            return a or b
        n, la = self.q - 1, self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        return 0 if z is None else self._exp[(la + z) % n]

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

