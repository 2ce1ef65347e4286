"""Exact arithmetic in the fields of PSL(2,q) and Sz(8), by full add/mul tables.

These are the fields of at most 64 elements: GF(p) for each prime p < 64,
reduced by x, and the nine extension fields GF(p^k), k > 1, each reduced by
its modulus in `_MODULI`.  PSL(2,q) takes q <= 64 and Sz(8) uses GF(8); no
other constructor loads this module.

Field elements are canonically encoded as integers in [0, p^k): the base-p
packing of the coefficient vector of the residue polynomial, least
significant digit = constant term.  Moduli are pinned so the encoding is
identical across runs.  There is no matrix type: a matrix is a tuple of rows
of encoded elements, and `construct._matvec` applies one to a vector.
"""

from __future__ import annotations

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
    """GF(p^k) with a pinned modulus.

    Immutable after construction; all operations are pure functions of
    int-encoded elements and safe for concurrent use.
    """

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_inv")

    def __init__(self, p, k=1):
        if k == 1 and p < 64 and isprime(p):
            self.modulus = (0, 1)
        elif (p, k) in _MODULI:
            self.modulus = _MODULI[p, k]
        else:
            raise FieldError(f"no field GF({p}^{k}): the fields are GF(p^k), p prime, p^k <= 64")
        self.p = p
        self.k = k
        self.q = p**k
        self._build_tables()

    # -- encoding ---------------------------------------------------------

    def encode(self, coeffs):
        x = 0
        for c in reversed(tuple(coeffs)):
            x = x * self.p + (c % self.p)
        return x

    # -- arithmetic on int-encoded elements -------------------------------

    def _build_tables(self):
        """The add and mul tables, row b from row b' = b - p^i, and the inverses.

        For i the lowest non-zero digit of b > 0, b = b' + x^i as elements:
        a + b is a + b' with digit i stepped up mod p, and a * b = a * b' +
        a * x^i, where a * x^i is a * x^(i-1) shifted one digit up and reduced
        once by x^k = -(m_0 + ... + m_(k-1) x^(k-1)), the modulus's low
        terms.  Each entry is a table lookup or two, O(q^2) in all.
        """
        q, p, k = self.q, self.p, self.k
        top = p ** (k - 1)
        add = list(range(q))  # row 0; row b fills add[b * q : (b + 1) * q]
        steps = []  # steps[i][s]: s with digit i stepped up mod p
        for i in range(k):
            pi = p**i
            steps.append([s - (p - 1) * pi if s // pi % p == p - 1 else s + pi for s in range(q)])
        lowest = [0] * q  # the lowest non-zero digit of each b > 0
        for b in range(1, q):
            i = 0
            while b // p**i % p == 0:
                i += 1
            lowest[b] = i
            row = (b - p**i) * q
            add += map(steps[i].__getitem__, add[row : row + q])
        over = [self.encode((-c * m) % p for m in self.modulus[:k]) for c in range(p)]
        shifted = [list(range(q))]  # shifted[i][a] = a * x^i
        for _ in range(1, k):
            shifted.append([add[c % top * p * q + over[c // top]] for c in shifted[-1]])
        mul = [0] * q
        for b in range(1, q):
            i = lowest[b]
            row = (b - p**i) * q
            mul += [add[m * q + y] for m, y in zip(mul[row : row + q], shifted[i])]
        inv = [0] + [mul.index(1, a * q, a * q + q) - a * q for a in range(1, q)]
        self._add, self._mul, self._inv = add, mul, inv

    def add(self, a, b):
        return self._add[a * self.q + b]

    def mul(self, a, b):
        return self._mul[a * self.q + b]

    def inv(self, a):
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def element_order(self, a):
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        x, o = a, 1
        while x != 1:
            x = self.mul(x, a)
            o += 1
        return o

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


field_make = lru_cache(maxsize=None)(FieldSpec)
