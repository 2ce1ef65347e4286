"""Exact arithmetic in GF(p) and GF(p^k), p^k <= 256, by full add/mul tables.

Field elements are canonically encoded as integers in [0, p^k): the base-p
packing of the coefficient vector of the residue polynomial, least
significant digit = constant term.  That encoding is the element key used
for hashing everywhere else in the package.  Moduli are pinned so the
encoding is identical across runs.  There is no matrix type: a matrix is a
tuple of rows of encoded elements, and `construct._matvec` applies one to a
vector.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import BuildError
from .arith import isprime

__all__ = ["FieldError", "FieldSpec", "field_make"]


class FieldError(BuildError):
    """Bad field parameters or an undefined field operation."""


MAX_EXTENSION_DEGREE = 8
MAX_FIELD_SIZE = 256  # every field holds full add/mul tables

# Pinned irreducible moduli (ascending coefficients, monic).
_PINNED_MODULI = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
}


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_rem(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            f = (c * inv_lead) % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _trim(a[:db])


def _is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree <= k/2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_rem(modulus, (*tail, 1), p):
                return False
    return True


def _check_field(p, k):
    """Refuse GF(p^k) unless p is prime, 1 <= k <= MAX_EXTENSION_DEGREE and
    p^k <= MAX_FIELD_SIZE."""
    if not isprime(p):
        raise FieldError(f"p={p} is not prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise FieldError(f"extension degree {k} outside 1..{MAX_EXTENSION_DEGREE}")
    if p**k > MAX_FIELD_SIZE:
        raise FieldError(f"field size {p**k} exceeds supported maximum {MAX_FIELD_SIZE}")


@lru_cache(maxsize=None)
def _search_modulus(p, k):
    """First irreducible monic of degree k, by coefficient-tuple order."""
    for tail in itertools.product(range(p), repeat=k):
        cand = (*tail, 1)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible modulus of degree {k} over GF({p}) found")


class FieldSpec:
    """GF(p^k) with a pinned modulus.

    Immutable after construction; all operations are pure functions of
    int-encoded elements and safe for concurrent use.
    """

    __slots__ = ("p", "k", "q", "modulus", "_add", "_mul", "_inv")

    def __init__(self, p, k, modulus):
        _check_field(p, k)
        modulus = _trim(modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1 or any(not 0 <= c < p for c in modulus):
            raise FieldError("modulus must be monic of degree k with coefficients in [0, p)")
        if k > 1 and not _is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is not irreducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._build_tables()

    # -- encoding ---------------------------------------------------------

    def coeffs(self, a):
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

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


@lru_cache(maxsize=None)
def field_make(p, k=1):
    """GF(p^k) with the pinned modulus table; prime fields use modulus x."""
    if k == 1:
        modulus = (0, 1)
    elif (p, k) in _PINNED_MODULI:
        modulus = _PINNED_MODULI[p, k]
    else:
        _check_field(p, k)  # before the search, which is slow for large p^k
        modulus = _search_modulus(p, k)
    return FieldSpec(p, k, modulus)

