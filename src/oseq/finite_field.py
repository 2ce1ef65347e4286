"""Exact arithmetic in GF(p) and GF(p^k), plus square matrices over them.

Field elements are canonically encoded as integers in [0, p^k): the base-p
packing of the coefficient vector of the residue polynomial, least
significant digit = constant term.  That encoding is the element key used
for hashing everywhere else in the package.  Moduli are pinned so the
encoding is identical across runs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .arith import isprime

__all__ = [
    "FieldError",
    "FieldSpec",
    "Matrix",
    "field_make",
    "mat_mul",
    "mat_pow",
    "mat_inv",
    "mat_det",
    "mat_order",
    "companion_matrix",
    "MATRIX_ORDER_CAP",
]


class FieldError(ValueError):
    """Bad field parameters or an undefined field operation."""


MAX_EXTENSION_DEGREE = 8
MAX_FIELD_SIZE = 256  # every field holds full add/mul tables
MATRIX_ORDER_CAP = 10**6

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


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


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

    def elements(self):
        return range(self.q)

    # -- arithmetic on int-encoded elements -------------------------------

    def _build_tables(self):
        q, p = self.q, self.p
        dec = [self.coeffs(a) for a in range(q)]
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for a in range(q):
            ca = dec[a]
            for b in range(a, q):
                cb = dec[b]
                s = self.encode((x + y) % p for x, y in zip(ca, cb))
                add[a * q + b] = add[b * q + a] = s
                m = self.encode_poly(_poly_mul(ca, cb, p))
                mul[a * q + b] = mul[b * q + a] = m
        inv = [0] * q
        for a in range(1, q):
            row = a * q
            for b in range(1, q):
                if mul[row + b] == 1:
                    inv[a] = b
                    break
        self._add, self._mul, self._inv = add, mul, inv

    def encode_poly(self, poly):
        poly = _poly_rem(poly, self.modulus, self.p) if len(poly) > self.k else poly
        return self.encode(poly + (0,) * (self.k - len(poly)))

    def add(self, a, b):
        return self._add[a * self.q + b]

    def neg(self, a):
        p = self.p
        return self.encode((p - c) % p for c in self.coeffs(a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

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

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

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


class Matrix:
    """Square matrix over a FieldSpec; rows hold int-encoded entries."""

    __slots__ = ("spec", "rows", "_hash")

    def __init__(self, spec, rows):
        rows = tuple(tuple(r) for r in rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise FieldError("matrix must be square and non-empty")
        self.spec = spec
        self.rows = rows
        self._hash = None

    @classmethod
    def identity(cls, spec, dim):
        return cls(spec, tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    @property
    def dim(self):
        return len(self.rows)

    def __mul__(self, other):
        return mat_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.rows == self.rows
            and (other.spec is self.spec or other.spec == self.spec)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.rows)
        return h

    def __repr__(self):
        return f"Matrix({self.spec!r}, {self.rows})"


def mat_mul(a, b):
    """a * b, reading the field's add/mul tables inline."""
    spec = a.spec
    if b.spec is not spec and b.spec != spec:
        raise FieldError("matrices over different fields")
    if len(b.rows) != len(a.rows):
        raise FieldError("matrix dimension mismatch")
    cols = tuple(zip(*b.rows))
    tmul, tadd, q = spec._mul, spec._add, spec.q
    out = []
    for row in a.rows:
        line = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = tadd[acc * q + tmul[x * q + y]]
            line.append(acc)
        out.append(tuple(line))
    m = Matrix.__new__(Matrix)  # rows made here are square tuples already
    m.spec, m.rows, m._hash = spec, tuple(out), None
    return m


def mat_pow(a, e):
    if e < 0:
        a, e = mat_inv(a), -e
    r = Matrix.identity(a.spec, a.dim)
    while e:
        if e & 1:
            r = mat_mul(r, a)
        a = mat_mul(a, a)
        e >>= 1
    return r


def mat_det(a):
    spec = a.spec
    rows = [list(r) for r in a.rows]
    d = a.dim
    det = 1
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = spec.neg(det)
        pivot = rows[c][c]
        det = spec.mul(det, pivot)
        pinv = spec.inv(pivot)
        for r in range(c + 1, d):
            f = spec.mul(rows[r][c], pinv)
            if f:
                for j in range(c, d):
                    rows[r][j] = spec.sub(rows[r][j], spec.mul(f, rows[c][j]))
    return det


def mat_inv(a):
    spec = a.spec
    d = a.dim
    rows = [list(r) + [1 if i == j else 0 for j in range(d)] for i, r in enumerate(a.rows)]
    for c in range(d):
        piv = next((r for r in range(c, d) if rows[r][c]), None)
        if piv is None:
            raise FieldError("singular matrix")
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
        pinv = spec.inv(rows[c][c])
        rows[c] = [spec.mul(pinv, x) for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(rows[r], rows[c])]
    return Matrix(spec, tuple(tuple(row[d:]) for row in rows))


def mat_order(a, cap=MATRIX_ORDER_CAP):
    """Least m >= 1 with a^m = identity, by iteration."""
    ident = Matrix.identity(a.spec, a.dim)
    x, m = a, 1
    while x != ident:
        x = mat_mul(x, a)
        m += 1
        if m > cap:
            raise FieldError(f"matrix order exceeds cap {cap}")
    return m


def companion_matrix(spec, poly):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    poly = tuple(poly)
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        raise FieldError("companion matrix needs a monic polynomial of degree >= 1")
    rows = []
    for i in range(d):
        row = [0] * d
        if i > 0:
            row[i - 1] = 1
        row[d - 1] = spec.neg(poly[i])
        rows.append(tuple(row))
    return Matrix(spec, rows)

