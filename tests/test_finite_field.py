import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.arith import isprime
from oseq.finite_field import FieldError, _poly_rem, _trim, field_make


def test_pinned_moduli():
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    assert field_make(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert field_make(5).modulus == (0, 1)


def test_prime_field_arithmetic():
    f5 = field_make(5)
    assert f5.mul(2, 3) == 1
    assert f5.add(4, 3) == 2
    assert f5.inv(2) == 3


def test_gf8_reduction():
    f8 = field_make(2, 3)
    x, x2 = 2, 4
    assert f8.mul(x, x2) == 3  # x^3 = x + 1


def test_gf64_generator_order():
    f = field_make(2, 6)
    # power iteration oracle: walk x, x^2, ... until 1
    x, seen = 2, 0
    acc = 1
    while True:
        acc = f.mul(acc, x)
        seen += 1
        if acc == 1:
            break
    assert seen == 63
    assert f.element_order(2) == 63


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    f = field_make(p, k)
    elems = range(f.q)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems:
        if a:
            assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=200)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_gf64_axioms_sampled(a, b, c):
    f = field_make(2, 6)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 6)])
def test_frobenius_additivity(p, k):
    f = field_make(p, k)
    for a in range(f.q):
        for b in range(f.q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


def test_gf8_twist_squares():
    f = field_make(2, 3)
    for x in range(8):
        theta = f.pow(x, 4) if x else 0
        theta2 = f.pow(theta, 4) if theta else 0
        assert theta2 == f.mul(x, x)


def test_nonzero_elements_satisfy_unit_group_order():
    f = field_make(2, 3)
    for x in range(1, 8):
        assert f.pow(x, 7) == 1


def test_field_errors():
    with pytest.raises(FieldError):
        field_make(4, 1)
    with pytest.raises(FieldError):
        field_make(2, 9)
    with pytest.raises(FieldError):
        field_make(5).inv(0)


def test_large_field_without_tables():
    # every field holds full add/mul tables, so one above 256 elements is refused
    with pytest.raises(FieldError, match="exceeds supported maximum 256"):
        field_make(3, 6)


def test_large_field_is_refused_before_the_modulus_search(monkeypatch):
    # the search for a degree-8 modulus over GF(31) takes longer than 20 s
    import oseq.finite_field

    def unreachable(p, k):
        raise AssertionError("modulus searched before the size check")

    monkeypatch.setattr(oseq.finite_field, "_search_modulus", unreachable)
    with pytest.raises(FieldError, match="exceeds supported maximum 256"):
        field_make(31, 8)



def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _tables_by_polynomials(f):
    """The add, mul and inv tables of f, each entry from the coefficient
    vectors: a digit-wise sum, and a polynomial product reduced by the modulus."""
    q, p, k = f.q, f.p, f.k

    def encode(poly):
        poly = _poly_rem(poly, f.modulus, p) if len(poly) > k else poly
        return f.encode(poly + (0,) * (k - len(poly)))

    dec = [f.coeffs(a) for a in range(q)]
    add = [f.encode((x + y) % p for x, y in zip(dec[a], dec[b])) for a in range(q) for b in range(q)]
    mul = [encode(_poly_mul(_trim(dec[a]), _trim(dec[b]), p)) for a in range(q) for b in range(q)]
    inv = [0] + [next(b for b in range(1, q) if mul[a * q + b] == 1) for a in range(1, q)]
    return add, mul, inv


ALL_FIELDS = [(p, k) for p in range(2, 257) if isprime(p) for k in range(1, 9) if p**k <= 256]


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[f"{p}^{k}" for p, k in ALL_FIELDS])
def test_tables_match_the_polynomial_builder(p, k):
    f = field_make(p, k)
    assert (f._add, f._mul, f._inv) == _tables_by_polynomials(f)
