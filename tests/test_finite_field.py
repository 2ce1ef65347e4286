import hashlib
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.arith import isprime
from oseq.construct import psl2
from oseq.finite_field import _MODULI, FieldError, FieldSpec


def test_pinned_moduli():
    assert FieldSpec(2, 2).modulus == (1, 1, 1)
    assert FieldSpec(2, 3).modulus == (1, 1, 0, 1)
    assert FieldSpec(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert FieldSpec(5).modulus == (0, 1)


def test_prime_field_arithmetic():
    f5 = FieldSpec(5)
    assert f5.mul(2, 3) == 1
    assert f5.add(4, 3) == 2
    assert f5.inv(2) == 3


def test_gf8_reduction():
    f8 = FieldSpec(2, 3)
    x, x2 = 2, 4
    assert f8.mul(x, x2) == 3  # x^3 = x + 1


def test_gf64_generator_order():
    f = FieldSpec(2, 6)
    # power iteration oracle: walk x, x^2, ... until 1
    x, seen = 2, 0
    acc = 1
    while True:
        acc = f.mul(acc, x)
        seen += 1
        if acc == 1:
            break
    assert seen == 63


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    f = FieldSpec(p, k)
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
    f = FieldSpec(2, 6)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 6)])
def test_frobenius_additivity(p, k):
    f = FieldSpec(p, k)
    for a in range(f.q):
        for b in range(f.q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


def test_gf8_twist_squares():
    f = FieldSpec(2, 3)
    for x in range(8):
        theta = f.pow(x, 4) if x else 0
        theta2 = f.pow(theta, 4) if theta else 0
        assert theta2 == f.mul(x, x)


def test_nonzero_elements_satisfy_unit_group_order():
    f = FieldSpec(2, 3)
    for x in range(1, 8):
        assert f.pow(x, 7) == 1


def test_field_errors():
    with pytest.raises(FieldError):
        FieldSpec(4, 1)
    with pytest.raises(FieldError):
        FieldSpec(2, 9)
    with pytest.raises(FieldError):
        FieldSpec(5).inv(0)


# The oracle's own polynomial arithmetic over GF(p): ascending coefficient
# tuples, with no trailing zeros once trimmed.
def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_rem(a, b, p):
    """a mod b, for b monic."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(a[:db])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


@lru_cache(maxsize=None)
def _tables_by_polynomials(p, k):
    """The add, mul and inv tables of GF(p^k), each entry from the coefficient
    vectors: a digit-wise sum, and a polynomial product reduced by the modulus."""
    f = FieldSpec(p, k)
    q = f.q

    def encode(poly):
        poly = _poly_rem(poly, f.modulus, p) if len(poly) > k else poly
        return f.encode(poly + (0,) * (k - len(poly)))

    dec = [tuple(a // p**i % p for i in range(k)) for a in range(q)]
    add = [f.encode((x + y) % p for x, y in zip(dec[a], dec[b])) for a in range(q) for b in range(q)]
    mul = [encode(_poly_mul(_trim(dec[a]), _trim(dec[b]), p)) for a in range(q) for b in range(q)]
    inv = [0] + [next(b for b in range(1, q) if mul[a * q + b] == 1) for a in range(1, q)]
    return add, mul, inv


def _orders_by_polynomials(p, k):
    """The multiplicative order of each non-zero code, by repeated oracle products."""
    q = p**k
    mul = _tables_by_polynomials(p, k)[1]
    orders = {}
    for a in range(1, q):
        x, o = a, 1
        while x != 1:
            x, o = mul[x * q + a], o + 1
        orders[a] = o
    return orders


ALL_FIELDS = [(p, k) for p in range(2, 257) if isprime(p) for k in range(1, 9) if p**k <= 256]
FIELDS = [(p, k) for p, k in ALL_FIELDS if p**k <= 64]
FIELD_IDS = [f"{p}^{k}" for p, k in FIELDS]


@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=[f"{p}^{k}" for p, k in ALL_FIELDS])
def test_tables_match_the_polynomial_builder(p, k):
    # the constructors use no field of over 64 elements, so none is built
    if p**k > 64:
        with pytest.raises(FieldError, match=rf"no field GF\({p}\^{k}\)"):
            FieldSpec(p, k)
        return
    f = FieldSpec(p, k)
    q = f.q
    add, mul, inv = _tables_by_polynomials(p, k)
    assert [f.add(a, b) for a in range(q) for b in range(q)] == add
    assert [f.mul(a, b) for a in range(q) for b in range(q)] == mul
    assert [f.inv(a) for a in range(1, q)] == inv[1:]
    for a in range(1, q):
        assert f.pow(a, -1) == inv[a]
        x = 1  # a^e, by e oracle products
        for e in range(q + 1):
            assert f.pow(a, e) == x, (a, e)
            x = mul[x * q + a]


def _digit_sum(p, a, b):
    """a + b digit by digit mod p, as `FieldSpec.add` summed before Zech's logarithms."""
    s, unit = 0, 1
    while b:  # then a's digits above b's carry over unchanged
        s += (a + b) % p * unit  # the sum of the low digits, mod p
        a, b, unit = a // p, b // p, unit * p
    return s + a * unit


def _horner_product(f, a, b):
    """a * b by Horner's rule over b's digits, top first: shift the sum up a
    degree, x^k reduced to -(m_0 + ... + m_(k-1) x^(k-1)), and add digit * a."""
    p, k = f.p, f.k
    digits = lambda c: [c // p**i % p for i in range(k)]
    da, r = digits(a), [0] * k
    for c in reversed(digits(b)):
        r = [(s - r[-1] * m + c * d) % p for s, m, d in zip([0] + r[:-1], f.modulus, da)]
    return f.encode(r)


def _powers_by_horner(f):
    """The least code whose powers, by Horner products, reach q - 1 elements,
    its powers, and their logarithms, as `FieldSpec` searched before it
    stepped by multiplying by c1 x + c0."""
    for g in range(1, f.q):
        powers = [1]
        while (x := _horner_product(f, powers[-1], g)) != 1:
            powers.append(x)
        if len(powers) == f.q - 1:
            break
    log = [None] * f.q
    for e, x in enumerate(powers):
        log[x] = e
    return g, powers, log


ACCEPTED = [*((p, 1) for p in range(64) if isprime(p)), *_MODULI]  # every field FieldSpec builds


@pytest.mark.parametrize("p,k", ACCEPTED, ids=[f"{p}^{k}" for p, k in ACCEPTED])
def test_zech_sum_and_powers_match_the_digit_oracles(p, k):
    f = FieldSpec(p, k)
    q = f.q
    assert [f.add(a, b) for a in range(q) for b in range(q)] == [_digit_sum(p, a, b) for a in range(q) for b in range(q)]
    assert (f.primitive, f._exp, f._log) == _powers_by_horner(f)


@pytest.mark.parametrize("p,k", FIELDS, ids=FIELD_IDS)
def test_primitive_is_the_least_code_of_order_q_minus_1(p, k):
    orders = _orders_by_polynomials(p, k)
    assert FieldSpec(p, k).primitive == min(a for a, o in orders.items() if o == p**k - 1)


@pytest.mark.parametrize("p,k", FIELDS, ids=FIELD_IDS)
def test_zero_has_no_logarithm(p, k):
    # zero is the one code outside the table of powers
    f = FieldSpec(p, k)
    for a in range(f.q):
        assert f.mul(0, a) == 0 and f.mul(a, 0) == 0
    assert f.pow(0, 0) == 1
    assert all(f.pow(0, e) == 0 for e in range(1, f.q + 1))
    with pytest.raises(FieldError, match="^zero has no multiplicative inverse$"):
        f.pow(0, -1)
    with pytest.raises(FieldError, match="^zero has no multiplicative inverse$"):
        f.inv(0)


@pytest.mark.parametrize("p,k", FIELDS, ids=FIELD_IDS)
def test_no_field_holds_a_quadratic_table(p, k):
    f = FieldSpec(p, k)
    for name in type(f).__slots__:
        value = getattr(f, name)
        if hasattr(value, "__len__"):
            assert len(value) <= f.q, name


def _is_irreducible(poly, p):
    """No monic polynomial of degree 1 to deg(poly) / 2 divides poly."""
    k = len(poly) - 1
    return all(
        _poly_rem(poly, (*tail, 1), p)
        for d in range(1, k // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


def test_moduli_are_irreducible_and_the_first_in_coefficient_order():
    assert sorted(_MODULI) == sorted((p, k) for p, k in ALL_FIELDS if k > 1 and p**k <= 64)
    for (p, k), modulus in _MODULI.items():
        assert len(modulus) == k + 1 and modulus[-1] == 1 and _is_irreducible(modulus, p)
        if (p, k) not in ((2, 3), (2, 6)):  # x^3 + x + 1 and x^6 + x + 1
            candidates = ((*tail, 1) for tail in itertools.product(range(p), repeat=k))
            assert modulus == next(m for m in candidates if _is_irreducible(m, p)), (p, k)


# md5 of psl2(q)'s generator permutations, concatenated: the field encodings
# fix the numbering of the projective line, and with it every index
PSL2_GENERATORS = {
    2: "e9a7becbafba9e697de70636a5d4536e", 3: "356762fd722ed2ccb3b310b0bad416a1",
    4: "e2b8b87762c6dbe480fa2a6851f38964", 5: "29fce98e05a2cfe96ad3cf8e5bc2432a",
    7: "e65236b90e8d2c3eac3e42ee275e0ead", 8: "1c46292e290904f26fc9d4d6068188ed",
    9: "6bfdf00a3cf21fde095092ab6090e9ba", 11: "9c5fbd2679f6d22fa681eb31c83d95bd",
    13: "7ab408ce2c7038b7a3f3f6f257ed256b", 16: "2c2552a7eba488dcb9f21cbdd90286fc",
    17: "3badd9882e46dbcd9aa5e4ec06ae7113", 19: "84f206608bd84392dbf4bd8c59557405",
    23: "8c25f0192cb37389828f2fbd662ed160", 25: "a18c793d5db6487ff065c9b98ff4fefb",
    27: "45b79b6ff2f4822f41b2cc69969cc7df", 29: "d102d012df6cc5e994b80f9b767f4cf7",
    31: "0eb562de50c53a5c86db0c4fcbf6ae35", 32: "1f9451aded6a22634356681c43f644c4",
    37: "c74b7c02bb5baeefbc22e4f331abc9c7", 41: "12c8ebcdc71cfb56bbdab35fae5c12c7",
    43: "803ee64e3d1e2d288d6256398ffdfd71", 47: "4b916f3287b8fdb16515e288dc19953f",
    49: "c5187135202075625729e73653228b6e", 53: "7c0228d9cc36c11a03f75910f61525d2",
    59: "4a392c2535a1ca08a42e139f8ab0405c", 61: "389d2be8769bf86bd226eb6da0f5c7fc",
    64: "7a18f540fac3f932e739c2605d5a9af3",
}


def test_psl2_keeps_its_generator_permutations():
    assert sorted(PSL2_GENERATORS) == sorted(p**k for p, k in ALL_FIELDS if p**k <= 64)
    for q, digest in PSL2_GENERATORS.items():
        assert hashlib.md5(b"".join(psl2(q)._chain.gens)).hexdigest() == digest, q
