"""`oseq.arith` checked against sympy, which the package no longer imports."""

import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import arith
from oseq.arith import divisors, factorint, isprime, totient
from oseq.fixtures import parse_fixture_lines


def _same_as_sympy(n):
    assert isprime(n) == sympy.isprime(n), n
    fac = factorint(n)
    assert fac == sympy.factorint(n), n
    assert list(fac) == sorted(fac)
    assert divisors(n) == sympy.divisors(n), n
    assert totient(n) == sympy.totient(n), n
    assert all(type(x) is int for x in (totient(n), *fac, *fac.values(), *divisors(n)))


def test_small_prime_table_is_the_primes_below_a_thousand():
    assert arith._SMALL_PRIMES == list(sympy.primerange(2, 1000))
    assert arith._sieve(2) == [] and arith._sieve(3) == [2] and arith._sieve(962) == list(sympy.primerange(2, 962))


def test_exhaustive_up_to_ten_thousand():
    for n in range(1, 10**4 + 1):
        _same_as_sympy(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_matches_sympy_up_to_a_million(n):
    _same_as_sympy(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**64 - 1))
def test_matches_sympy_on_64_bit_integers(n):
    assert isprime(n) == sympy.isprime(n)
    assert factorint(n) == sympy.factorint(n)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        41041,  # Carmichael
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        3317044064679887385961981,  # strong pseudoprime to every prime base up to 37
        5459,  # strong Lucas pseudoprime
        5777,  # strong Lucas pseudoprime
        10877,  # strong Lucas pseudoprime
    ],
)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)
    assert not sympy.isprime(n)


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051, 3317044064679887385961981])
def test_base_2_strong_pseudoprimes_fail_the_lucas_half(n):
    assert arith._strong_probable_prime_base2(n)
    assert not arith._strong_lucas_probable_prime(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877])
def test_strong_lucas_pseudoprimes_fail_the_base_2_half(n):
    assert arith._strong_lucas_probable_prime(n)
    assert not arith._strong_probable_prime_base2(n)


@pytest.mark.parametrize("n", [10**18 + 3, 2**61 - 1, 2**89 - 1, 2**127 - 1])
def test_large_primes(n):
    assert isprime(n)
    assert factorint(n) == {n: 1}


def test_products_of_two_30_bit_primes():
    primes = [sympy.prevprime(2**30 - 1000 * k) for k in range(1, 7)]
    for p, q in zip(primes, reversed(primes)):
        assert factorint(p * q) == sympy.factorint(p * q)
    p = primes[0]
    assert factorint(p * p) == {p: 2}


def test_fixture_of_large_prime_order_loads_fast():
    n = 10**18 + 3
    start = time.perf_counter()
    (fixture,) = parse_fixture_lines([f"Cbig | {n} | (1,1)({n},{n - 1}) | big"])
    assert time.perf_counter() - start < 1.0
    assert fixture.seq.total == n
