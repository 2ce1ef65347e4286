"""`oseq.arith` checked against sympy, which the package no longer imports."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import BuildError, arith
from oseq.arith import LIMIT, ArithError, divisors, factorint, isprime, totient


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
@given(st.integers(1, LIMIT - 1))
def test_matches_sympy_up_to_a_million(n):
    _same_as_sympy(n)


@pytest.mark.parametrize("n", [LIMIT - 1, 999983, 997 * 997, 991 * 997, 2**19])
def test_matches_sympy_at_the_top_of_the_range(n):
    _same_as_sympy(n)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        41041,  # Carmichael
        2047,  # strong pseudoprime to base 2
        5459,  # strong Lucas pseudoprime
        5777,  # strong Lucas pseudoprime
        10877,  # strong Lucas pseudoprime
    ],
)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)
    assert not sympy.isprime(n)


@pytest.mark.parametrize("fn", [isprime, factorint, divisors, totient])
@pytest.mark.parametrize("n", [LIMIT, 2**64 - 1, 10**18 + 3, 2**127 - 1])
def test_refuses_integers_from_the_limit_on(fn, n):
    assert issubclass(ArithError, BuildError)
    with pytest.raises(ArithError, match=r"is not below 10\^6") as info:
        fn(n)
    assert "\n" not in str(info.value)

