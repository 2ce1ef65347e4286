"""Integer arithmetic the package needs: primality, factorisation, divisors, phi.

Every integer the package tests or factors is a group order, an element order,
a fixture order or a prime that names a group, and all of these are below
`LIMIT` = 10^6: the closure cap is 500,000 and fixture orders are refused from
`LIMIT` on.  Below `LIMIT` trial division by the primes below 1000 is exact,
as a composite has a prime factor no larger than its square root.  The four
functions refuse an integer at or past `LIMIT` with an `ArithError` before
they divide anything.
"""

from math import isqrt

from . import BuildError

__all__ = ["LIMIT", "ArithError", "isprime", "factorint", "divisors", "totient"]


class ArithError(BuildError):
    """An integer at or past `LIMIT`, where trial division stops being exact."""


def _sieve(limit):
    """Primes below `limit`, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = bytes(2)
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if flags[p]]


_SMALL_LIMIT = 1000
_SMALL_PRIMES = _sieve(_SMALL_LIMIT)
LIMIT = _SMALL_LIMIT * _SMALL_LIMIT


def isprime(n):
    """Whether the integer n < LIMIT is prime."""
    return n > 1 and factorint(n) == {n: 1}


def factorint(n):
    """Prime factorisation of 1 <= n < LIMIT as an ascending {prime: exponent} dict."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer; got {n}")
    if n >= LIMIT:
        shown = n if n < 10**20 else f"a {n.bit_length()}-bit integer"
        raise ArithError(f"{shown} is not below 10^6, the bound of oseq's integer arithmetic")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1:
        out[n] = 1
    return out


def divisors(n):
    """The positive divisors of 1 <= n < LIMIT, ascending."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def totient(n):
    """Euler's phi of 1 <= n < LIMIT."""
    out = 1
    for p, e in factorint(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out
