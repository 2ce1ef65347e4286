"""Integer arithmetic the package needs: primality, factorisation, divisors, phi.

`isprime` is trial division by the primes below 1000, then the Baillie-PSW
test: a strong probable-prime test to base 2 and a strong Lucas test with
Selfridge's parameters (Baillie & Wagstaff, Math. Comp. 35, 1980).  No
composite passes both below 2^64, and none is known above.  `factorint`
divides out the small primes and splits what is left with Brent's variant of
Pollard's rho (Brent, BIT 20, 1980), testing each cofactor with `isprime`.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

__all__ = ["isprime", "factorint", "divisors", "totient"]


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
_SMALL_SET = frozenset(_SMALL_PRIMES)


def _strong_probable_prime_base2(n):
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with P = 1, Q = (1 - D) / 4 for the first D in
    5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1; n is odd, not a square,
    and has no prime factor below 1000."""
    d_param = 5
    while _jacobi(d_param, n) != -1:
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n by the binary ladder over the bits of d (P = 1)
    u, v, qk = 1, 1, q_param % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d_param * u + v
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            u, v, qk = u % n, v % n, qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def isprime(n):
    """Whether the integer n is prime."""
    if n < _SMALL_LIMIT:
        return n in _SMALL_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < _SMALL_LIMIT * _SMALL_LIMIT:
        return True
    if isqrt(n) ** 2 == n:
        return False
    return _strong_probable_prime_base2(n) and _strong_lucas_probable_prime(n)


def _brent_factor(n):
    """A proper factor of the odd composite n, which has no prime factor below 1000."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: redo its steps one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n):
    """Prime factorisation of n >= 1 as an ascending {prime: exponent} dict."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer; got {n}")
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
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _brent_factor(m)
            pending += [f, m // f]
    return dict(sorted(out.items()))


def divisors(n):
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def totient(n):
    """Euler's phi of n >= 1."""
    out = 1
    for p, e in factorint(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out
