"""Arbitrary-precision integer arithmetic: gcd/lcm, factorization, totient.

Naturals are plain Python ints (unbounded); rationals are ``fractions.Fraction``,
which is always kept in lowest terms with a positive denominator. A
factorization is an ordered list of ``(prime, exponent)`` pairs with strictly
increasing primes.
"""

from __future__ import annotations

import functools
import math

from .errors import InvalidArgumentError, ZeroInputError

_SMALL_PRIME_LIMIT = 1_000_000

# Witnesses that make Miller-Rabin deterministic below 3.3e24 (covers 2**64).
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_ABOVE_64_BITS = 40


@functools.lru_cache(maxsize=1)
def small_primes() -> tuple[int, ...]:
    """All primes below 10**6, via a sieve of Eratosthenes (built once)."""
    limit = _SMALL_PRIME_LIMIT
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return tuple(i for i in range(limit) if sieve[i])


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two naturals; gcd(0, 0) = 0."""
    if a < 0 or b < 0:
        raise InvalidArgumentError(f"gcd requires nonnegative inputs, got ({a}, {b})")
    return math.gcd(a, b)


def lcm(a: int, b: int) -> int:
    """Least common multiple a*b // gcd(a, b) of two positive integers."""
    if a == 0 or b == 0:
        raise ZeroInputError(f"lcm requires positive inputs, got ({a}, {b})")
    return (a // math.gcd(a, b)) * b


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below 2**64, 40 fixed prime bases above."""
    if n < 2:
        return False
    for p in _MR_DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 2**64:
        bases = _MR_DETERMINISTIC_BASES
    else:
        bases = small_primes()[:_MR_ROUNDS_ABOVE_64_BITS]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated for this c; retry with the next polynomial
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


@functools.lru_cache(maxsize=1024)
def factorize(x: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of x >= 1; factorize(1) is empty.

    Trial division by the sieved primes below 10**6, then Pollard rho with
    Miller-Rabin on whatever remains, so smooth inputs are fast and adversarial
    ones still terminate. The most recent 1024 results are cached, so memory
    stays bounded however many elements a process factorizes.
    """
    if x == 0:
        raise ZeroInputError("cannot factorize 0")
    if x < 0:
        raise InvalidArgumentError(f"cannot factorize negative {x}")
    factors: dict[int, int] = {}
    for p in small_primes():
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x > 1:
        stack = [x]
        while stack:
            m = stack.pop()
            if m < _SMALL_PRIME_LIMIT**2 or is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(factors.items()))


def totient(x: int) -> int:
    """Euler's totient via the product formula over the prime factorization."""
    if x == 0:
        raise ZeroInputError("totient(0) is undefined")
    result = x
    for p, _ in factorize(x):
        result -= result // p
    return result


def divisors(x: int) -> list[int]:
    """All positive divisors of x >= 1, ascending."""
    if x == 0:
        raise ZeroInputError("divisors(0) is undefined")
    divs = [1]
    for p, e in factorize(x):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
