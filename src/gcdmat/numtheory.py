"""Prime factorization, primality and divisors of arbitrary-precision integers.

Naturals are plain Python ints (unbounded); gcds and lcms are ``math.gcd``
and ``math.lcm``, called directly where they are needed. A factorization is
an ordered list of ``(prime, exponent)`` pairs with strictly increasing
primes.

Primes come from one sieve of Eratosthenes that the module shares. The primes
below 2**12 are sieved at import. The sieve then grows only on demand, by
doubling: the next segment [L, 2L) is sieved with the primes already known
and appended, so no range is sieved twice. ``factorize`` grows it while a
cofactor may still have a prime factor below 2**20, and ``first_primes(k)``
until it holds k primes.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import InvalidArgumentError

_SMALL_PRIME_LIMIT = 1 << 12
# Trial division stops here; Miller-Rabin and Pollard rho take the cofactor.
_TRIAL_LIMIT = 1 << 20
_TRIAL_LIMIT_SQUARED = _TRIAL_LIMIT * _TRIAL_LIMIT
# Above _LONG, trial division tests blocks of _BLOCK primes against one
# remainder by their product (about 1300 bits), not x itself.
_LONG = 1 << 2048
_BLOCK = 64

# Witnesses that make Miller-Rabin deterministic below psi_12 =
# 318,665,857,834,031,151,167,461 (about 3.19e23, so they cover 2**64), the
# least strong pseudoprime to all twelve.
_MR_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_ABOVE_64_BITS = 40


def _segment(lo: int, hi: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """The primes in [lo, hi), given every prime below lo, lo >= 3 and
    lo * lo >= hi. Only odd numbers are sieved: entry t stands for start + 2t."""
    start = lo | 1
    odds = range(start, hi, 2)
    sieve = bytearray([1]) * len(odds)
    for p in primes[1:]:
        if p * p >= hi:
            break
        first = max(p * p, -(-lo // p) * p)
        if first % 2 == 0:
            first += p
        t = (first - start) // 2
        sieve[t::p] = bytes(len(range(t, len(odds), p)))
    return tuple(itertools.compress(odds, sieve))


# (L, every prime below L). Growing replaces the pair whole, so a reader
# always sees a limit and primes that belong together; two threads growing
# at once can at worst sieve a segment twice.
_sieve: tuple[int, tuple[int, ...]] = (4, (2, 3))


def _grow() -> tuple[int, tuple[int, ...]]:
    """Sieve the segment [L, 2L) onto the shared primes; returns the new pair."""
    global _sieve
    limit, primes = _sieve
    _sieve = (2 * limit, primes + _segment(limit, 2 * limit, primes))
    return _sieve


while _sieve[0] < _SMALL_PRIME_LIMIT:
    _grow()
_SMALL_PRIMES = _sieve[1]


def small_primes() -> tuple[int, ...]:
    """All primes below 2**12, sieved once at import."""
    return _SMALL_PRIMES


def first_primes(k: int) -> tuple[int, ...]:
    """The first k primes, growing the shared sieve until it holds them."""
    primes = _sieve[1]
    while len(primes) < k:
        primes = _grow()[1]
    return primes[:k]


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


def _strip(x: int, p: int) -> tuple[int, int]:
    """(e, x // p**e) for the largest e such that p**e divides x.

    Repeated squaring: strip the powers of p*p first, then at most one more
    p. A prime power p**e so costs O(log e) divisions, not e.
    """
    if x % p:
        return 0, x
    e, x = _strip(x, p * p)
    q, r = divmod(x, p)
    return (2 * e + 1, q) if r == 0 else (2 * e, x)


def _trial_divide(x: int, factors: dict[int, int]) -> int:
    """Move the prime factors of x below min(sqrt(x), 2**20) into factors and
    return the cofactor. The sieve grows a segment at a time, and only while
    the cofactor may have a prime factor beyond the primes sieved so far."""
    limit, primes = _sieve
    done = 0
    # isqrt(x) >= 2**20 exactly when x >= 2**40, so bound is min(isqrt(x), 2**20)
    bound = math.isqrt(x) if x < _TRIAL_LIMIT_SQUARED else _TRIAL_LIMIT
    while True:
        if done == len(primes):
            if limit >= _TRIAL_LIMIT or limit * limit > x:
                return x
            limit, primes = _grow()
        if x >= _LONG:
            # One long remainder by a block's product, then short ones per
            # prime. Stripping a prime changes no other prime's divisibility,
            # so the remainder serves the whole block.
            block = primes[done : done + _BLOCK]
            r = x % math.prod(block)
        else:
            block, r = primes[done:], x
        done += len(block)
        for p in block:
            if p > bound:
                return x
            if r % p == 0:
                x //= p
                if x % p:  # exponent 1, the common case, without a call
                    factors[p] = 1
                else:
                    e, x = _strip(x, p)
                    factors[p] = e + 1
                bound = math.isqrt(x) if x < _TRIAL_LIMIT_SQUARED else _TRIAL_LIMIT


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, in integers: Newton's method from above."""
    if k == 2:
        return math.isqrt(m)
    r = 1 << -(-m.bit_length() // k)  # 2**ceil(bits/k) > m ** (1/k)
    while True:
        y = ((k - 1) * r + m // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def _perfect_root(m: int) -> int | None:
    """r with r**k == m for some prime k, or None. Every prime factor of m is
    above 2**20, so m > 2**(20k) and only k <= m.bit_length() // 20 can hold."""
    bound = m.bit_length() // 20
    limit, primes = _sieve
    while limit <= bound:
        limit, primes = _grow()
    for k in itertools.takewhile(lambda p: p <= bound, primes):
        r = _iroot(m, k)
        if r**k == m:
            return r
    return None


def _split(x: int, factors: dict[int, int]) -> None:
    """Move the prime factors of x, all of them above 2**20, into factors.

    Miller-Rabin tells a prime, an integer k-th root takes a perfect power
    apart, and Pollard rho splits any other composite; rho alone would need
    about sqrt(p) steps on a power of a prime p. Each prime found leaves x
    with its whole exponent, so the rest of its power never goes back to rho.
    """
    stack = [x]
    while x > 1:
        # Each prime left in x divides some stack entry; the gcd drops the
        # primes already stripped.
        m = math.gcd(stack.pop(), x)
        if m == 1:
            continue
        if m < _TRIAL_LIMIT_SQUARED or is_prime(m):
            factors[m], x = _strip(x, m)
        elif (r := _perfect_root(m)) is not None:
            stack.append(r)
        else:
            d = _pollard_rho(m)
            stack += sorted((d, m // d), reverse=True)  # smaller part first


@functools.lru_cache(maxsize=256)
def factorize(x: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of x >= 1; factorize(1) is empty.

    Trial division by the sieved primes, grown on demand up to 2**20, then
    Miller-Rabin and Pollard rho on whatever remains, so smooth inputs are
    fast and adversarial ones still terminate. Each prime found, by either
    route, leaves with its whole exponent at once (repeated squaring), so a
    prime power p**e costs O(log e) big divisions. The most recent 256
    results are cached, so memory stays bounded however many elements a
    process factorizes. The cache serves a command that factorizes one set
    more than once (``analyze`` builds the exponent matrix, then
    ``is_factor_closed`` factorizes elements again); a stream of distinct
    sets never hits it, so it is kept small: an entry for an element with a
    dozen primes holds about 0.5 KB.
    """
    if x == 0:
        raise InvalidArgumentError("cannot factorize 0")
    if x < 0:
        raise InvalidArgumentError(f"cannot factorize negative {x}")
    factors: dict[int, int] = {}
    x = _trial_divide(x, factors)
    # The cofactor has no prime factor below min(sqrt(x), 2**20): below
    # 2**40 it is 1 or a prime.
    if x >= _TRIAL_LIMIT_SQUARED:
        _split(x, factors)
    elif x > 1:
        factors[x] = 1
    return tuple(sorted(factors.items()))


def divisors(x: int) -> list[int]:
    """All positive divisors of x >= 1, ascending."""
    if x == 0:
        raise InvalidArgumentError("divisors(0) is undefined")
    divs = [1]
    for p, e in factorize(x):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
