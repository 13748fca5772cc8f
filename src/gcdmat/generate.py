"""Named exponent-matrix patterns and a seeded generator for random ones.

All randomness flows through SplitMix64 so that a single 64-bit seed fully
determines every generated set, independent of platform or interpreter, and
random matrices are built to meet their request, never drawn and rejected.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .errors import InvalidArgumentError, excerpt
from .numtheory import first_primes
from .setmodel import ExponentMatrix, OrderedSet, reconstruct

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator with the standard constants.

    next_u64: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31), all modulo 2**64.

    Derived draws are defined exactly so results are portable: below(n) is
    next_u64() % n, randint(a, b) is a + below(b - a + 1), and shuffle is a
    Fisher-Yates pass from the last index down using below.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        if n < 1:
            raise InvalidArgumentError(f"below() needs n >= 1, got {n}")
        return self.next_u64() % n

    def randint(self, a: int, b: int) -> int:
        """Draw in the closed range [a, b]."""
        if a > b:
            raise InvalidArgumentError(f"empty range [{a}, {b}]")
        return a + self.below(b - a + 1)

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def pascal_exponents(n: int) -> list[list[int]]:
    """Rows of the symmetric Pascal matrix: entry (i, j) = C(i+j, i)."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    rows = [[1] * n]
    for _ in range(n - 1):
        prev = rows[-1]
        row = [1]
        for j in range(1, n):
            row.append(row[-1] + prev[j])
        rows.append(row)
    return rows


def vandermonde_exponents(bases: Sequence[int]) -> list[list[int]]:
    """Rows of the Vandermonde matrix: row i = (1, b_i, b_i**2, ...)."""
    if not bases:
        raise InvalidArgumentError("need at least one base")
    if any(b < 1 for b in bases):
        raise InvalidArgumentError(f"bases must be positive, got {excerpt(list(bases))}")
    n = len(bases)
    return [[b**j for j in range(n)] for b in bases]


def pascal_matrix(n: int, primes: Sequence[int] | None = None) -> ExponentMatrix:
    """The symmetric Pascal matrix over primes (default: the first n)."""
    primes = tuple(primes) if primes is not None else first_primes(n)
    return ExponentMatrix(primes, pascal_exponents(n))


def vandermonde_matrix(bases: Sequence[int], primes: Sequence[int] | None = None) -> ExponentMatrix:
    """The Vandermonde matrix of bases over primes (default: the first len(bases)).
    The bases are checked before any prime is sieved."""
    exponents = vandermonde_exponents(bases)
    primes = tuple(primes) if primes is not None else first_primes(len(bases))
    return ExponentMatrix(primes, exponents)


def pascal_set(n: int, primes: Sequence[int] | None = None) -> OrderedSet:
    """Ordered set whose exponent matrix is the symmetric Pascal matrix."""
    return reconstruct(pascal_matrix(n, primes))


def vandermonde_set(bases: Sequence[int], primes: Sequence[int] | None = None) -> OrderedSet:
    """Ordered set whose exponent matrix is the Vandermonde matrix of bases."""
    return reconstruct(vandermonde_matrix(bases, primes))


def random_monotone_exponents(
    rng: SplitMix64, n: int, max_exp: int = 6, max_primes: int = 4
) -> ExponentMatrix:
    """Draw a random column-monotone exponent matrix over the first k primes.

    A column in [0, max_exp] changes value at most max_exp times going down,
    and consecutive distinct rows differ somewhere, so an n above
    max_primes * max_exp + 1 is refused before any draw. Any other n takes one
    draw: k = randint(max(1, ceil((n - 1) / max_exp)), max_primes); each gap
    between consecutive rows goes to a column (choice) that has risen fewer
    than max_exp times, and it rises by one there, so rows are distinct; on
    top of its r rises a column adds n sorted below(max_exp + 1 - r);
    below(2) == 1 flips its values (e -> max_exp - e); a column left all zero
    is dropped. A draw costs O(n * k). Every valid matrix can be drawn: flip
    its falling columns and give each gap to a column that rises there.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    if max_exp < 1 or max_primes < 1:
        raise InvalidArgumentError("max_exp and max_primes must be >= 1")
    if n > max_primes * max_exp + 1:
        raise InvalidArgumentError(
            f"no column-monotone matrix with max_exp={max_exp}, max_primes={max_primes} "
            f"has {n} distinct rows (at most {max_primes * max_exp + 1})"
        )
    k = rng.randint(max(1, -(-(n - 1) // max_exp)), max_primes)
    room = [max_exp] * k  # rises each column may still take
    risers = []  # risers[i]: the column that rises between rows i and i + 1
    for _ in range(n - 1):
        j = rng.choice([c for c in range(k) if room[c]])
        room[j] -= 1
        risers.append(j)
    columns = []
    for j in range(k):
        base = sorted(rng.below(room[j] + 1) for _ in range(n))
        col = [e + r for e, r in zip(base, accumulate((c == j for c in risers), initial=0))]
        col = [max_exp - e for e in col] if rng.below(2) else col
        if any(col):
            columns.append(col)
    rows = [[col[i] for col in columns] for i in range(n)]
    return ExponentMatrix(first_primes(len(columns)), rows)


def random_monotone_set(
    rng: SplitMix64, n: int, max_exp: int = 6, max_primes: int = 4
) -> OrderedSet:
    """Random ordered set whose gcd matrix is totally nonnegative."""
    return reconstruct(random_monotone_exponents(rng, n, max_exp, max_primes))
