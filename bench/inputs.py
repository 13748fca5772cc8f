"""Seeded input streams for the four benchmark workloads.

Nothing here imports gcdmat: a change to ``gcdmat.generate`` must not be able
to change a workload. Every stream is a pure function of the seed and keeps
warm-up inputs out of the timed set. The matrix workloads' inputs are
distinct within a run; cli_requests repeats its seven requests, each in a
fresh process, so no in-process cache sees a repeat.

Op cost grows steeply with set size (n**3 for the triple check, about n**4
for the rational solve, 2**k for the order search), so a 15-second run sees
little more than a hundred ops. Sizes therefore follow a fixed cycle whose
composition every run repeats; the seed picks the elements, not the mix,
which keeps throughput and percentiles comparable between seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count

MASK64 = (1 << 64) - 1
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the first 12 primes

# tn_reorder_closed_forms: one cycle of (n, k) shapes. The four tail shapes
# (high k, large n; 20 % of ops) cost about the same, so the 90th percentile
# sits inside that group rather than on the edge between two groups.
TN_SHAPES = (
    (30, 8), (32, 3), (60, 10), (34, 5), (36, 6),
    (38, 4), (40, 7), (56, 9), (42, 5), (44, 3),
    (46, 6), (31, 4), (48, 11), (33, 7), (35, 2),
    (37, 5), (39, 3), (40, 12), (41, 6), (43, 4),
)
TN_MAX_EXP = 30

# divide_general: one cycle of (size of a random set, size of a perturbed
# grid) pairs; ops alternate between the two halves. Percentiles are read
# inside groups of equal-cost ops, not on the edge between two groups:
# random sets of size 30 (15 % of ops) hold the 90th percentile and random
# sets of size 16 (another 15 %) the median.
DIVIDE_SIZES = (
    (10, 10), (30, 11), (12, 12), (16, 13), (30, 14),
    (16, 16), (11, 18), (30, 20), (20, 22), (16, 24),
)
DIVIDE_RANDOM_BOUND = 10**6
DIVIDE_GRID_PRIMES = 8
DIVIDE_GRID_SPAN = 12  # every grid column moves by exactly this much

# gcd_closed_census: the census seeds m form the contiguous range
# [CENSUS_START, CENSUS_START + CENSUS_BLOCKS * CENSUS_BLOCK). Op cost grows
# steeply with the number of divisors of m, so the range is sorted by that
# count and dealt into blocks: each block holds one m from each of
# CENSUS_BLOCK cost strata, and a run that covers more or fewer blocks still
# sees the same mix. Blocks are the same for every seed (so census counts
# over the first blocks repeat exactly); the seed shuffles the order inside
# each block. Warm-up uses m below the range.
CENSUS_START = 25
CENSUS_BLOCK = 17  # odd: the median rank falls inside a stratum
CENSUS_BLOCKS = 40
CENSUS_SIZES = (3, 4, 5)

# cli_requests: each cycle runs every verb once in a seeded order.
CLI_VERBS = (
    ("analyze", ["analyze", "330812181", "551353635", "7501410", "2976750",
                 "5512500000", "18750000000"]),
    ("divide_verify", ["divide", "2", "6", "12", "--verify"]),
    ("divide_nondivisor", ["divide", "1", "2", "3", "12"]),
    ("order", ["order", "81", "4000", "600", "6000", "54"]),
    ("invert", ["invert", "2", "6", "12"]),
    ("search", ["search", "--size", "4", "--bound", "300"]),
    ("generate", ["generate", "--pattern", "random", "--n", "5"]),
)
SIEVE_VERBS = frozenset({"analyze", "order", "search", "generate"})


class Rng:
    """SplitMix64; below(n) is next() % n, shuffle is Fisher-Yates from the top."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def randint(self, a: int, b: int) -> int:
        return a + self.below(b - a + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def stream_rng(seed: int, workload: str, part: str) -> Rng:
    """An independent generator per (seed, workload, part)."""
    tag = int.from_bytes(f"{workload}/{part}".encode(), "little")
    return Rng(Rng(seed ^ (tag & MASK64) ^ (tag >> 64)).next())


def element(primes, row) -> int:
    x = 1
    for p, e in zip(primes, row):
        x *= p**e
    return x


def monotone_rows(rng: Rng, n: int, k: int, max_exp: int, min_span: int = 1) -> list[tuple[int, ...]]:
    """n pairwise distinct exponent rows in which every one of the k columns
    is monotone and moves by min_span to max_exp (needs k <= n - 1 <= k * max_exp)."""
    caps = [rng.randint(min_span, max_exp) for _ in range(k)]
    while sum(caps) < n - 1:
        j = rng.below(k)
        caps[j] = min(max_exp, caps[j] + 1)
    ups = [rng.below(2) == 0 for _ in range(k)]
    bases = [rng.randint(0, (max_exp - c) // 2) for c in caps]
    first_moves = list(range(k))
    rng.shuffle(first_moves)
    level = [0] * k
    chain = [tuple(level)]
    for step in range(n - 1):
        slack = sum(caps) - sum(level) - (n - 1 - step)
        if step < k:
            moves = [first_moves[step]]
        else:
            movable = [j for j in range(k) if level[j] < caps[j]]
            moves = rng.sample(movable, 1 + min(slack, rng.below(3), len(movable) - 1))
        for j in moves:
            level[j] += 1
        chain.append(tuple(level))
    return [
        tuple(b + (lv if up else c - lv) for b, lv, up, c in zip(bases, row, ups, caps))
        for row in chain
    ]


@dataclass(frozen=True)
class GridSet:
    """A set built from a known exponent grid; rows[i] generates elements[i]."""

    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    elements: tuple[int, ...]


def _grid_set(primes, rows) -> GridSet:
    return GridSet(tuple(primes), tuple(rows), tuple(element(primes, r) for r in rows))


def tn_inputs(seed: int, part: str = "timed"):
    """Shuffled column-monotone sets; warm-up sets use smaller sizes."""
    rng = stream_rng(seed, "tn_reorder_closed_forms", part)
    for i in count():
        if part == "timed":
            n, k = TN_SHAPES[i % len(TN_SHAPES)]
        else:
            n, k = 12 + i % 5, 2 + i % 4
        primes = sorted(rng.sample(PRIMES, k))
        rows = monotone_rows(rng, n, k, TN_MAX_EXP)
        rng.shuffle(rows)
        yield _grid_set(primes, rows)


def is_tn_triple(x) -> bool:
    """Total nonnegativity by the triple identity, written from the paper's
    statement: (i,j)(j,k) = x_j (i,k) for all i <= j <= k."""
    n = len(x)
    for i in range(n):
        for j in range(i, n):
            gij = math.gcd(x[i], x[j])
            for k in range(j, n):
                if gij * math.gcd(x[j], x[k]) != x[j] * math.gcd(x[i], x[k]):
                    return False
    return True


def _perturbed_grid(rng: Rng, n: int) -> list[tuple[int, ...]]:
    """A monotone grid with its middle row's entry in one column raised just
    above that column's maximum, so the column rises and then falls: the set
    is not TN. Fixed spans and a fixed row keep op cost steady per size."""
    span = DIVIDE_GRID_SPAN
    while True:
        rows = [list(r) for r in monotone_rows(rng, n, DIVIDE_GRID_PRIMES, span, span)]
        i, j = n // 2, rng.below(DIVIDE_GRID_PRIMES)
        rows[i][j] = max(r[j] for r in rows) + 1
        rows = [tuple(r) for r in rows]
        if len(set(rows)) == n:
            return rows


def divide_inputs(seed: int, part: str = "timed"):
    """Non-TN sets: random integers and perturbed monotone grids, alternating."""
    rng = stream_rng(seed, "divide_general", part)
    seen: set[tuple[int, ...]] = set()  # random sets drawn so far
    for i in count():
        n = DIVIDE_SIZES[i // 2 % len(DIVIDE_SIZES)][i % 2] if part == "timed" else 6 + i % 4
        if i % 2 == 0:
            while True:
                picked: dict[int, None] = {}
                while len(picked) < n:
                    picked[rng.randint(2, DIVIDE_RANDOM_BOUND)] = None
                elems = tuple(picked)
                if not is_tn_triple(elems) and elems not in seen:
                    break
            seen.add(elems)
            yield elems
        else:
            yield _grid_set(sorted(rng.sample(PRIMES, DIVIDE_GRID_PRIMES)), _perturbed_grid(rng, n)).elements


def divisor_count(m: int) -> int:
    return sum(2 - (d * d == m) for d in range(1, math.isqrt(m) + 1) if m % d == 0)


@functools.cache
def _census_by_cost() -> tuple[int, ...]:
    return tuple(sorted(range(CENSUS_START, CENSUS_START + CENSUS_BLOCKS * CENSUS_BLOCK),
                        key=lambda m: (divisor_count(m), m)))


def census_block(b: int) -> list[int]:
    return list(_census_by_cost()[b::CENSUS_BLOCKS])


def census_inputs(seed: int, part: str = "timed"):
    """Census seeds m, block by block, each block in a seeded order; the
    stream ends with the range. Warm-up draws from [1, CENSUS_START)."""
    rng = stream_rng(seed, "gcd_closed_census", part)
    blocks = [list(range(1, CENSUS_START))] if part != "timed" else map(census_block, range(CENSUS_BLOCKS))
    for block in blocks:
        rng.shuffle(block)
        yield from block


@dataclass(frozen=True)
class CliRequest:
    verb: str
    argv: tuple[str, ...]


def cli_inputs(seed: int, part: str = "timed"):
    """Cycles of the README verbs, each cycle in a seeded order; generate
    takes a fresh seed from the stream every time."""
    rng = stream_rng(seed, "cli_requests", part)
    while True:
        cycle = list(CLI_VERBS)
        rng.shuffle(cycle)
        for verb, argv in cycle:
            argv = list(argv)
            if verb == "generate":
                argv += ["--seed", str(rng.below(2**32))]
            yield CliRequest(verb, tuple(argv + ["--format", "json"]))
