"""Ordered sets of distinct positive integers and their prime-exponent matrices.

An ``OrderedSet`` is an ordered list of distinct positive integers; order is
significant, so two sets with the same elements in different orders are not
equal. Its ``ExponentMatrix`` holds one row of prime exponents per element,
over the sorted primes dividing the product of the elements.

``find_monotone_order`` finds a reordering that makes every exponent column
monotone, if one exists, from O(n) gcds and without factorizing: such an
order is unique up to reversal, and sorting the elements by lcm/gcd from an
end element recovers it.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import numtheory
from .errors import InvalidArgumentError, InvalidSetError, excerpt


def _first_repeat(items: Sequence) -> object:
    """The first item equal to an earlier one, or None."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


class OrderedSet:
    """Ordered list of distinct positive integers."""

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[int]):
        elems = tuple(elements)
        if not elems:
            raise InvalidSetError("an ordered set needs at least one element")
        for x in elems:
            # a plain int skips the isinstance calls
            if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                raise InvalidSetError(f"element {excerpt(x)} is not an integer")
            if x < 1:
                raise InvalidSetError(f"element {excerpt(x)} is not positive")
        if len(set(elems)) != len(elems):
            repeat = excerpt(_first_repeat(elems))
            raise InvalidSetError(f"elements are not pairwise distinct: {repeat} repeats")
        self._elements = elems

    @classmethod
    def _built(cls, elements: tuple[int, ...]) -> "OrderedSet":
        """A set of elements the package built, taken as they are.

        elements is a nonempty tuple of distinct positive ints, such as a
        valid set's elements divided by a common divisor; nothing is checked
        or copied."""
        s = object.__new__(cls)
        s._elements = elements
        return s

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __getitem__(self, i: int) -> int:
        return self._elements[i]

    def __contains__(self, x: object) -> bool:
        return x in self._elements

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrderedSet) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"OrderedSet({list(self._elements)})"

    @classmethod
    def coerce(cls, value: "OrderedSet | Iterable[int]") -> "OrderedSet":
        return value if isinstance(value, OrderedSet) else cls(value)

    def permute(self, image: Sequence[int]) -> "OrderedSet":
        """Apply a permutation given as a 1-based image list [s(1), ..., s(n)]."""
        if sorted(image) != list(range(1, len(self) + 1)):
            raise InvalidSetError(f"{list(image)} is not a permutation of 1..{len(self)}")
        return OrderedSet(self._elements[i - 1] for i in image)


class ExponentMatrix:
    """n x k matrix of prime exponents plus its ordered prime list.

    Every column must have a nonzero entry (each prime divides some element),
    primes must be strictly increasing and actually prime, and rows must be
    pairwise distinct so reconstruction yields distinct elements.
    """

    __slots__ = ("_primes", "_exponents")

    def __init__(self, primes: Iterable[int], exponents: Iterable[Iterable[int]]):
        primes = tuple(primes)
        rows = tuple(tuple(row) for row in exponents)
        for a, b in zip(primes, primes[1:]):
            if a >= b:
                raise InvalidSetError(
                    f"primes not strictly increasing: {excerpt(a)} >= {excerpt(b)}"
                )
        for p in primes:
            if not numtheory.is_prime(p):
                raise InvalidSetError(f"{excerpt(p)} is not prime")
        if not rows:
            raise InvalidSetError("exponent matrix needs at least one row")
        k = len(primes)
        for i, row in enumerate(rows, 1):
            if len(row) != k:
                raise InvalidSetError(f"row {i} has {len(row)} entries, not {k}")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise InvalidSetError(f"bad exponent {excerpt(e)}")
        if len(set(rows)) != len(rows):
            raise InvalidSetError(f"duplicate exponent rows: {excerpt(list(_first_repeat(rows)))}")
        for j in range(k):
            if all(row[j] == 0 for row in rows):
                raise InvalidSetError(f"prime {primes[j]} divides no element (zero column)")
        self._primes = primes
        self._exponents = rows

    @property
    def primes(self) -> tuple[int, ...]:
        return self._primes

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return self._exponents

    @property
    def n(self) -> int:
        return len(self._exponents)

    @property
    def k(self) -> int:
        return len(self._primes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExponentMatrix)
            and self._primes == other._primes
            and self._exponents == other._exponents
        )

    def __hash__(self) -> int:
        return hash((self._primes, self._exponents))

    def __repr__(self) -> str:
        return f"ExponentMatrix(primes={list(self._primes)}, exponents={[list(r) for r in self._exponents]})"


class ColumnMonotoneReport(NamedTuple):
    """Per-column monotonicity verdict; truthiness is the overall answer.

    Directions are "up", "down", "constant", or "none" for a column that is
    neither non-decreasing nor non-increasing.
    """

    monotone: bool
    directions: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.monotone


def _column_direction(col: Sequence[int]) -> str:
    up = all(a <= b for a, b in zip(col, col[1:]))
    down = all(a >= b for a, b in zip(col, col[1:]))
    if up and down:
        return "constant"
    if up:
        return "up"
    if down:
        return "down"
    return "none"


def pow_matrix(s: OrderedSet | Iterable[int]) -> ExponentMatrix:
    """Prime-exponent matrix of an ordered set, primes ascending."""
    s = OrderedSet.coerce(s)
    factorizations = [dict(numtheory.factorize(x)) for x in s]
    primes = sorted(set().union(*factorizations)) if factorizations else []
    rows = [[f.get(p, 0) for p in primes] for f in factorizations]
    return ExponentMatrix(primes, rows)


def is_column_monotone(m: ExponentMatrix) -> ColumnMonotoneReport:
    """Whether every column is non-decreasing or non-increasing."""
    cols = list(zip(*m.exponents)) if m.k else []
    directions = tuple(_column_direction(col) for col in cols)
    return ColumnMonotoneReport("none" not in directions, directions)


def find_monotone_order(s: OrderedSet | Iterable[int]) -> tuple[int, ...] | None:
    """Search for a reordering that makes the exponent matrix column monotone.

    Returns the 1-based image list of the permutation, or None when no
    reordering works; of the two valid permutations (an order and its
    reverse) the lexicographically smaller image list is returned.

    O(n) gcds and no factorization. Let d(u, v) = lcm(u, v)/gcd(u, v), the
    product of p^|e_p(u) - e_p(v)| over the primes p. Per prime,
    |e_p(u) - e_p(w)| <= |e_p(u) - e_p(v)| + |e_p(v) - e_p(w)|, with equality
    exactly when e_p(v) lies between e_p(u) and e_p(w); so
    d(u, w) = d(u, v) * d(v, w) iff v lies between u and w in every column.
    In a column-monotone order every element lies between any two on either
    side of it, so d strictly increases along the order away from any
    element (d > 1 between distinct elements). Hence the element farthest
    from x_1 is an end, the order is unique up to reversal, and sorting by d
    from that end recovers it. The candidate o_1, ..., o_n is accepted iff
    d(o_1, o_{j+1}) = d(o_1, o_j) * d(o_j, o_{j+1}) for every j: then each
    o_j lies between o_1 and o_{j+1} in every column, so no column turns
    back, and an unorderable set yields None.
    """
    s = OrderedSet.coerce(s)
    from_first = [_lcm_over_gcd(s[0], x) for x in s]
    end = s[from_first.index(max(from_first))]
    from_end = [_lcm_over_gcd(end, x) for x in s]
    order = sorted(range(len(s)), key=from_end.__getitem__)
    for i, j in zip(order, order[1:]):
        if from_end[j] != from_end[i] * _lcm_over_gcd(s[i], s[j]):
            return None
    image = tuple(i + 1 for i in order)
    return min(image, image[::-1])


def _lcm_over_gcd(u: int, v: int) -> int:
    g = gcd(u, v)
    return (u // g) * (v // g)


def is_gcd_closed(s: OrderedSet | Iterable[int]) -> bool:
    """True when every pairwise gcd is itself a member."""
    x = OrderedSet.coerce(s).elements
    return all(map(set(x).__contains__, itertools.starmap(gcd, itertools.combinations(x, 2))))


def is_factor_closed(s: OrderedSet | Iterable[int]) -> bool:
    """True when every divisor of every member is a member.

    A member with more divisors than the set has members settles the answer
    before any divisor is listed: a squarefree member with k prime factors
    has 2^k divisors.
    """
    s = OrderedSet.coerce(s)
    members = set(s)
    return all(
        prod(e + 1 for _, e in numtheory.factorize(x)) <= len(s) for x in s
    ) and all(d in members for x in s for d in numtheory.divisors(x))


def greatest_type_divisors(s: OrderedSet | Iterable[int], y: int) -> list[int]:
    """Maximal proper divisors of y within s under the divisibility order.

    These are the members x < y with x | y such that no member z sits strictly
    between x and y in the divisibility order. Returned ascending.
    """
    s = OrderedSet.coerce(s)
    if y not in s:
        raise InvalidArgumentError(f"{y} is not a member of {s!r}")
    proper = [x for x in s if x < y and y % x == 0]
    return sorted(
        x
        for x in proper
        if not any(z != x and z % x == 0 and y % z == 0 for z in proper)
    )


def classify_coprime_divisor_chains(
    s: OrderedSet | Iterable[int],
) -> list[list[int]] | None:
    """Partition into pairwise-coprime divisor chains, or None if impossible.

    Such a partition exists iff every connected component under "gcd > 1" is
    totally ordered by divisibility, and then the components are the blocks.
    The elements are taken in ascending order, keeping the top of each chain
    built so far: x starts a new chain if it shares a factor with no top,
    joins the chain of t if t is the only top it shares a factor with and
    t | x, and otherwise no partition exists. Tops suffice because every
    lower element of a chain divides its top. The element 1 is coprime to
    everything and forms its own singleton block. Blocks are ordered by
    first appearance in s; each block is listed in chain (ascending) order.
    """
    s = OrderedSet.coerce(s)
    chains: list[list[int]] = []
    for x in sorted(s):
        shared = [chain for chain in chains if gcd(chain[-1], x) > 1]
        if not shared:
            chains.append([x])
        elif len(shared) == 1 and x % shared[0][-1] == 0:
            shared[0].append(x)
        else:
            return None
    position = {x: i for i, x in enumerate(s)}
    return sorted(chains, key=lambda chain: min(map(position.__getitem__, chain)))


def power_set(s: OrderedSet | Iterable[int], e: int) -> OrderedSet:
    """Elementwise e-th power, order preserved."""
    if e < 1:
        raise InvalidArgumentError(f"exponent must be >= 1, got {e}")
    s = OrderedSet.coerce(s)
    return OrderedSet(x**e for x in s)


def reconstruct(m: ExponentMatrix) -> OrderedSet:
    """The ordered set whose exponent matrix round-trips to m."""
    return OrderedSet(prod(p**e for p, e in zip(m.primes, row)) for row in m.exponents)
