"""Divisibility of lcm matrices by gcd matrices over the integer matrix ring.

A divides B over the n x n integers when B = A*C or B = C*A for some integer
matrix C. Both matrices here are symmetric, so left and right divisibility
coincide: the stored witness is the right quotient C with C * gcd = lcm, and
its transpose witnesses the left side.

The quotient does not change when the set is scaled. For g >= 1,
gcd(g*a, g*b) = g*gcd(a, b) and lcm(g*a, g*b) = g*lcm(a, b), so the gcd and
lcm matrices of g*S are g times those of S, and C = L * G^-1 is the same
matrix for both. divide_oracle therefore solves on S/gcd(S), whose integers,
and whose elimination's minors, are shorter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from . import numtheory
from .errors import InvalidArgumentError, NotTnError
from .exactmatrix import ExactMatrix, gcd_matrix, integral_solve_right, lcm_matrix
from .setmodel import OrderedSet, is_gcd_closed
from .tncore import quotient_closed_form, single_pair_identities_hold

METHOD_ORACLE = "oracle"
METHOD_CLOSED_FORM = "closed-form"


class DivisibilityReport(NamedTuple):
    """Verdict on gcd-matrix | lcm-matrix with witness or counterexample.

    When divides is true, witness is the integer matrix C with
    C * gcd_matrix = lcm_matrix; both matrices are symmetric, so C's
    transpose is the left quotient and one verdict covers both sides.
    Otherwise violation is the first non-integral quotient entry in row-major
    order as (row, col, value) with 1-based indices.
    """

    divides: bool
    witness: ExactMatrix | None = None
    violation: tuple[int, int, Fraction] | None = None
    method: str = METHOD_ORACLE

    def __bool__(self) -> bool:
        return self.divides


def divide_oracle(s: OrderedSet | Iterable[int]) -> DivisibilityReport:
    """Decide divisibility by solving C * gcd_matrix = lcm_matrix exactly.

    Works for any ordered set: the gcd matrix is positive definite, hence
    invertible. divides is true iff every entry of C is an integer. The rows
    of C are solved in order on the gcd matrix's LU, and the solve stops
    after the first row with a non-integral entry, which is the violation.

    The solve runs on the primitive set S/g, with g = gcd(S): G(S) = g*G(S/g)
    and L(S) = g*L(S/g), because gcd and lcm commute with scaling by g, so
    C = L(S) * G(S)^-1 = L(S/g) * G(S/g)^-1. Dividing distinct positive
    ints by a common divisor leaves distinct positive ints, so the reduced
    set needs no second validation.
    """
    s = OrderedSet.coerce(s)
    g = gcd(*s.elements)
    if g > 1:
        s = OrderedSet._built(tuple([x // g for x in s.elements]))
    witness, violation = integral_solve_right(gcd_matrix(s), lcm_matrix(s))
    if witness is None:
        return DivisibilityReport(False, violation=violation)
    return DivisibilityReport(True, witness=witness)


def divide(s: OrderedSet | Iterable[int]) -> DivisibilityReport:
    """Decide divisibility by the cheapest exact path.

    A TN set divides by the paper's theorem and gets the closed-form quotient
    with no linear solve (method "closed-form"); every other set goes to the
    oracle. This is the one place that chooses between the two.
    """
    s = OrderedSet.coerce(s)
    try:
        witness = quotient_closed_form(s)
    except NotTnError:
        return divide_oracle(s)
    return DivisibilityReport(True, witness=witness, method=METHOD_CLOSED_FORM)


def _gcd_closed_candidates(n: int, element_bound: int):
    """Deterministic stream of gcd-closed candidate sets of size n.

    Seeds m = 1, 2, ... up to the element bound are treated as divisor
    lattices: for each m, every ascending n-subset of divisors(m) with maximum
    m is yielded (lexicographic order) if it is gcd-closed, as the
    OrderedSet that was validated once for the gcd-closure check. Each such
    set appears for exactly one seed, so the stream is duplicate-free; sets
    whose elements do not all divide their maximum are out of this
    enumeration's reach by design.
    """
    for m in range(1, element_bound + 1):
        divs = numtheory.divisors(m)[:-1]
        if len(divs) < n - 1:
            continue
        for lower in itertools.combinations(divs, n - 1):
            candidate = OrderedSet(lower + (m,))
            if is_gcd_closed(candidate):
                yield candidate


def search_gcd_closed_nondivisor(
    n: int, element_bound: int, budget: int
) -> OrderedSet | None:
    """First gcd-closed set of size n (elements <= element_bound) that fails
    divisibility, or None when the enumeration or the budget is exhausted.

    The budget counts candidate sets decided, so runs are reproducible: the
    result only depends on (n, element_bound, budget). Candidates whose gcd
    matrix is TN divide by the paper's theorem and skip the oracle; the TN
    check costs O(n) gcds, a few percent of an oracle call. For n <= 3 every
    candidate is TN, so a search there never calls the oracle.
    """
    if n < 1:
        raise InvalidArgumentError(f"set size must be >= 1, got {n}")
    if budget < 1:
        raise InvalidArgumentError(f"budget must be >= 1, got {budget}")
    tested = 0
    for candidate in _gcd_closed_candidates(n, element_bound):
        if tested >= budget:
            return None
        tested += 1
        if single_pair_identities_hold(candidate):
            continue
        if not divide_oracle(candidate).divides:
            return candidate
    return None
