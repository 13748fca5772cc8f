"""Total nonnegativity of gcd matrices and the closed forms it unlocks.

For an ordered set S = (x_1, ..., x_n) (n >= 3), total nonnegativity of the
gcd matrix is equivalent to a triple identity on pairwise gcds and to column
monotonicity of the prime-exponent matrix. When it holds, the inverse of the
gcd matrix is symmetric tridiagonal with a closed form for its coefficients,
and the quotient of the lcm matrix by the gcd matrix is an explicit integer
matrix, no linear solve required.

Throughout, (i, j) written in formulas means gcd(x_i, x_j) with 1-based
indices, matching the usual mathematical notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from typing import Iterable

from .errors import (
    IndexOrderError,
    InternalConsistencyError,
    InvalidArgumentError,
    NotTnError,
    SingularDenominatorError,
    SizeTooSmallError,
)
from .exactmatrix import ExactMatrix, all_minors_nonnegative, gcd_matrix
from .setmodel import OrderedSet, is_column_monotone, pow_matrix

METHOD_TRIPLE = "TripleIdentity"
METHOD_MONOTONE = "ColumnMonotone"
METHOD_MINORS = "ExhaustiveMinors"


@dataclass(frozen=True)
class TnVerdict:
    """Outcome of a total-nonnegativity check.

    witness, present iff is_tn is false, is the first violating triple of
    1-based indices (i, j, k).
    """

    is_tn: bool
    method: str
    witness: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_tn

    def to_json_dict(self) -> dict:
        return {
            "is_tn": self.is_tn,
            "method": self.method,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class QuadrupleReport:
    """Outcome of the four-index gcd identity sweep; truthiness is the verdict."""

    holds: bool
    violation: tuple[int, int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class TridiagonalInverse:
    """Coefficients of the tridiagonal inverse of a TN gcd matrix.

    sub_super holds a_2..a_n (the shared sub/superdiagonal), diagonal holds
    b_1..b_n. The assembled matrix is symmetric tridiagonal.
    """

    sub_super: tuple[Fraction, ...]
    diagonal: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.sub_super) != len(self.diagonal) - 1:
            raise InternalConsistencyError("coefficient vector lengths are inconsistent")
        if any(a == 0 for a in self.sub_super):
            raise InternalConsistencyError("superdiagonal coefficients must be nonzero")

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def as_matrix(self) -> ExactMatrix:
        n = self.n
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = self.diagonal[i]
        for i, a in enumerate(self.sub_super):
            rows[i][i + 1] = a
            rows[i + 1][i] = a
        return ExactMatrix(rows)


def check_tn_triple(s: OrderedSet | Iterable[int]) -> TnVerdict:
    """Decide total nonnegativity of the gcd matrix via the triple identity.

    For every 1 <= i <= j <= k <= n the identity (i,j)*(j,k) = x_j*(i,k) must
    hold; equivalently (i,k) = gcd(x_i, x_j, x_k) and x_j*(i,k) | x_i*x_k,
    which is validated alongside. The first failing triple is the witness.
    Sets with fewer than three elements are decided by exhaustive minors
    (they are always totally nonnegative).
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n < 3:
        report = all_minors_nonnegative(gcd_matrix(s))
        return TnVerdict(report.all_nonnegative, METHOD_MINORS)
    x = s.elements
    for i in range(n):
        for j in range(i, n):
            gij = _gcd(x[i], x[j])
            for k in range(j, n):
                gik = _gcd(x[i], x[k])
                product_identity = gij * _gcd(x[j], x[k]) == x[j] * gik
                triple_gcd = gik == _gcd(gij, x[k])
                divides = (x[i] * x[k]) % (x[j] * gik) == 0
                if not (product_identity and triple_gcd and divides):
                    return TnVerdict(False, METHOD_TRIPLE, (i + 1, j + 1, k + 1))
    return TnVerdict(True, METHOD_TRIPLE)


def check_tn_monotone(s: OrderedSet | Iterable[int]) -> TnVerdict:
    """Decide total nonnegativity via column monotonicity of the exponent matrix.

    A non-monotone column yields a violating triple: with b the first strict
    change against the column's initial direction, the rows (a, b, b+1) around
    it violate the triple identity as well.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n < 3:
        report = all_minors_nonnegative(gcd_matrix(s))
        return TnVerdict(report.all_nonnegative, METHOD_MINORS)
    exponents = pow_matrix(s).exponents
    for col in zip(*exponents):
        steps = [(i, (col[i] < col[i + 1]) - (col[i] > col[i + 1])) for i in range(n - 1)]
        changes = [(i, d) for i, d in steps if d != 0]
        for (a, first), (b, later) in zip(changes, changes[1:]):
            if later != first:
                return TnVerdict(False, METHOD_MONOTONE, (a + 1, b + 1, b + 2))
    return TnVerdict(True, METHOD_MONOTONE)


def _require_tn(s: OrderedSet, verdict: TnVerdict | None) -> TnVerdict:
    if verdict is None:
        verdict = check_tn_triple(s)
    if not verdict.is_tn:
        raise NotTnError(f"gcd matrix of {s!r} is not totally nonnegative: {verdict}")
    return verdict


def check_quadruple_identity(
    s: OrderedSet | Iterable[int], verdict: TnVerdict | None = None
) -> QuadrupleReport:
    """Verify (i,k)*(j,l) = (i,l)*(j,k) for all 1 <= i <= j <= k <= l <= n.

    Requires a totally nonnegative set. The two-index specialization
    (i,j)*(1,n) = (1,j)*(i,n) is re-checked explicitly for every i <= j.
    Violations are reported as the first failing quadruple.
    """
    s = OrderedSet.coerce(s)
    _require_tn(s, verdict)
    x = s.elements
    n = len(x)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for l in range(k, n):
                    if _gcd(x[i], x[k]) * _gcd(x[j], x[l]) != _gcd(x[i], x[l]) * _gcd(x[j], x[k]):
                        return QuadrupleReport(False, (i + 1, j + 1, k + 1, l + 1))
    g1n = _gcd(x[0], x[n - 1])
    for i in range(n):
        for j in range(i, n):
            if _gcd(x[i], x[j]) * g1n != _gcd(x[0], x[j]) * _gcd(x[i], x[n - 1]):
                return QuadrupleReport(False, (1, i + 1, j + 1, n))
    return QuadrupleReport(True)


def lcm_from_gcds(
    s: OrderedSet | Iterable[int], i: int, j: int, verdict: TnVerdict | None = None
) -> int:
    """lcm(x_i, x_j) computed as (1,i)*(j,n) / (1,n), valid on TN sets.

    Indices are 1-based with i <= j.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if not 1 <= i <= n or not 1 <= j <= n:
        raise InvalidArgumentError(f"indices ({i}, {j}) out of range 1..{n}")
    if i > j:
        raise IndexOrderError(f"need i <= j, got ({i}, {j})")
    _require_tn(s, verdict)
    x = s.elements
    numerator = _gcd(x[0], x[i - 1]) * _gcd(x[j - 1], x[n - 1])
    g1n = _gcd(x[0], x[n - 1])
    if numerator % g1n:
        raise InternalConsistencyError(
            f"closed-form lcm is not an integer for ({i}, {j}) on {s!r}"
        )
    return numerator // g1n


def tridiagonal_inverse(
    s: OrderedSet | Iterable[int], verdict: TnVerdict | None = None
) -> TridiagonalInverse:
    """Closed-form inverse coefficients of a TN gcd matrix (n >= 3).

    With (i,j) = gcd(x_i, x_j):

        a_{i+1} = (1,n) / ((i,n)*(1,i+1) - (i+1,n)*(1,i))      1 <= i <= n-1
        b_1     = -(2,n)/(1,n) * a_2
        b_i     = -((i-1,n)*(1,i+1) - (i+1,n)*(1,i-1))/(1,n) * a_i * a_{i+1}
        b_n     = -(1,n-1)/(1,n) * a_n

    The assembled symmetric tridiagonal matrix times the gcd matrix is the
    identity, exactly.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n < 3:
        raise SizeTooSmallError(f"tridiagonal inverse needs n >= 3, got n = {n}")
    _require_tn(s, verdict)
    x = s.elements

    def g(i: int, j: int) -> int:
        return _gcd(x[i - 1], x[j - 1])

    g1n = g(1, n)
    a: list[Fraction] = []  # a[i-1] holds a_{i+1}
    for i in range(1, n):
        denom = g(i, n) * g(1, i + 1) - g(i + 1, n) * g(1, i)
        if denom == 0:
            raise SingularDenominatorError(
                f"vanishing denominator at position {i + 1} for {s!r}"
            )
        a.append(Fraction(g1n, denom))
    b = [-Fraction(g(2, n), g1n) * a[0]]
    for i in range(2, n):
        factor = g(i - 1, n) * g(1, i + 1) - g(i + 1, n) * g(1, i - 1)
        b.append(-Fraction(factor, g1n) * a[i - 2] * a[i - 1])
    b.append(-Fraction(g(1, n - 1), g1n) * a[n - 2])
    return TridiagonalInverse(tuple(a), tuple(b))


def quotient_closed_form(
    s: OrderedSet | Iterable[int], verdict: TnVerdict | None = None
) -> ExactMatrix:
    """The integer quotient U with U * gcd_matrix = lcm_matrix, entrywise (n >= 3).

    For a TN set the quotient of the lcm matrix by the gcd matrix has at most
    three nonzero entries per row:

        U[i][i] = -1                    i != 1, n
        U[2][1] = x_2 / (1,2)
        U[i][1] = (i,n) / (1,n)         i != 1, 2
        U[n-1][n] = x_{n-1} / (n-1,n)
        U[i][n] = (1,i) / (1,n)         i != n, n-1

    and zero elsewhere. Every division is exact; a remainder means the input
    was not TN after all (or a bug) and raises.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n < 3:
        raise SizeTooSmallError(f"closed-form quotient needs n >= 3, got n = {n}")
    _require_tn(s, verdict)
    x = s.elements

    def g(i: int, j: int) -> int:
        return _gcd(x[i - 1], x[j - 1])

    def exact(num: int, den: int, where: str) -> int:
        if num % den:
            raise InternalConsistencyError(f"non-integer quotient entry at {where}: {num}/{den}")
        return num // den

    g1n = g(1, n)
    rows = [[0] * n for _ in range(n)]
    for i in range(2, n):
        rows[i - 1][i - 1] = -1
    rows[1][0] = exact(x[1], g(1, 2), "(2,1)")
    for i in range(3, n + 1):
        rows[i - 1][0] = exact(g(i, n), g1n, f"({i},1)")
    rows[n - 2][n - 1] = exact(x[n - 2], g(n - 1, n), f"({n - 1},{n})")
    for i in range(1, n - 1):
        rows[i - 1][n - 1] = exact(g(1, i), g1n, f"({i},{n})")
    return ExactMatrix(rows)
