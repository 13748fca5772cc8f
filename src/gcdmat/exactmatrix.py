"""Dense exact-rational matrices: gcd/lcm matrices, determinants, solves.

Entries are ``fractions.Fraction`` (integers included as denominator-1
fractions), so every operation here is exact; there is no floating point
anywhere in this module.

Determinants, minors, positive definiteness (one pass) and the solve share
one fraction-free integer elimination (Bareiss); only solve outputs become
fractions again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from typing import Iterable, Iterator

from . import numtheory
from .errors import (
    DimensionMismatchError,
    NotSquareError,
    NotSymmetricError,
    SingularMatrixError,
    TooLargeForExhaustiveMinorsError,
)
from .setmodel import OrderedSet

DEFAULT_MINOR_CAP = 8

Entry = int | Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact matrix entry")


class ExactMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Iterable[Entry]]):
        rows = tuple(tuple(_as_fraction(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionMismatchError("ragged rows in matrix literal")
        self._entries = rows

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._entries)

    @property
    def cols(self) -> int:
        return len(self._entries[0])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i]

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"ExactMatrix({[[str(e) for e in row] for row in self._entries]})"

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        rhs_cols = list(zip(*other._entries))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in rhs_cols] for row in self._entries]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self._entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._entries[i][j] == self._entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self._entries for e in row)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        """Submatrix from 0-based row and column index lists."""
        cols = tuple(col_idx)
        return ExactMatrix([[self._entries[i][j] for j in cols] for i in row_idx])


def gcd_matrix(s: OrderedSet | Iterable[int]) -> ExactMatrix:
    """Symmetric matrix with entry (i, j) = gcd(x_i, x_j)."""
    s = OrderedSet.coerce(s)
    return ExactMatrix([[_gcd(a, b) for b in s] for a in s])


def lcm_matrix(s: OrderedSet | Iterable[int]) -> ExactMatrix:
    """Symmetric matrix with entry (i, j) = lcm(x_i, x_j)."""
    s = OrderedSet.coerce(s)
    return ExactMatrix([[numtheory.lcm(a, b) for b in s] for a in s])


def _integer_rows_and_scale(rows: Iterable[tuple[Fraction, ...]]) -> tuple[list[list[int]], int]:
    """Clear denominators row by row; returns integer rows and the product of
    the per-row multipliers, so det(rows) = det(int rows) / scale. Every
    multiplier is positive, so each leading principal minor keeps its sign."""
    scale = 1
    int_rows = []
    for row in rows:
        mult = 1
        for e in row:
            mult = mult // _gcd(mult, e.denominator) * e.denominator
        scale *= mult
        int_rows.append([e.numerator * (mult // e.denominator) for e in row])
    return int_rows, scale


def _bareiss(rows: list[list[int]], n: int) -> tuple[list[int], bool]:
    """Fraction-free (Bareiss) elimination, in place, on the first n columns
    of n integer rows; columns past n ride along as right-hand sides.

    Returns the pivots and whether a row swap occurred. A swap negates the
    incoming row, so the last pivot is the determinant; with no swap pivot k
    is the leading (k+1)x(k+1) minor. A column left without a nonzero entry
    ends the pass with a final pivot of 0."""
    pivots, swapped, prev = [], False, 1
    width = len(rows[0])
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                pivots.append(0)
                return pivots, swapped
            rows[k], rows[swap] = [-e for e in rows[swap]], rows[k]
            swapped = True
        row_k, pivot = rows[k], rows[k][k]
        for row_i in rows[k + 1:n]:
            head = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        pivots.append(pivot)
        prev = pivot
    return pivots, swapped


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant: the last Bareiss pivot after clearing denominators."""
    if not m.is_square():
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    int_rows, scale = _integer_rows_and_scale(m)
    return Fraction(_bareiss(int_rows, m.rows)[0][-1], scale)


@dataclass(frozen=True)
class MinorsReport:
    """Result of exhaustive minor enumeration; truthiness is the verdict.

    On failure the witness holds the 1-based row and column index sets of the
    first negative minor (smallest size first, then lexicographic) and its
    determinant value.
    """

    all_nonnegative: bool
    witness_rows: tuple[int, ...] | None = None
    witness_cols: tuple[int, ...] | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.all_nonnegative


def all_minors_nonnegative(m: ExactMatrix, size_cap: int = DEFAULT_MINOR_CAP) -> MinorsReport:
    """Check every square submatrix determinant for nonnegativity.

    Exponential in the matrix order, so orders above size_cap are refused;
    this is an oracle, not a production path.
    """
    if not m.is_square():
        raise NotSquareError(f"minor check needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n > size_cap:
        raise TooLargeForExhaustiveMinorsError(
            f"order {n} exceeds the exhaustive-minor cap {size_cap}"
        )
    int_rows, scale = _integer_rows_and_scale(m)
    # scale > 0, so the sign of each integer minor matches the rational one
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[int_rows[i][j] for j in cols] for i in rows]
                if _bareiss(sub, size)[0][-1] < 0:
                    value = determinant(m.submatrix(rows, cols))
                    witness = tuple(i + 1 for i in rows), tuple(j + 1 for j in cols)
                    return MinorsReport(False, *witness, value)
    return MinorsReport(True)


def solve_right(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve X * a = b exactly for X (a square and nonsingular).

    Row r of X solves a^T x = b[r]: one Bareiss pass on the integer rows of
    [a^T | b^T], then fraction-free back-substitution gives y = det * x."""
    if not a.is_square():
        raise DimensionMismatchError(f"coefficient matrix must be square, got {a.rows}x{a.cols}")
    if b.cols != a.rows:
        raise DimensionMismatchError(
            f"cannot solve X*a=b with a {a.rows}x{a.cols} and b {b.rows}x{b.cols}"
        )
    n = a.rows
    work, _ = _integer_rows_and_scale(zip(*a, *b))
    d = _bareiss(work, n)[0][-1]
    if d == 0:
        raise SingularMatrixError(f"matrix is singular (rank below {n})")
    solution = []
    for c in range(n, n + b.rows):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = work[i]
            y[i] = (d * row[c] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        solution.append([Fraction(v, d) for v in y])
    return ExactMatrix(solution)


def is_positive_definite(m: ExactMatrix) -> bool:
    """All leading principal minors strictly positive (symmetric input only):
    one Bareiss pass with no row swap (a swap means a leading minor is 0)."""
    if not m.is_square():
        raise NotSquareError(f"positive definiteness needs a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise NotSymmetricError("positive definiteness is only checked for symmetric matrices")
    int_rows, _ = _integer_rows_and_scale(m)
    pivots, swapped = _bareiss(int_rows, m.rows)
    return not swapped and all(p > 0 for p in pivots)
