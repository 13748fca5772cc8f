"""Dense exact-rational matrices: gcd/lcm matrices, determinants, solves.

An integral entry is stored as an ``int`` and only a non-integral one as a
``fractions.Fraction`` (denominator above 1), so every operation here is
exact and an integer matrix holds no ``Fraction`` at all; there is no
floating point anywhere in this module. The constructor brings outside
entries to that form; rows this module built from entries already in it
(gcds, lcms, solved rows, rows of another matrix) are wrapped as they are,
as a tuple of tuples, by one private builder, ExactMatrix._built, which
checks and copies no entry. gcd_matrix and lcm_matrix compute each entry
above the diagonal once and mirror it.

Determinants, positive definiteness and the solves read one fraction-free
integer LU (Bareiss, keeping each step's multipliers and row swaps) of the
matrix's transpose, made on first use and kept with the immutable matrix.
A symmetric matrix, such as every gcd matrix, is eliminated on and above
the diagonal only, which halves the work and leaves the same LU; it
updates entry by entry in a scalar loop, which costs less than building a
list per row.
A solve replays the recorded swaps, elimination steps and back-substitution
on one right-hand side at a time: solve_right returns every row of X, and
integral_solve_right solves X one row at a time with solve_right, passing
each row of b as a one-row matrix that wraps the row as it is, and stops
after the first row that holds a non-integral entry. When the LU needed no
clearing scale, an all-int right-hand side enters the integer replay as it
is, and a solved entry that divides exactly stays an int, with no
Fraction made for it.

Total nonnegativity of a symmetric nonsingular matrix is decided by
fraction-free Neville elimination (is_totally_nonnegative), in one
polynomial pass with no enumeration of minors; the exhaustive minors are a
test oracle, not shipped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd
from math import lcm as _lcm
from operator import mul
from typing import Iterable, Iterator

from .errors import (
    DimensionMismatchError,
    NotSquareError,
    NotSymmetricError,
    SingularMatrixError,
)
from .setmodel import OrderedSet

Entry = int | Fraction


def _entry(value) -> Entry:
    """An exact entry from anything but a plain int (the constructor keeps
    those as they are): an int, or a Fraction whose denominator exceeds 1."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return _entry(Fraction(value))
    raise TypeError(f"cannot use {value!r} as an exact matrix entry")


class ExactMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("_entries", "_lu")

    def __init__(self, entries: Iterable[Iterable[Entry]]):
        # Rows come from lists: tuple(<generator>) resizes its result, and the
        # resized tuples pile up on CPython's tuple free lists.
        rows = tuple([tuple([e if type(e) is int else _entry(e) for e in row]) for row in entries])
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise DimensionMismatchError("ragged rows in matrix literal")
        self._entries = rows
        self._lu: _Factorization | None = None

    @classmethod
    def _built(cls, rows: tuple[tuple[Entry, ...], ...]) -> "ExactMatrix":
        """A matrix of rows this module built, taken as they are.

        rows is a tuple of tuples of one nonzero width whose every entry is
        already normal (an int, or a Fraction with a denominator above 1):
        gcds, lcms, solved rows, rows of another ExactMatrix. Sums of
        products, as in __mul__, can give Fraction(k, 1) and go through the
        constructor."""
        m = object.__new__(cls)
        m._entries = rows
        m._lu = None
        return m

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
    def entries(self) -> tuple[tuple[Entry, ...], ...]:
        return self._entries

    def __getitem__(self, i: int) -> tuple[Entry, ...]:
        return self._entries[i]

    def __iter__(self) -> Iterator[tuple[Entry, ...]]:
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
        return ExactMatrix._built(tuple(list(zip(*self._entries))))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and list(self._entries) == list(zip(*self._entries))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for row in self._entries for e in row)

    def _factorization(self) -> _Factorization:
        """The LU of this square matrix's transpose, made once and kept.

        The transpose is cleared by one scale for the whole matrix, so its
        integer rows are symmetric exactly when the matrix is."""
        if self._lu is None:
            cols = list(zip(*self._entries))
            rows, scale = _integer_rows(cols)
            self._lu = (rows, *_bareiss(rows, cols == list(self._entries)), scale)
        return self._lu


def _mirrored(x: tuple[int, ...], f) -> ExactMatrix:
    """The symmetric matrix with entry (i, j) = f(x_i, x_j), for an f with
    f(a, a) = a: each row starts filled with its diagonal entry, and each
    entry above the diagonal is computed once and copied to its mirror."""
    n = len(x)
    rows = [[a] * n for a in x]
    for i, a in enumerate(x):
        row = rows[i]
        for j in range(i + 1, n):
            row[j] = rows[j][i] = f(a, x[j])
    return ExactMatrix._built(tuple([tuple(row) for row in rows]))


def gcd_matrix(s: OrderedSet | Iterable[int]) -> ExactMatrix:
    """Symmetric matrix with entry (i, j) = gcd(x_i, x_j)."""
    return _mirrored(OrderedSet.coerce(s).elements, _gcd)


def lcm_matrix(s: OrderedSet | Iterable[int]) -> ExactMatrix:
    """Symmetric matrix with entry (i, j) = lcm(x_i, x_j)."""
    return _mirrored(OrderedSet.coerce(s).elements, _lcm)


def _integer_rows(rows: Iterable[Iterable[Entry]]) -> tuple[list[list[int]], int]:
    """Rows times the lcm of all their denominators, and that positive
    scale: 1, with no lcm taken, when every entry is already an int. For n
    square rows det(rows) = det(int rows) / scale**n, and each leading
    principal minor keeps its sign."""
    rows = [list(row) for row in rows]
    denominators = [e.denominator for row in rows for e in row if type(e) is Fraction]
    if not denominators:
        return rows, 1
    scale = _lcm(*denominators)
    return [[e.numerator * (scale // e.denominator) for e in row] for row in rows], scale


def _bareiss(
    rows: list[list[int]], symmetric: bool = False
) -> tuple[list[int], list[tuple[int, int]]]:
    """Fraction-free (Bareiss) LU of n square integer rows, in place.

    On and above the diagonal the rows end as the fraction-free U; entry
    (i, k) below it keeps the multiplier row i had at step k. Returns the
    pivots and the row swaps (k, s) in the order made. A swap negates the
    incoming row, multipliers included, so the last pivot is the
    determinant; with no swap pivot k is the leading (k+1)x(k+1) minor. A
    column left without a nonzero entry ends the pass with a final pivot
    of 0.

    symmetric says the rows are a symmetric matrix A; the result is the
    same either way. By Sylvester's identity, until a row swap entry (i, j)
    of the trailing block after step k is the bordered minor
    det A[{0..k, i}, {0..k, j}]. For a symmetric A that submatrix is the
    transpose of A[{0..k, j}, {0..k, i}], so the two minors, entries (i, j)
    and (j, i), are equal and the trailing block stays symmetric. So step k
    updates each row i > k only from column i on, and reads the row's
    multiplier, its entry (i, k) in the general pass, from the pivot row's
    entry (k, i) instead; it stores it at (i, k), where the general pass
    leaves it. Entries left of the diagonal in the trailing block go stale.
    At the first zero pivot, before any swap, they are mirrored from above
    the diagonal and the pass goes on as the general one."""
    n = len(rows)
    pivots, swaps, prev = [], [], 1
    for k in range(n):
        if rows[k][k] == 0:
            if symmetric:
                for i in range(k + 1, n):
                    rows[i][k:i] = [r[i] for r in rows[k:i]]
                symmetric = False
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                pivots.append(0)
                return pivots, swaps
            rows[k], rows[swap] = [-e for e in rows[swap]], rows[k]
            swaps.append((k, swap))
        row_k, pivot = rows[k], rows[k][k]
        if symmetric:
            for i in range(k + 1, n):
                row_i = rows[i]
                row_i[k] = head = row_k[i]
                for j in range(i, n):
                    row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
        else:
            tail_k = row_k[k + 1:]
            for row_i in rows[k + 1:]:
                head = row_i[k]
                row_i[k + 1:] = [
                    (a * pivot - head * b) // prev for a, b in zip(row_i[k + 1:], tail_k)
                ]
        pivots.append(pivot)
        prev = pivot
    return pivots, swaps


# Fraction-free LU of the integer rows of a square matrix's transpose:
# (rows, pivots, swaps) from _bareiss and the scale from _integer_rows.
_Factorization = tuple[list[list[int]], list[int], list[tuple[int, int]], int]


def _ratio(v: int, d: int) -> Entry:
    """v / d as an entry: an int when d divides v."""
    return v // d if v % d == 0 else Fraction(v, d)


def determinant(m: ExactMatrix) -> Entry:
    """Exact determinant: the last Bareiss pivot over scale**n."""
    if not m.is_square():
        raise NotSquareError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    _, pivots, _, scale = m._factorization()
    return _ratio(pivots[-1], scale**m.rows)


def _solve_row(lu: _Factorization, b_row: Iterable[Entry]) -> tuple[Entry, ...]:
    """x with x * a = b_row, from the LU of a's transpose.

    b_row, times the scale that cleared a and cleared to integers (its
    factor c), is the right-hand side of a^T x = b_row; with scale 1 an
    all-int b_row is already that, with c = 1. It replays the LU's
    swaps (a swap moves and negates a row's stored multipliers with it, so
    every swap comes before the first step), then each elimination step with
    the multiplier stored below the diagonal. Fraction-free back-substitution
    gives y = d * c * x, with d the last pivot; each entry of x is an exact
    int quotient where d * c divides it, and a Fraction only where not."""
    rows, pivots, swaps, scale = lu
    if scale == 1 and Fraction not in map(type, b_row):
        rhs, c = list(b_row), 1
    else:
        [rhs], c = _integer_rows([[e * scale for e in b_row]])
    for k, s in swaps:
        rhs[k], rhs[s] = -rhs[s], rhs[k]
    n = len(rows)
    prev = 1
    for k, pivot in enumerate(pivots[:-1]):
        w = rhs[k]
        for i in range(k + 1, n):
            rhs[i] = (rhs[i] * pivot - rows[i][k] * w) // prev
        prev = pivot
    d = pivots[-1]
    y = []  # d * c * x from its last entry back
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y.append((d * rhs[i] - sum(map(mul, row[:i:-1], y))) // row[i])
    dc = d * c
    return tuple([v // dc if v % dc == 0 else Fraction(v, dc) for v in reversed(y)])


def solve_right(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve X * a = b exactly for X (a square and nonsingular).

    Row r of X solves a^T x = b[r]: each row of b is replayed on its own
    through a's cached LU (see _solve_row), so X is the list of those rows."""
    n = len(a._entries)
    if len(a._entries[0]) != n:
        raise DimensionMismatchError(f"coefficient matrix must be square, got {a.rows}x{a.cols}")
    if len(b._entries[0]) != n:
        raise DimensionMismatchError(
            f"cannot solve X*a=b with a {a.rows}x{a.cols} and b {b.rows}x{b.cols}"
        )
    lu = a._factorization()
    if lu[1][-1] == 0:
        raise SingularMatrixError(f"matrix is singular (rank below {n})")
    return ExactMatrix._built(tuple([_solve_row(lu, row) for row in b._entries]))


def integral_solve_right(
    a: ExactMatrix, b: ExactMatrix
) -> tuple[ExactMatrix | None, tuple[int, int, Fraction] | None]:
    """Solve X * a = b as solve_right does, stopping at the first
    non-integral entry of X.

    Returns (X, None) when every entry of X is an integer. Otherwise returns
    (None, (i, j, value)) for the first non-integral entry in row-major
    order, with 1-based indices. Each row of X comes from its own
    solve_right call, so a per-function profile counts the solve under
    solve_right, and rows after row i are never solved."""
    solution = []
    for i, row in enumerate(b._entries, 1):
        x = solve_right(a, ExactMatrix._built((row,)))._entries[0]
        if Fraction in map(type, x):
            j = list(map(type, x)).index(Fraction)
            return None, (i, j + 1, x[j])
        solution.append(x)
    return ExactMatrix._built(tuple(solution)), None


def is_positive_definite(m: ExactMatrix) -> bool:
    """All leading principal minors strictly positive (symmetric input only):
    the cached LU made no row swap (a swap means a leading minor is 0) and
    all its pivots are positive."""
    if not m.is_square():
        raise NotSquareError(f"positive definiteness needs a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise NotSymmetricError("positive definiteness is only checked for symmetric matrices")
    _, pivots, swaps, _ = m._factorization()
    return not swaps and all(p > 0 for p in pivots)


def is_totally_nonnegative(m: ExactMatrix) -> bool:
    """Whether every minor of a symmetric nonsingular matrix is >= 0, such as
    every gcd matrix (all are positive definite). A singular matrix reads
    False.

    Neville elimination (Gasca & Peña, *Total positivity and Neville
    elimination*, LAA 165, 1992) clears column k bottom-up, each row by the
    one above it. A nonsingular A is TN iff the elimination of A and of A^T
    needs no row exchange and no negative multiplier, and every diagonal
    pivot is positive; A is its own transpose, so one pass decides. Here it
    runs fraction-free on the cleared integer rows (positive row scalings,
    which change no sign the test reads): row i becomes p*row_i - q*row_{i-1}
    with p > 0, divided by its content. A zero entry is skipped; a zero
    above a nonzero entry would need a row exchange. A negative entry is a
    negative pivot, which the theorem rules out for a TN matrix (each pivot
    is the previous one times a nonnegative multiplier, starting from a
    positive diagonal pivot), so entries of opposite sign, the negative
    multipliers, are caught with it. On a TN gcd matrix, a Green's matrix,
    the first column's step leaves the rest upper triangular, so later steps
    only skip zeros."""
    if not m.is_square():
        raise NotSquareError(f"total nonnegativity needs a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise NotSymmetricError("total nonnegativity is only decided for symmetric matrices")
    rows, _ = _integer_rows(m)
    n = len(rows)
    for k in range(n):
        for i in range(n - 1, k, -1):
            row, above = rows[i], rows[i - 1]
            q, p = row[k], above[k]
            if q == 0:
                continue
            if p <= 0 or q < 0:
                return False
            new = [p * a - q * b for a, b in zip(row[k:], above[k:])]
            content = _gcd(*new)
            row[k:] = [e // content for e in new] if content > 1 else new
        if rows[k][k] <= 0:
            return False
    return True
