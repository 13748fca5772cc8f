"""Total nonnegativity of gcd matrices and the closed forms it unlocks.

For an ordered set S = (x_1, ..., x_n), total nonnegativity of the gcd
matrix is equivalent to a triple identity on pairwise gcds and to column
monotonicity of the prime-exponent matrix. When it holds, the inverse of the
gcd matrix is symmetric tridiagonal with a closed form for its coefficients,
and the quotient of the lcm matrix by the gcd matrix is an explicit integer
matrix, no linear solve required.

Throughout, (i, j) written in formulas means gcd(x_i, x_j) with 1-based
indices, matching the usual mathematical notation.

On a TN set the gcd matrix is a single-pair (Green's) matrix: for i <= j,
(i,j)*(1,n) = (1,j)*(i,n). TN is decided from only the 2n-1 instances with
j in {i, i+1}, in O(n) gcds:

    x_i*(1,n) = (1,i)*(i,n)            1 <= i <= n
    (i,i+1)*(1,n) = (1,i+1)*(i,n)      1 <= i < n

Proof sketch, one prime p at a time, with exponents e_i, a = e_1, b = e_n and
a <= b (a > b is the mirror image). The diagonal identity reads
e_i + a = min(a, e_i) + min(e_i, b), which fails for e_i < a and for e_i > b,
so a <= e_i <= b. The consecutive identity then reads
min(e_i, e_{i+1}) + a = a + e_i, so e_i <= e_{i+1}. Every column is monotone,
hence the set is TN; conversely monotone columns satisfy both identities.

``single_pair_identities_hold`` gives this verdict. Every closed form makes
the same check on the set it is given and reads the (1,i) and (i,n) vectors
the check computed, so its result depends on the set alone.
``check_tn_triple`` gives the same verdict with a witness, and
``exactmatrix.is_totally_nonnegative`` decides it from the gcd matrix
itself (Neville elimination); these three ship. ``check_tn_monotone``
(column monotonicity of the exponent matrix, with a witness) and the
exhaustive minors are test oracles in ``tests/oracles.py``. Every set with
n <= 2 is TN, and the closed forms hold there too.

``check_tn_triple`` names the first violating triple (i, j, k), i <= j <= k,
in lexicographic order, with O(n^2) gcds and lcms rather than one test per
triple. Per prime, with exponents a, b, c of x_i, x_j, x_k,

    min(a, b) + min(b, c) <= b + min(a, c),

with equality iff b lies between a and c (if b < min(a, c) the left side
is 2b, if b > max(a, c) it is a + c). So the triple identity holds iff
(i,k) | x_j and x_j | lcm(x_i, x_k), that is min(a, c) <= b <= max(a, c).
This holds for every k >= j iff, per prime, max_k min(a, c_k) <= b and
b <= max(a, min_k c_k), the max and min taken over k >= j. Read back as
numbers, the pair (i, j) has a violating k >= j iff

    lcm((i,j), ..., (i,n)) does not divide x_j, or
    x_j does not divide lcm(x_i, gcd(x_j, ..., x_n)).

The first certificate is a suffix lcm along row i, the second reads one
suffix-gcd vector built once; both are O(n^2) in all. The first pair (i, j)
in lexicographic order that fails either is the pair of the first violating
triple, and its k is found by walking k >= j. The same inequality makes the
identity alone the test of one triple: (i,j)*(j,k) divides x_j*(i,k), and
the two are equal exactly when every prime's exponents are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Iterable, NamedTuple

from .errors import InternalConsistencyError, NotTnError
from .exactmatrix import ExactMatrix
from .setmodel import OrderedSet

METHOD_TRIPLE = "TripleIdentity"


class TnVerdict(NamedTuple):
    """Outcome of a total-nonnegativity check.

    witness, present iff is_tn is false, is the first violating triple of
    1-based indices (i, j, k).
    """

    is_tn: bool
    method: str
    witness: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_tn


class TridiagonalInverse(NamedTuple):
    """Coefficients of the tridiagonal inverse of a TN gcd matrix.

    sub_super holds a_2..a_n (the shared sub/superdiagonal), diagonal holds
    b_1..b_n. The assembled matrix is symmetric tridiagonal.
    """

    sub_super: tuple[Fraction, ...]
    diagonal: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def as_matrix(self) -> ExactMatrix:
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = self.diagonal[i]
        for i, a in enumerate(self.sub_super):
            rows[i][i + 1] = a
            rows[i + 1][i] = a
        return ExactMatrix(rows)


def _first_violating_triple(x: tuple[int, ...]) -> tuple[int, int, int] | None:
    """The first (i, j, k), 1-based, failing the triple identity, or None.

    The pairs (i, j) are tested by the suffix certificates of the module
    docstring; only the first failing pair walks its k.
    """
    n = len(x)
    suffix_gcd = list(x)  # suffix_gcd[j] = gcd(x_j, ..., x_n)
    for j in range(n - 2, -1, -1):
        suffix_gcd[j] = _gcd(x[j], suffix_gcd[j + 1])
    for i, xi in enumerate(x):
        row_lcm, flagged = 1, None  # row_lcm = lcm((i,j), ..., (i,n))
        for j in range(n - 1, i, -1):  # a pair with j = i never fails
            xj = x[j]
            row_lcm = _lcm(row_lcm, _gcd(xi, xj))
            if xj % row_lcm or _lcm(xi, suffix_gcd[j]) % xj:
                flagged = j
        if flagged is not None:
            return _first_violating_k(x, i, flagged)
    return None


def _first_violating_k(x: tuple[int, ...], i: int, j: int) -> tuple[int, int, int]:
    """The first k >= j (0-based) failing the triple identity with i and j."""
    xi, xj = x[i], x[j]
    gij = _gcd(xi, xj)
    for k in range(j, len(x)):
        if gij * _gcd(xj, x[k]) != xj * _gcd(xi, x[k]):
            return (i + 1, j + 1, k + 1)
    raise InternalConsistencyError(
        f"pair ({i + 1}, {j + 1}) fails a suffix certificate but no triple identity"
    )


def check_tn_triple(s: OrderedSet | Iterable[int]) -> TnVerdict:
    """Decide total nonnegativity of the gcd matrix via the triple identity.

    For every 1 <= i <= j <= k <= n the identity (i,j)*(j,k) = x_j*(i,k) must
    hold; per prime it says that the exponent of x_j lies between those of
    x_i and x_k, i.e. (i,k) | x_j and x_j | lcm(x_i, x_k). The scan tests each
    pair (i, j) against every k >= j at once, through the suffix certificates
    lcm((i,j), ..., (i,n)) | x_j and x_j | lcm(x_i, gcd(x_j, ..., x_n)) (proof
    in the module docstring), in O(n^2) gcds and lcms. The witness is the
    lexicographically first failing triple. Its k is found on the first
    failing pair by testing the identity for each k >= j in turn.
    """
    s = OrderedSet.coerce(s)
    witness = _first_violating_triple(s.elements)
    return TnVerdict(witness is None, METHOD_TRIPLE, witness)


def _single_pair_vectors(x: tuple[int, ...]) -> tuple[list[int], list[int]] | None:
    """The vectors (1,i) and (i,n) for i = 1..n, as 0-based lists, or None
    when one of the 2n-1 single-pair identities fails (the set is not TN)."""
    first = [_gcd(x[0], v) for v in x]
    last = [_gcd(v, x[-1]) for v in x]
    g1n = first[-1]
    holds = all(v * g1n == f * l for v, f, l in zip(x, first, last)) and all(
        _gcd(x[i], x[i + 1]) * g1n == first[i + 1] * last[i] for i in range(len(x) - 1)
    )
    return (first, last) if holds else None


def single_pair_identities_hold(s: OrderedSet | Iterable[int]) -> bool:
    """Whether the gcd matrix of s is TN, from the 2n-1 single-pair identities.

    See the module docstring for the identities and the proof. O(n) gcds
    whatever the answer, and no witness (``check_tn_triple`` names the first
    violating triple). Sets with fewer than three elements satisfy the
    identities trivially, and their gcd matrices are always TN.
    """
    return _single_pair_vectors(OrderedSet.coerce(s).elements) is not None


def _require_tn(s: OrderedSet) -> tuple[list[int], list[int]]:
    """Raise NotTnError unless s is TN; return the (1,i) and (i,n) vectors."""
    vectors = _single_pair_vectors(s.elements)
    if vectors is None:
        raise NotTnError(f"gcd matrix of {s!r} is not totally nonnegative")
    return vectors


def tridiagonal_inverse(s: OrderedSet | Iterable[int]) -> TridiagonalInverse:
    """Closed-form inverse coefficients of a TN gcd matrix.

    With (i,j) = gcd(x_i, x_j) and d_i = (i,n)*(1,i+1) - (i+1,n)*(1,i):

        a_{i+1} = (1,n) / d_i                                   1 <= i <= n-1
        b_1     = -(2,n) / d_1
        b_i     = -((i-1,n)*(1,i+1) - (i+1,n)*(1,i-1))*(1,n) / (d_{i-1}*d_i)
        b_n     = -(1,n-1) / d_{n-1}

    The assembled symmetric tridiagonal matrix times the gcd matrix is the
    identity, exactly. For n = 2 the first and last lines give b_1 and b_2;
    for n = 1 the inverse is the diagonal (1/x_1).

    No denominator vanishes on a TN set. The single-pair identities give
    x_i*x_{i+1} - (i,i+1)^2 = (1,i+1)*(i,n)*(-d_i)/(1,n)^2. The left side
    is a 2x2 principal minor of the positive definite gcd matrix, positive
    since (i,i+1) <= min(x_i, x_{i+1}) < max(x_i, x_{i+1}) for distinct
    elements. Hence d_i < 0, and every a_{i+1} is negative.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n == 1:
        return TridiagonalInverse((), (Fraction(1, s[0]),))
    first, last = _require_tn(s)  # first[i] = (1,i+1), last[i] = (i+1,n)
    g1n = first[-1]
    d = [last[i] * first[i + 1] - last[i + 1] * first[i] for i in range(n - 1)]  # d[i] = d_{i+1}
    a = tuple(Fraction(g1n, di) for di in d)  # a[i] holds a_{i+2}
    b = [Fraction(-last[1], d[0])]
    for i in range(1, n - 1):
        factor = last[i - 1] * first[i + 1] - last[i + 1] * first[i - 1]
        b.append(Fraction(-factor * g1n, d[i - 1] * d[i]))
    b.append(Fraction(-first[n - 2], d[n - 2]))
    return TridiagonalInverse(a, tuple(b))


def quotient_closed_form(
    s: OrderedSet | Iterable[int], verdict: TnVerdict | None = None
) -> ExactMatrix:
    """The integer quotient U with U * gcd_matrix = lcm_matrix, entrywise.

    For a TN set the quotient of the lcm matrix by the gcd matrix has at most
    three nonzero entries per row:

        U[i][i] = -1                    i != 1, n
        U[2][1] = x_2 / (1,2)
        U[i][1] = (i,n) / (1,n)         i != 1, 2
        U[n-1][n] = x_{n-1} / (n-1,n)
        U[i][n] = (1,i) / (1,n)         i != n, n-1

    and zero elsewhere (for n = 2 the two corner lines give U = [[0, x_1/(1,2)],
    [x_2/(1,2), 0]]; for n = 1, U = [[1]]). Every division is exact; a
    remainder means a bug and raises. ``verdict`` is ignored: the set alone
    decides TN.
    """
    s = OrderedSet.coerce(s)
    n = len(s)
    if n == 1:
        return ExactMatrix([[1]])
    first, last = _require_tn(s)  # first[i] = (1,i+1), last[i] = (i+1,n)
    x = s.elements

    def exact(num: int, den: int, where: str) -> int:
        if num % den:
            raise InternalConsistencyError(f"non-integer quotient entry at {where}: {num}/{den}")
        return num // den

    g1n = first[-1]
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        rows[i][i] = -1
    rows[1][0] = exact(x[1], first[1], "(2,1)")
    for i in range(2, n):
        rows[i][0] = exact(last[i], g1n, f"({i + 1},1)")
    rows[n - 2][n - 1] = exact(x[n - 2], last[n - 2], f"({n - 1},{n})")
    for i in range(n - 2):
        rows[i][n - 1] = exact(first[i], g1n, f"({i + 1},{n})")
    return ExactMatrix(rows)
