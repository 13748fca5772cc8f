"""Independent answer checks, run outside the timed region.

None of this calls gcdmat: the gcd and lcm matrices come from ``math.gcd``
on the elements, the elimination is the benchmark's own fraction-free one,
and the expected CLI outputs are written out by hand. Each check returns
None when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


def gcd_table(x) -> list[list[int]]:
    return [[math.gcd(a, b) for b in x] for a in x]


def lcm_table(x, g) -> list[list[int]]:
    return [[a // g[i][j] * b for j, b in enumerate(x)] for i, a in enumerate(x)]


def eliminate(a: list[list[int]], rhs: list[list[int]]) -> tuple[int, int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination on [a | rhs columns], then
    fraction-free back-substitution. For each right-hand side b returns y
    with a (y / d) = b; d is the last pivot, det(a) up to the sign of the row
    swaps, so y / d is the exact solution. Returns (det(a), d, ys); ys is
    empty when det(a) = 0. Since G is symmetric, row r of the quotient C with
    C G = L solves G c = L[r]."""
    n = len(a)
    work = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)]
    width = n + len(rhs)
    sign, prev = 1, 1
    for k in range(n):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if swap is None:
                return 0, 0, []
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot, row_k = work[k][k], work[k]
        for i in range(k + 1, n):
            row_i = work[i]
            head = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    d = work[n - 1][n - 1]
    ys = []
    for c in range(n, width):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = work[i]
            y[i] = (d * row[c] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        ys.append(y)
    return sign * d, d, ys


def first_violation(g, lcm) -> tuple[int, tuple[int, int, Fraction] | None]:
    """det(G) and the first non-integral entry of C = L G^-1 in row-major
    order (1-based), or None when C is integral.

    Row 1 is solved alone first: most non-dividing sets fail there.
    """
    det, d, ys = eliminate(g, [lcm[0]])
    if det == 0:  # a gcd matrix is positive definite; the library's solve must fail too
        return det, None
    if all(v % d == 0 for v in ys[0]):
        ys = eliminate(g, lcm)[2]
    for i, y in enumerate(ys):
        for j, v in enumerate(y):
            if v % d:
                return det, (i + 1, j + 1, Fraction(v, d))
    return det, None


def check_divisibility(x, report, det) -> str | None:
    """A DivisibilityReport and det(G) against the benchmark's own solve."""
    g = gcd_table(x)
    lcm = lcm_table(x, g)
    expected_det, expected = first_violation(g, lcm)
    if det != expected_det:
        return f"determinant {det} != {expected_det}"
    if expected is None:
        if not report.divides or report.witness is None:
            return "set divides but the report says it does not"
        if any(v.denominator != 1 for row in report.witness for v in row):
            return "witness is not integral"
        for i, row in enumerate(report.witness):
            if [sum(int(row[t]) * g[t][j] for t in range(len(x))) for j in range(len(x))] != lcm[i]:
                return f"witness row {i + 1} times G is not L"
        return None
    if report.divides:
        return f"set does not divide (violation {expected}) but the report says it does"
    if report.violation != expected:
        return f"violation {report.violation} != expected {expected}"
    return None


def check_monotone_grid(rows) -> str | None:
    """Every column of the (reordered) exponent grid is monotone."""
    for j, col in enumerate(zip(*rows)):
        pairs = list(zip(col, col[1:]))
        if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
            return f"column {j + 1} of the reordered grid is not monotone"
    return None


def _integer_row(coeffs: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    return scale, {t: int(c * scale) for t, c in coeffs.items()}


def check_tridiagonal_inverse(x, g, sub_super, diagonal) -> str | None:
    """T * G = I, row by row over T's three bands: O(n^2)."""
    n = len(x)
    if len(diagonal) != n or len(sub_super) != n - 1:
        return "tridiagonal inverse has the wrong shape"
    for i in range(n):
        band = {i: Fraction(diagonal[i])}
        if i > 0:
            band[i - 1] = Fraction(sub_super[i - 1])
        if i < n - 1:
            band[i + 1] = Fraction(sub_super[i])
        scale, coeffs = _integer_row(band)
        for j in range(n):
            if sum(c * g[t][j] for t, c in coeffs.items()) != (scale if i == j else 0):
                return f"(T G)[{i + 1}][{j + 1}] is not the identity entry"
    return None


def check_quotient(x, g, lcm, quotient_rows_) -> str | None:
    """U * G = L over U's nonzero entries, which must be integers: O(n^2)."""
    n = len(x)
    for i, row in enumerate(quotient_rows_):
        nonzero = {t: v for t, v in enumerate(row) if v != 0}
        if any(Fraction(v).denominator != 1 for v in nonzero.values()):
            return f"quotient row {i + 1} is not integral"
        for j in range(n):
            if sum(int(v) * g[t][j] for t, v in nonzero.items()) != lcm[i][j]:
                return f"(U G)[{i + 1}][{j + 1}] != lcm entry"
    return None


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def census(m: int, sizes) -> dict[int, tuple[int, list[tuple[int, ...]]]]:
    """Per size: the number of gcd-closed ascending subsets of divisors(m)
    ending at m, and those among them whose gcd matrix fails to divide."""
    divs = divisors(m)
    index = {d: i for i, d in enumerate(divs)}
    meet = [[index[math.gcd(a, b)] for b in divs] for a in divs]
    top = len(divs) - 1
    result = {}
    for size in sizes:
        closed, failing = 0, []
        for lower in itertools.combinations(range(top), size - 1):
            members = lower + (top,)
            inside = set(members)
            if all(meet[a][b] in inside for a, b in itertools.combinations(members, 2)):
                closed += 1
                x = [divs[i] for i in members]
                g = gcd_table(x)
                if first_violation(g, lcm_table(x, g))[1] is not None:
                    failing.append(tuple(x))
        result[size] = (closed, failing)
    return result


# --- cli_requests -----------------------------------------------------------

README_ANALYZE = (330812181, 551353635, 7501410, 2976750, 5512500000, 18750000000)


def _exponent_rows(elements) -> tuple[list[int], list[list[int]]]:
    """Prime-exponent rows by trial division (inputs here are small or smooth)."""
    factored = []
    for x in elements:
        f, d = {}, 2
        while d * d <= x:
            while x % d == 0:
                f[d] = f.get(d, 0) + 1
                x //= d
            d += 1
        if x > 1:
            f[x] = f.get(x, 0) + 1
        factored.append(f)
    primes = sorted(set().union(*factored))
    return primes, [[f.get(p, 0) for p in primes] for f in factored]


EXPECTED_CLI = {
    "analyze": {
        "elements": [str(v) for v in README_ANALYZE],
        "n": 6,
        "gcd_closed": False,
        "factor_closed": False,
        "coprime_chains": None,
        "column_monotone": True,
        "column_directions": ["up", "down", "up", "down"],
        "tn": {"is_tn": True, "method": "TripleIdentity", "witness": None},
        "minors_nonnegative": True,
        "monotone_order": [1, 2, 3, 4, 5, 6],
    },
    "divide_verify": {"divides": True, "method": "closed-form", "verified": True,
                      "witness": [["0", "0", "1"], ["3", "-1", "1"], ["6", "0", "0"]]},
    "divide_nondivisor": {"divides": False, "violation": [2, 1, "3/4"], "witness": None},
    "order": {"orderable": True, "image": [1, 5, 3, 4, 2],
              "reordered": ["81", "54", "600", "6000", "4000"]},
    "invert": {"method": "tridiagonal", "diagonal": ["3/4", "5/12", "1/6"],
               "sub_super": ["-1/4", "-1/6"]},
    "search": {"found": True, "elements": ["1", "2", "3", "12"]},
}


def check_cli(verb: str, argv, code: int, stdout: str) -> str | None:
    """Hand-written expectations for every verb of the cli_requests cycle."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{verb}: stdout is not JSON"
    want_code = 1 if verb == "divide_nondivisor" else 0
    if code != want_code:
        return f"{verb}: exit {code} != {want_code}"
    if verb == "generate":
        return _check_generate(argv, doc)
    wrong = [k for k, v in EXPECTED_CLI[verb].items() if doc.get(k) != v]
    return f"{verb}: wrong {wrong}" if wrong else None


def _check_generate(argv, doc: dict) -> str | None:
    """generate --pattern random --n 5: five distinct elements whose exponent
    grid (by trial division) is column monotone and matches the report."""
    elements = [int(v) for v in doc.get("elements", [])]
    n = int(argv[argv.index("--n") + 1])
    if len(elements) != n or len(set(elements)) != n:
        return "generate: wrong number of distinct elements"
    primes, rows = _exponent_rows(elements)
    if doc.get("primes") != [str(p) for p in primes] or doc.get("exponents") != rows:
        return "generate: reported exponent grid does not match the elements"
    return check_monotone_grid(rows)
