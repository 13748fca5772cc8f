"""Independent brute-force oracles and seeded generators used by the tests.

Everything here deliberately avoids the code paths it is used to check:
determinants by cofactor expansion, monotone orders by full permutation
enumeration and by L1 distance between trial-division exponent rows,
coprime divisor chains by union-find over all pairs, factorizations by
plain trial division, totients by counting, the lcm-matrix quotient by
Gauss-Jordan elimination over Fractions, the fraction-free LU by the
general Bareiss pass over the whole trailing block, the gcd and lcm
matrices by computing all n^2 entries, and the classical determinant
product formulas evaluated directly from their definitions.

Total nonnegativity has two oracles here that the library does not ship:
column monotonicity of the exponent grid (check_tn_monotone) and the
exhaustive minors (first_negative_minor by cofactors, and
first_negative_minor_lu by the fraction-free LU, which is fast enough for
n <= 8). check_quadruple_identity and lcm_from_gcds restate two identities
of TN sets with plain gcds. ordered_set_error restates OrderedSet's
element-by-element validation and its messages. unreduced_divide_oracle is
the exact solve on the set as given, without divide_oracle's division by
the set's gcd.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm

from gcdmat.divisibility import DivisibilityReport
from gcdmat.errors import InvalidArgumentError, NotTnError, excerpt
from gcdmat.exactmatrix import gcd_matrix, integral_solve_right, lcm_matrix
from gcdmat.generate import SplitMix64, random_monotone_exponents
from gcdmat.setmodel import ExponentMatrix, OrderedSet, reconstruct
from gcdmat.tncore import TnVerdict


def gcd_table(x) -> list[list[int]]:
    return [[gcd(a, b) for b in x] for a in x]


def lcm_table(x) -> list[list[int]]:
    return [[lcm(a, b) for b in x] for a in x]


def cofactor_determinant(rows) -> Fraction:
    """Recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = Fraction(rows[0][j]) * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def first_violating_triple(x) -> tuple[int, int, int] | None:
    """The literal triple scan: every product, gcd and divisibility term
    recomputed for each 1-based triple i <= j <= k; the first failing one."""
    n = len(x)
    g = [[gcd(a, b) for b in x] for a in x]
    for i in range(n):
        gi = g[i]
        for j in range(i, n):
            gij, gj, xj = gi[j], g[j], x[j]
            for k in range(j, n):
                gik = gi[k]
                product_identity = gij * gj[k] == xj * gik
                triple_gcd = gik == gcd(gij, x[k])
                divides = (x[i] * x[k]) % (xj * gik) == 0
                if not (product_identity and triple_gcd and divides):
                    return (i + 1, j + 1, k + 1)
    return None


def exponent_rows(elements) -> list[list[int]]:
    """The exponent grid of the elements, one row per element and one column
    per prime (ascending), by trial division."""
    primes = sorted({p for x in elements for p, _ in trial_division_factors(x)})
    return [[_exponent(x, p) for p in primes] for x in elements]


def exponent_columns(elements) -> list[tuple[int, ...]]:
    """The columns of the exponent grid of the elements."""
    return list(zip(*exponent_rows(elements)))


def _monotone(col) -> bool:
    return all(a <= b for a, b in zip(col, col[1:])) or all(
        a >= b for a, b in zip(col, col[1:])
    )


def brute_monotone_images(elements) -> list[tuple[int, ...]]:
    """All 1-based images whose reordering has a column-monotone exponent grid."""
    elems = list(elements)
    n = len(elems)
    images = []
    for image in permutations(range(1, n + 1)):
        if all(map(_monotone, exponent_columns([elems[i - 1] for i in image]))):
            images.append(image)
    return images


def l1_monotone_order(elements) -> tuple[int, ...] | None:
    """The monotone-order search over exponent rows: the row farthest in L1
    distance from row 1 is an end, sorting by L1 distance from that end gives
    the candidate, and every column of the candidate is checked. Returns the
    lexicographically smaller of the image and its reverse, or None."""
    rows = exponent_rows(elements)

    def distances(a: int) -> list[int]:
        return [sum(abs(u - v) for u, v in zip(rows[a], row)) for row in rows]

    from_first = distances(0)
    from_end = distances(from_first.index(max(from_first)))
    order = sorted(range(len(rows)), key=from_end.__getitem__)
    if not all(map(_monotone, zip(*(rows[i] for i in order)))):
        return None
    image = tuple(i + 1 for i in order)
    return min(image, image[::-1])


def union_find_chains(elements) -> list[list[int]] | None:
    """Coprime divisor chains by union-find over all pairs with gcd > 1: the
    components, ordered by first appearance and each sorted ascending, or
    None when some component is not a divisibility chain."""
    x = list(elements)
    parent = list(range(len(x)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(x)), 2):
        if gcd(x[i], x[j]) > 1:
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(len(x)):
        blocks.setdefault(find(i), []).append(x[i])
    ordered = sorted(blocks.values(), key=lambda block: x.index(block[0]))
    for block in ordered:
        block.sort()
        if any(b % a != 0 for a, b in zip(block, block[1:])):
            return None
    return ordered


def trial_division_factors(x: int) -> list[tuple[int, int]]:
    """Prime factorization by dividing by 2, 3, 5, 7, 9, ... up to sqrt(x)."""
    factors = []
    d = 2
    while d * d <= x:
        e = 0
        while x % d == 0:
            e += 1
            x //= d
        if e:
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if x > 1:
        factors.append((x, 1))
    return factors


def _exponent(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        e += 1
        x //= p
    return e


def totient_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def first_negative_minor(rows):
    """First negative minor by size then lexicographic index sets, found with
    cofactor determinants; returns 1-based (rows, cols, value) or None."""
    n = len(rows)
    for size in range(1, n + 1):
        for rr in combinations(range(n), size):
            for cc in combinations(range(n), size):
                det = cofactor_determinant([[rows[i][j] for j in cc] for i in rr])
                if det < 0:
                    return tuple(i + 1 for i in rr), tuple(j + 1 for j in cc), det
    return None


def first_negative_minor_lu(rows):
    """first_negative_minor of integer rows, each minor's determinant taken
    as the last pivot of fraction_free_lu on the submatrix."""
    n = len(rows)
    for size in range(1, n + 1):
        for rr in combinations(range(n), size):
            for cc in combinations(range(n), size):
                det = fraction_free_lu([[rows[i][j] for j in cc] for i in rr])[0][-1]
                if det < 0:
                    return tuple(i + 1 for i in rr), tuple(j + 1 for j in cc), det
    return None


def check_tn_monotone(s) -> TnVerdict:
    """TN verdict from column monotonicity of the exponent grid (method
    "ColumnMonotone").

    A non-monotone column yields a violating triple: with b the first strict
    change against the column's initial direction, the rows (a, b, b+1)
    around it violate the triple identity as well.
    """
    for col in exponent_columns(s):
        steps = [(i, (u < v) - (u > v)) for i, (u, v) in enumerate(zip(col, col[1:]))]
        changes = [(i, d) for i, d in steps if d != 0]
        for (a, first), (b, later) in zip(changes, changes[1:]):
            if later != first:
                return TnVerdict(False, "ColumnMonotone", (a + 1, b + 1, b + 2))
    return TnVerdict(True, "ColumnMonotone")


def _require_tn(x) -> None:
    if first_violating_triple(tuple(x)) is not None:
        raise NotTnError(f"gcd matrix of {list(x)} is not totally nonnegative")


def check_quadruple_identity(s) -> bool:
    """(i,k)*(j,l) == (i,l)*(j,k) for every 1 <= i <= j <= k <= l <= n,
    each gcd taken directly; NotTnError on a set that is not TN."""
    x = list(s)
    _require_tn(x)
    return all(
        gcd(x[i], x[k]) * gcd(x[j], x[l]) == gcd(x[i], x[l]) * gcd(x[j], x[k])
        for i, j, k, l in combinations_with_replacement(range(len(x)), 4)
    )


def lcm_from_gcds(s, i: int, j: int) -> int:
    """lcm(x_i, x_j) as (1,i)*(j,n) / (1,n), 1-based i <= j, on a TN set
    (NotTnError otherwise)."""
    x = list(s)
    if not 1 <= i <= len(x) or not 1 <= j <= len(x):
        raise InvalidArgumentError(f"indices ({i}, {j}) out of range 1..{len(x)}")
    if i > j:
        raise InvalidArgumentError(f"need i <= j, got ({i}, {j})")
    _require_tn(x)
    numerator, g1n = gcd(x[0], x[i - 1]) * gcd(x[j - 1], x[-1]), gcd(x[0], x[-1])
    assert numerator % g1n == 0, (x, i, j)
    return numerator // g1n


def fraction_free_lu(rows: list[list[int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """Fraction-free (Bareiss) LU of n square integer rows, in place.

    On and above the diagonal the rows end as the fraction-free U; entry
    (i, k) below it keeps the multiplier row i had at step k. Returns the
    pivots and the row swaps (k, s) in the order made. A swap negates the
    incoming row, multipliers included, so the last pivot is the
    determinant; with no swap pivot k is the leading (k+1)x(k+1) minor. A
    column left without a nonzero entry ends the pass with a final pivot
    of 0."""
    n = len(rows)
    pivots, swaps, prev = [], [], 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                pivots.append(0)
                return pivots, swaps
            rows[k], rows[swap] = [-e for e in rows[swap]], rows[k]
            swaps.append((k, swap))
        row_k, pivot = rows[k], rows[k][k]
        tail_k = row_k[k + 1:]
        for row_i in rows[k + 1:]:
            head = row_i[k]
            row_i[k + 1:] = [
                (a * pivot - head * b) // prev for a, b in zip(row_i[k + 1:], tail_k)
            ]
        pivots.append(pivot)
        prev = pivot
    return pivots, swaps


def rational_quotient(elements) -> list[list[Fraction]]:
    """C with C * G = L for the gcd and lcm matrices of the elements, by
    Gauss-Jordan elimination over Fractions on [G^T | L^T]: C^T = G^-T L^T
    ends in the right half."""
    x = list(elements)
    n = len(x)
    aug = [
        [Fraction(gcd(x[j], x[i])) for j in range(n)]
        + [Fraction(x[r] * x[i] // gcd(x[r], x[i])) for r in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [[aug[i][n + r] for i in range(n)] for r in range(n)]


def unreduced_divide_oracle(s) -> DivisibilityReport:
    """divide_oracle's report from the solve C * G = L on the gcd and lcm
    matrices of the set as given, with no common factor divided out."""
    s = OrderedSet.coerce(s)
    witness, violation = integral_solve_right(gcd_matrix(s), lcm_matrix(s))
    if witness is None:
        return DivisibilityReport(False, violation=violation)
    return DivisibilityReport(True, witness=witness)


def first_non_integral(rows):
    """First entry with a denominator above 1, in row-major order, as 1-based
    (row, col, value); None when every entry is integral."""
    for i, row in enumerate(rows, 1):
        for j, e in enumerate(row, 1):
            if e.denominator != 1:
                return i, j, e
    return None


def divisors_brute(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def totient_product(elements) -> int:
    """Totient product over the elements (factor-closed determinant value)."""
    result = 1
    for x in elements:
        result *= totient_brute(x)
    return result


def filtered_totient_product(elements) -> int:
    """Divisor-filtered totient product for an ascending gcd-closed set:
    the i-th factor sums phi(d) over divisors d of x_i dividing no earlier x_t."""
    elems = list(elements)
    assert elems == sorted(elems), "oracle needs ascending order"
    result = 1
    for i, x in enumerate(elems):
        result *= sum(
            totient_brute(d)
            for d in divisors_brute(x)
            if not any(earlier % d == 0 for earlier in elems[:i])
        )
    return result


def ordered_set_error(elements) -> str | None:
    """The message OrderedSet's element-by-element validator gives for these
    elements, or None when it accepts them: the first element that is not an
    int (bools excluded), else the first below 1, else the first repeat."""
    elems = tuple(elements)
    if not elems:
        return "an ordered set needs at least one element"
    for x in elems:
        if not isinstance(x, int) or isinstance(x, bool):
            return f"element {excerpt(x)} is not an integer"
        if x < 1:
            return f"element {excerpt(x)} is not positive"
    seen = set()
    for x in elems:
        if x in seen:
            return f"elements are not pairwise distinct: {excerpt(x)} repeats"
        seen.add(x)
    return None


def gcd_closure(elements) -> tuple[int, ...]:
    """Close a set under pairwise gcd; returned ascending."""
    closed = set(elements)
    while True:
        extra = {gcd(a, b) for a, b in combinations(closed, 2)} - closed
        if not extra:
            return tuple(sorted(closed))
        closed |= extra


def divisor_closure(seeds) -> tuple[int, ...]:
    """Union of all divisors of the seeds (a factor-closed set), ascending."""
    closed = set()
    for x in seeds:
        closed.update(divisors_brute(x))
    return tuple(sorted(closed))


# --- seeded generation helpers -------------------------------------------


def random_distinct_set(rng: SplitMix64, n: int, max_value: int) -> OrderedSet:
    values: list[int] = []
    while len(values) < n:
        v = rng.randint(1, max_value)
        if v not in values:
            values.append(v)
    return OrderedSet(values)


def shuffled(rng: SplitMix64, s: OrderedSet) -> OrderedSet:
    image = list(range(1, len(s) + 1))
    rng.shuffle(image)
    return s.permute(image)


def perturbed_exponents(rng: SplitMix64, matrix: ExponentMatrix, max_exp: int = 6) -> ExponentMatrix:
    """Overwrite one random entry with a random value; keeps the grid valid.

    Falls back to the original matrix if fifty attempts all collide with the
    distinct-rows or nonzero-column invariants.
    """
    rows = [list(r) for r in matrix.exponents]
    n, k = len(rows), len(rows[0]) if rows else 0
    if k == 0:
        return matrix
    for _ in range(50):
        i, j = rng.below(n), rng.below(k)
        new = rng.below(max_exp + 1)
        trial = [row[:] for row in rows]
        trial[i][j] = new
        distinct = len({tuple(r) for r in trial}) == n
        nonzero = all(any(row[c] for row in trial) for c in range(k))
        if distinct and nonzero:
            return ExponentMatrix(matrix.primes, trial)
    return matrix


def random_tree_set(rng: SplitMix64, n: int) -> OrderedSet:
    """Random gcd-closed set where every member has at most one greatest-type
    divisor: a divisibility tree whose edges multiply by powers of fresh primes,
    so any two members meet exactly at their lowest common ancestor."""
    root = rng.randint(1, 6)
    primes = iter(
        p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if root % p
    )
    nodes = [root]
    while len(nodes) < n:
        parent = rng.choice(nodes)
        nodes.append(parent * next(primes) ** rng.randint(1, 3))
    return OrderedSet(nodes)


def pool_of_tn_sets(seed: int, count: int, n_range=(3, 8), max_exp=6, max_primes=4):
    """Deterministic list of column-monotone (hence TN) ordered sets."""
    rng = SplitMix64(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(*n_range)
        sets.append(reconstruct(random_monotone_exponents(rng, n, max_exp, max_primes)))
    return sets
