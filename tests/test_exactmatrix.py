from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from gcdmat import exactmatrix
from gcdmat.cli import _json, render_text
from gcdmat.errors import (
    DimensionMismatchError,
    NotSquareError,
    NotSymmetricError,
    SingularMatrixError,
)
from gcdmat.exactmatrix import (
    ExactMatrix,
    determinant,
    gcd_matrix,
    integral_solve_right,
    is_positive_definite,
    is_totally_nonnegative,
    lcm_matrix,
    solve_right,
)
from gcdmat.generate import SplitMix64, random_monotone_set
from gcdmat.setmodel import OrderedSet

from oracles import (
    cofactor_determinant,
    divisor_closure,
    gcd_closure,
    filtered_totient_product,
    first_negative_minor,
    first_negative_minor_lu,
    first_non_integral,
    fraction_free_lu,
    gcd_table,
    lcm_table,
    random_distinct_set,
    totient_product,
)


class TestExactMatrix:
    def test_construction_stores_ints_and_proper_fractions(self):
        given = [
            [1, "1/2", Fraction(6, 3)],
            [Fraction(3, 4), 0, "-8"],
            ["4/2", Fraction(-1, 3), 5],
        ]
        m = ExactMatrix(given)
        for row, given_row in zip(m, given):
            for e, g in zip(row, given_row):
                assert type(e) is int or (type(e) is Fraction and e.denominator > 1)
                assert e == Fraction(g)
        assert [type(e) for e in m[0]] == [int, Fraction, int]

    def test_int_and_fraction_built_matrices_are_equal_and_hash_equal(self):
        ints = ExactMatrix([[2, -1], [0, 7]])
        fractions = ExactMatrix([[Fraction(2), Fraction(-4, 4)], [Fraction(0), "7"]])
        assert ints == fractions and hash(ints) == hash(fractions)
        assert {ints: 1}[fractions] == 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            ExactMatrix([])
        with pytest.raises(DimensionMismatchError):
            ExactMatrix([[1, 2], [3]])

    def test_multiply_and_identity(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        assert a * ExactMatrix.identity(2) == a
        assert a * ExactMatrix([[0, 1], [1, 0]]) == ExactMatrix([[2, 1], [4, 3]])
        with pytest.raises(DimensionMismatchError):
            a * ExactMatrix([[1, 2, 3]])

    def test_is_symmetric(self):
        assert ExactMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 3]]).is_symmetric()
        assert not ExactMatrix([[1, 2], [3, 4]]).is_symmetric()
        for shape in ([[1, 2, 3]], [[1], [1]], [[1, 2, 3], [2, 1, 4]]):
            assert not ExactMatrix(shape).is_symmetric()

    def test_json_round_trip(self):
        m = ExactMatrix([[2, Fraction(-1, 4)], [0, 7]])
        doc = _json(m)
        assert doc == [["2", "-1/4"], ["0", "7"]]
        assert ExactMatrix(doc) == m

    def test_text_format(self):
        m = ExactMatrix([[Fraction(3, 4), -1], [0, Fraction(5)]])
        assert render_text({"entries": _json(m)}) == "entries:\n  3/4 -1\n  0 5"


class TestGcdLcmMatrices:
    def test_examples(self):
        assert gcd_matrix([2, 6, 12]) == ExactMatrix([[2, 2, 2], [2, 6, 6], [2, 6, 12]])
        assert lcm_matrix([2, 6, 12]) == ExactMatrix([[2, 6, 12], [6, 6, 12], [12, 12, 12]])
        assert gcd_matrix([7]) == ExactMatrix([[7]])
        assert lcm_matrix([7]) == ExactMatrix([[7]])

    def test_symmetry_and_entrywise_bounds(self):
        rng = SplitMix64(5)
        for _ in range(40):
            s = random_distinct_set(rng, rng.randint(1, 6), 500)
            g, l = gcd_matrix(s), lcm_matrix(s)
            assert g.is_symmetric() and l.is_symmetric()
            for i in range(len(s)):
                assert g[i][i] == s[i]
                for j in range(len(s)):
                    lo, hi = sorted((s[i], s[j]))
                    assert g[i][j] <= lo <= hi <= l[i][j]

    def test_mirrored_builds_match_the_literal_tables(self):
        rng = SplitMix64(7)
        sets = [random_distinct_set(rng, n, 10**4) for n in (1, 1, *range(2, 41))]
        sets += [random_distinct_set(rng, rng.randint(1, 12), 2**80) for _ in range(20)]
        sets += [OrderedSet([2**64 + 1, 2**65, 3 * 2**70, 6 * 2**64])]
        for s in sets:
            assert [list(row) for row in gcd_matrix(s)] == gcd_table(s)
            assert [list(row) for row in lcm_matrix(s)] == lcm_table(s)

    def test_hadamard_identity(self):
        rng = SplitMix64(6)
        for _ in range(40):
            s = random_distinct_set(rng, rng.randint(1, 6), 500)
            g, l = gcd_matrix(s), lcm_matrix(s)
            for i in range(len(s)):
                for j in range(len(s)):
                    assert g[i][j] * l[i][j] == s[i] * s[j]


class TestDeterminant:
    def test_examples(self):
        assert determinant(gcd_matrix([1, 2, 3, 4])) == 4  # totient product 1*1*2*2
        assert determinant(ExactMatrix([[Fraction(7, 3)]])) == Fraction(7, 3)
        assert determinant(gcd_matrix([2, 6, 12])) == 48

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            determinant(ExactMatrix([[1, 2]]))

    def test_matches_cofactor_oracle_on_random_rationals(self):
        rng = SplitMix64(8)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            assert determinant(ExactMatrix(rows)) == cofactor_determinant(rows)

    def test_singular_matrix_determinant_zero(self):
        assert determinant(ExactMatrix([[1, 2], [2, 4]])) == 0

    def test_totient_product_for_factor_closed(self):
        rng = SplitMix64(9)
        seen = set()
        while len(seen) < 20:
            seeds = tuple(rng.randint(2, 100) for _ in range(rng.randint(1, 3)))
            closed = divisor_closure(seeds)
            if closed in seen or len(closed) > 24:
                continue
            seen.add(closed)
            assert determinant(gcd_matrix(closed)) == totient_product(closed)

    def test_filtered_totient_product_for_gcd_closed(self):
        rng = SplitMix64(10)
        seen = set()
        while len(seen) < 20:
            seeds = tuple(rng.randint(2, 150) for _ in range(rng.randint(2, 5)))
            closed = gcd_closure(seeds)
            if closed in seen or len(closed) > 10:
                continue
            seen.add(closed)
            assert determinant(gcd_matrix(closed)) == filtered_totient_product(closed)


class TestAllMinors:
    """The exhaustive-minors oracle on the fraction-free LU, against the
    cofactor one, and Neville elimination where it applies (symmetric
    nonsingular matrices)."""

    def test_tn_example(self):
        g = gcd_matrix([2, 6, 12])
        assert first_negative_minor_lu(g.entries) is None
        assert is_totally_nonnegative(g)

    def test_negative_witness(self):
        g = gcd_matrix([2, 3, 4])
        assert first_negative_minor_lu(g.entries) == ((1, 2), (2, 3), -5)
        assert not is_totally_nonnegative(g)

    def test_one_by_one(self):
        assert first_negative_minor_lu([[5]]) is None
        assert first_negative_minor_lu([[-1]]) == ((1,), (1,), -1)
        assert is_totally_nonnegative(ExactMatrix([[5]]))
        assert not is_totally_nonnegative(ExactMatrix([[-1]]))

    def test_size_cap(self):
        """No order is refused: the chain 2^0..2^8, past the old cap of 8,
        is TN, and one adjacent swap makes it not TN."""
        chain = [2**k for k in range(9)]
        assert first_negative_minor_lu(gcd_matrix(chain).entries) is None
        assert is_totally_nonnegative(gcd_matrix(chain))
        chain[4], chain[5] = chain[5], chain[4]
        assert first_negative_minor_lu(gcd_matrix(chain).entries) is not None
        assert not is_totally_nonnegative(gcd_matrix(chain))

    def test_witness_is_first_in_enumeration_order(self):
        # entry (1,2) of this matrix is the first negative 1x1 minor
        assert first_negative_minor_lu([[1, -2], [3, 4]]) == ((1,), (2,), -2)

    def test_witness_matches_independent_enumeration(self):
        rng = SplitMix64(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 9) for _ in range(n)] for _ in range(n)]
            assert first_negative_minor_lu(rows) == first_negative_minor(rows)


def neville_families(seed, count):
    """(elements, kind) for gcd matrices up to n = 7: random sets, TN sets,
    and TN sets with one adjacent pair swapped."""
    rng = SplitMix64(seed)
    for t in range(count):
        n = rng.randint(1, 7)
        kind = ("random", "tn", "swapped")[t % 3]
        if kind == "random":
            yield list(random_distinct_set(rng, n, 10**4)), kind
            continue
        s = list(random_monotone_set(rng, n))
        if kind == "swapped" and n > 1:
            i = rng.below(n - 1)
            s[i], s[i + 1] = s[i + 1], s[i]
        yield s, kind


class TestNeville:
    """is_totally_nonnegative decides what the exhaustive minors decide."""

    def test_agrees_with_the_minors_on_gcd_matrices(self):
        verdicts = {}
        for s, kind in neville_families(seed=31, count=300):
            g = gcd_matrix(s)
            expected = first_negative_minor_lu(g.entries) is None
            assert is_totally_nonnegative(g) == expected, s
            verdicts[kind, expected] = verdicts.get((kind, expected), 0) + 1
        assert verdicts.get(("tn", True)) == 100
        assert verdicts.get(("swapped", False), 0) >= 50
        assert min(verdicts.get(("random", v), 0) for v in (True, False)) >= 10, verdicts

    def test_agrees_with_the_minors_on_signed_symmetric_matrices(self):
        """Signed and fractional entries reach the sign test, the negated
        pair and the cleared denominators; a singular matrix reads False."""
        rng = SplitMix64(32)
        verdicts = {"tn": 0, "not": 0, "singular": 0}
        for t in range(600):
            n = rng.randint(1, 5)
            lo = (-2, 0, 1)[t % 3]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(lo, 6), rng.randint(1, 2))
            got = is_totally_nonnegative(ExactMatrix(rows))
            if cofactor_determinant(rows) == 0:
                assert got is False
                verdicts["singular"] += 1
            else:
                expected = first_negative_minor(rows) is None
                assert got == expected, rows
                verdicts["tn" if expected else "not"] += 1
        assert min(verdicts.values()) >= 10, verdicts

    @given(st.lists(st.integers(1, 10**4), min_size=1, max_size=6, unique=True), st.booleans())
    def test_agrees_with_the_minors_property(self, elements, monotone):
        s = sorted(elements) if monotone else elements
        g = gcd_matrix(s)
        assert is_totally_nonnegative(g) == (first_negative_minor_lu(g.entries) is None)

    def test_needs_a_symmetric_square_matrix(self):
        with pytest.raises(NotSymmetricError):
            is_totally_nonnegative(ExactMatrix([[1, 2], [3, 4]]))
        with pytest.raises(NotSquareError):
            is_totally_nonnegative(ExactMatrix([[1, 2]]))


class TestSolveRight:
    def test_quotient_example(self):
        x = solve_right(gcd_matrix([2, 6, 12]), lcm_matrix([2, 6, 12]))
        assert x == ExactMatrix([[0, 0, 1], [3, -1, 1], [6, 0, 0]])
        assert x * gcd_matrix([2, 6, 12]) == lcm_matrix([2, 6, 12])

    def test_identity_and_scalar(self):
        a = gcd_matrix([4, 10, 12])
        assert solve_right(a, a) == ExactMatrix.identity(3)
        assert solve_right(ExactMatrix([[4]]), ExactMatrix([[7]])) == ExactMatrix([[Fraction(7, 4)]])

    def test_exactness_on_random_systems(self):
        rng = SplitMix64(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            s = random_distinct_set(rng, n, 300)
            a = gcd_matrix(s)
            b = ExactMatrix(
                [[Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(rng.randint(1, 4))]
            )
            assert solve_right(a, b) * a == b
        # non-symmetric coefficients: solving a * x = b in place of x * a = b fails these
        rng = SplitMix64(15)
        solved = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(n)
            ]
            if cofactor_determinant(rows) == 0:
                continue
            a = ExactMatrix(rows)
            assert not a.is_symmetric()
            b = ExactMatrix(
                [[Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(rng.randint(1, 4))]
            )
            x = solve_right(a, b)
            assert x * a == b
            solved += 1
        assert solved >= 50

    def test_errors(self):
        for solve in (solve_right, integral_solve_right):
            with pytest.raises(SingularMatrixError):
                solve(ExactMatrix([[1, 2], [2, 4]]), ExactMatrix.identity(2))
            with pytest.raises(DimensionMismatchError):
                solve(ExactMatrix([[1, 2]]), ExactMatrix.identity(2))
            with pytest.raises(DimensionMismatchError):
                solve(ExactMatrix.identity(2), ExactMatrix([[1, 2, 3]]))


class TestIntegralSolveRight:
    # rational and not symmetric; a[0][0] = 0, so the LU of a's transpose swaps rows
    A = [[0, Fraction(1, 2), 3], [Fraction(2, 3), 5, -1], [4, Fraction(1, 7), 2]]

    def test_rational_coefficients_with_a_row_swap(self):
        a = ExactMatrix(self.A)
        assert a._factorization()[2]  # the recorded swaps
        integral = ExactMatrix([[1, -2, 0], [3, 0, 5], [-4, 7, 1]])
        assert integral_solve_right(a, integral * a) == (integral, None)
        b = ExactMatrix([[1, 0, 2], [0, Fraction(1, 3), 0], [5, 1, 1]])
        violation = first_non_integral(solve_right(a, b))
        assert violation is not None
        assert integral_solve_right(a, b) == (None, violation)

    def test_matches_solve_right_on_random_systems(self):
        rng = SplitMix64(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = gcd_matrix(random_distinct_set(rng, n, 300))
            b = ExactMatrix(
                [[rng.randint(-30, 30) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            )
            x = solve_right(a, b)
            violation = first_non_integral(x)
            assert integral_solve_right(a, b) == ((None, violation) if violation else (x, None))


def assert_normal(m):
    """m is what the constructor would make of its own entries: a tuple of
    tuples of ints and Fractions with a denominator above 1."""
    rebuilt = ExactMatrix(m.entries)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.entries) is tuple
    for row in m:
        assert type(row) is tuple
        for e in row:
            assert type(e) is int or (type(e) is Fraction and e.denominator > 1), repr(e)


class TestInternalBuilds:
    """Matrices the module builds without the constructor's entry pass must
    hold what the constructor would have made of the same entries."""

    def test_gcd_lcm_matrices_and_transposes(self):
        rng = SplitMix64(23)
        for _ in range(40):
            s = random_distinct_set(rng, rng.randint(1, 8), 2**70)
            for m in (gcd_matrix(s), lcm_matrix(s)):
                assert_normal(m)
                assert_normal(m.transpose())

    def test_solves(self):
        rng = SplitMix64(29)
        cases = [(ExactMatrix(TestIntegralSolveRight.A), 3)]
        cases += [(gcd_matrix(random_distinct_set(rng, n, 300)), n) for n in (1, 2, 3, 4, 5, 8)]
        for a, n in cases:
            rhs = [
                [rng.randint(-30, 30) for _ in range(n)],
                [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n)],
            ]
            integral = ExactMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)])
            for b in (*(ExactMatrix([row]) for row in rhs), ExactMatrix(rhs), integral * a):
                x = solve_right(a, b)
                assert_normal(x)
                assert_normal(x.transpose())
                assert x * a == b
                witness, violation = integral_solve_right(a, b)
                if witness is not None:
                    assert_normal(witness)
                    assert witness == x
                else:
                    assert violation == first_non_integral(x)
            assert integral_solve_right(a, integral * a) == (integral, None)


class TestCachedFactorization:
    """determinant, is_positive_definite and solve_right share one LU kept
    with the matrix; the order of the calls must not change any answer."""

    RHS = [[1, Fraction(2, 3), -5], [7, 0, Fraction(1, 9)]]
    CASES = [
        # the gcd matrix of (2, 6, 12): symmetric, positive definite
        ([[2, 2, 2], [2, 6, 6], [2, 6, 12]], True),
        # symmetric with a zero leading entry, so the LU swaps rows: indefinite
        ([[0, 2, 1], [2, 1, 3], [1, 3, 5]], False),
        # rational, not symmetric
        ([[Fraction(1, 2), 3, Fraction(-2, 3)], [4, Fraction(5, 7), 1], [0, 2, Fraction(9, 4)]],
         None),
    ]

    @classmethod
    def answers(cls, m, order):
        calls = {
            "det": lambda: determinant(m),
            "pd": lambda: is_positive_definite(m) if m.is_symmetric() else None,
            "solve": lambda: solve_right(m, ExactMatrix(cls.RHS)),
        }
        return {name: calls[name]() for name in order}

    def test_every_call_order_agrees(self):
        from itertools import permutations

        for rows, definite in self.CASES:
            fresh = self.answers(ExactMatrix(rows), ["det", "pd", "solve"])
            assert fresh["det"] == cofactor_determinant(rows)
            assert fresh["pd"] is definite
            assert fresh["solve"] * ExactMatrix(rows) == ExactMatrix(self.RHS)
            shared = ExactMatrix(rows)
            for order in permutations(fresh):
                assert self.answers(shared, order) == fresh
                assert self.answers(ExactMatrix(rows), order) == fresh

    def test_singular_matrix_raises_every_time(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [3, 6, 10]])
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                solve_right(m, ExactMatrix.identity(3))
            assert determinant(m) == 0
            assert not is_positive_definite(m)


def cleared_transpose(entries):
    """The rows of a matrix's transpose times one scale, the lcm of all its
    denominators, and that scale."""
    scale = lcm(*[Fraction(e).denominator for row in entries for e in row])
    return [[int(e * scale) for e in col] for col in zip(*entries)], scale


def general_lu(entries):
    """The cached LU the general Bareiss pass makes of a square matrix."""
    rows, scale = cleared_transpose(entries)
    return (rows, *fraction_free_lu(rows), scale)


def symmetric_rows(rng, n, lo, hi):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


class TestSymmetricElimination:
    """A symmetric matrix is eliminated on and above the diagonal only; its
    cached LU must equal the general pass's, entry for entry."""

    @staticmethod
    def families(rng):
        for _ in range(1500):
            n = rng.randint(1, 7)
            yield symmetric_rows(rng, n, -3, 3)
            zeroed = symmetric_rows(rng, n, -3, 3)
            for i in range(n):
                if rng.randint(0, 2) == 0:
                    zeroed[i][i] = 0
            yield zeroed
            yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for _ in range(300):
            yield gcd_matrix(random_distinct_set(rng, rng.randint(1, 30), 10**6)).entries
            n = rng.randint(2, 6)
            yield [
                [Fraction(e, rng.randint(1, 4)) for e in row]
                for row in symmetric_rows(rng, n, -9, 9)
            ]
        yield [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]]

    def test_matches_the_general_pass(self):
        seen = {"matrices": 0, "symmetric": 0, "switched": 0, "swaps": 0, "zero_column": 0}
        for entries in self.families(SplitMix64(19)):
            rows, scale = cleared_transpose(entries)
            symmetric = rows == [list(col) for col in zip(*rows)]
            pivots, swaps = fraction_free_lu(rows)
            assert ExactMatrix(entries)._factorization() == (rows, pivots, swaps, scale), entries
            zero_column = len(pivots) < len(entries)
            seen["matrices"] += 1
            seen["symmetric"] += symmetric
            seen["switched"] += symmetric and (bool(swaps) or zero_column)
            seen["swaps"] += bool(swaps)
            seen["zero_column"] += zero_column
        assert seen["matrices"] >= 5000
        assert seen["symmetric"] >= 2500 and seen["switched"] >= 500, seen
        assert seen["swaps"] >= 500 and seen["zero_column"] >= 20, seen

    def test_every_small_symmetric_3x3(self):
        """All 5**6 symmetric 3x3 matrices with entries in -2..2, zero pivots
        and row swaps included: the same LU, determinant and solves."""
        b = ExactMatrix([[1, 0, 0], [2, -1, 3]])
        seen = {"singular": 0, "swaps": 0}
        for a, b_, c, d, e, f in product(range(-2, 3), repeat=6):
            entries = [[a, b_, c], [b_, d, e], [c, e, f]]
            general = general_lu(entries)
            m = ExactMatrix(entries)
            assert m._factorization() == general, entries
            det = determinant(m)
            assert det == general[1][-1], entries
            if det == 0:
                seen["singular"] += 1
                with pytest.raises(SingularMatrixError):
                    solve_right(m, b)
            else:
                assert solve_right(m, b) * m == b, entries
            seen["swaps"] += bool(general[2])
        assert seen["singular"] > 1000 and seen["swaps"] > 1000, seen

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.booleans(),
        st.integers(1, 3),
    )
    def test_matches_the_general_pass_property(self, grid, mirror, denominator):
        n = len(grid)
        rows = [
            [Fraction(grid[min(i, j)][max(i, j)] if mirror else grid[i][j], denominator)
             for j in range(n)]
            for i in range(n)
        ]
        assert ExactMatrix(rows)._factorization() == general_lu(rows)


class TestSymmetricRouting:
    """_factorization passes symmetric=True exactly when the matrix is
    symmetric: one scale clears the whole transpose, so its cleared rows are
    symmetric exactly when the entries are."""

    @staticmethod
    def recorded(monkeypatch, run):
        seen = []
        bareiss = exactmatrix._bareiss

        def recorder(rows, symmetric=False):
            seen.append(symmetric)
            return bareiss(rows, symmetric)

        monkeypatch.setattr(exactmatrix, "_bareiss", recorder)
        run()
        return seen

    @pytest.mark.parametrize(
        "rows, symmetric",
        [
            (gcd_matrix(random_distinct_set(SplitMix64(20), 12, 10**6)).entries, True),
            # singular: the zero pivot at step 1 switches to the general pass
            ([[1, 2, 3], [2, 4, 6], [3, 6, 10]], True),
            # rational and symmetric: the scale 6 clears it to [[3, 2], [2, 6]]
            ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]], True),
            # not symmetric: the scale 2 clears its transpose to [[2, 2], [1, 2]]
            ([[1, Fraction(1, 2)], [1, 1]], False),
            ([[1, 2], [3, 4]], False),
        ],
    )
    def test_factorization(self, monkeypatch, rows, symmetric):
        assert self.recorded(monkeypatch, lambda: determinant(ExactMatrix(rows))) == [symmetric]


class TestPositiveDefinite:
    def test_examples(self):
        assert not is_positive_definite(ExactMatrix([[0]]))
        assert is_positive_definite(ExactMatrix([[2, 2], [2, 6]]))
        with pytest.raises(NotSymmetricError):
            is_positive_definite(ExactMatrix([[1, 2], [3, 4]]))
        with pytest.raises(NotSquareError):
            is_positive_definite(ExactMatrix([[1, 2]]))

    def test_gcd_matrices_always_positive_definite(self):
        rng = SplitMix64(12)
        for _ in range(50):
            s = random_distinct_set(rng, rng.randint(1, 6), 10**6)
            assert is_positive_definite(gcd_matrix(s))

    def test_two_swaps_are_not_positive_definite(self):
        # det = +1 after two row swaps, so the swap sign alone would miss it
        m = ExactMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert determinant(m) == 1
        assert not is_positive_definite(m)

    def test_matches_leading_minor_oracle_on_random_symmetric(self):
        rng = SplitMix64(16)
        verdicts = {"definite": 0, "singular": 0, "indefinite": 0}
        for trial in range(120):
            n = rng.randint(1, 5)
            if trial % 2:
                # Gram matrix B^T B: positive semidefinite, singular when B has
                # fewer than n independent rows
                b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
                rows = [
                    [Fraction(sum(r[i] * r[j] for r in b), 1 + trial % 3) for j in range(n)]
                    for i in range(n)
                ]
            else:
                rows = [[Fraction(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 9), rng.randint(1, 3))
            leading = [cofactor_determinant([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
            expected = all(d > 0 for d in leading)
            assert is_positive_definite(ExactMatrix(rows)) == expected
            if expected:
                verdicts["definite"] += 1
            elif leading[-1] == 0:
                verdicts["singular"] += 1
            else:
                verdicts["indefinite"] += 1
        assert min(verdicts.values()) >= 10, verdicts
