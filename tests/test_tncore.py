import time
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from gcdmat import tncore
from gcdmat.cli import _json
from gcdmat.divisibility import divide, divide_oracle
from gcdmat.errors import InternalConsistencyError, InvalidArgumentError, NotTnError
from gcdmat.exactmatrix import (
    ExactMatrix,
    gcd_matrix,
    is_totally_nonnegative,
    lcm_matrix,
    solve_right,
)
from gcdmat.generate import SplitMix64, random_monotone_exponents, random_monotone_set
from gcdmat.setmodel import ExponentMatrix, is_column_monotone, pow_matrix, power_set, reconstruct
from gcdmat.tncore import (
    METHOD_TRIPLE,
    TnVerdict,
    TridiagonalInverse,
    check_tn_triple,
    quotient_closed_form,
    single_pair_identities_hold,
    tridiagonal_inverse,
)

from oracles import (
    check_quadruple_identity,
    check_tn_monotone,
    first_negative_minor_lu,
    first_violating_triple,
    lcm_from_gcds,
    perturbed_exponents,
    random_distinct_set,
    shuffled,
)

PASCAL_SET = [210, 5402250, 238338491343750, 126233858791143985957031250]


def literal_verdict(x):
    """The verdict check_tn_triple must give, from the literal O(n^3) scan."""
    witness = first_violating_triple(tuple(x))
    return TnVerdict(witness is None, METHOD_TRIPLE, witness)


def sample_sets(seed, count, n_range=(1, 6), max_value=400):
    """Mix of monotone, shuffled-monotone, perturbed, and raw random sets."""
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        n = rng.randint(*n_range)
        kind = i % 4
        if kind == 0:
            out.append(reconstruct(random_monotone_exponents(rng, n)))
        elif kind == 1:
            out.append(shuffled(rng, reconstruct(random_monotone_exponents(rng, n))))
        elif kind == 2:
            matrix = perturbed_exponents(rng, random_monotone_exponents(rng, n))
            out.append(reconstruct(matrix))
        else:
            out.append(random_distinct_set(rng, n, max_value))
    return out


class TestCheckTnTriple:
    def test_examples(self):
        assert check_tn_triple([2, 6, 12]).is_tn
        verdict = check_tn_triple([2, 3, 4])
        assert not verdict.is_tn
        assert verdict.method == "TripleIdentity"
        assert verdict.witness == (1, 2, 3)

    def test_chains_are_tn(self):
        rng = SplitMix64(21)
        for _ in range(20):
            start = rng.randint(1, 10)
            chain = [start]
            for _ in range(rng.randint(2, 5)):
                chain.append(chain[-1] * rng.randint(2, 5))
            assert check_tn_triple(chain).is_tn

    def test_small_sets_use_the_triple_scan(self):
        for s in ([7], [4, 10], [3, 5]):
            verdict = check_tn_triple(s)
            assert verdict.is_tn
            assert verdict.method == "TripleIdentity"

    def test_witness_matches_the_literal_scan(self):
        witnesses = set()
        for s in sample_sets(seed=25, count=200, n_range=(1, 14)):
            verdict = check_tn_triple(s)
            assert verdict == literal_verdict(s), s
            witnesses.add(verdict.witness)
        assert None in witnesses and len(witnesses) >= 15

    def test_every_small_ordered_tuple_matches_the_literal_scan(self):
        witnesses = set()
        for r in (1, 2, 4):
            for s in permutations(range(1, 13), r):
                verdict = check_tn_triple(s)
                assert verdict == literal_verdict(s), s
                witnesses.add(verdict.witness)
        # a first violating triple has i = 1: when every (1, j, k) holds, each
        # exponent lies between the first's and every later one's, so every
        # column is monotone
        assert witnesses == {None, (1, 2, 3), (1, 2, 4), (1, 3, 4)}

    @given(st.lists(st.integers(1, 2**12), min_size=1, max_size=7, unique=True))
    def test_matches_the_literal_scan_property(self, x):
        assert check_tn_triple(x) == literal_verdict(x)

    @pytest.mark.parametrize("family", ["swap_last_rows", "above_column_max", "below_column_min"])
    def test_late_violations_match_the_literal_scan(self, family):
        rng = SplitMix64(31)
        made = 0
        while made < 40:
            m = random_monotone_exponents(rng, rng.randint(3, 10), max_exp=10)
            grid = [list(row) for row in m.exponents]
            col = rng.below(m.k)
            column = [row[col] for row in grid]
            if family == "swap_last_rows":
                grid[-2], grid[-1] = grid[-1], grid[-2]
            elif family == "above_column_max":
                grid[-2][col] = max(column) + 1
            elif min(column) > 0:
                grid[-2][col] = min(column) - 1
            else:
                continue
            s = reconstruct(ExponentMatrix(m.primes, grid))
            verdict = check_tn_triple(s)
            # triples with k <= n-2 read only the untouched monotone rows
            assert not verdict.is_tn and verdict.witness[2] >= len(s) - 1, s
            assert verdict == literal_verdict(s), s
            made += 1

    def test_301_element_chain(self):
        chain = [2**i * 3 ** (300 - i) for i in range(301)]
        start = time.perf_counter()
        verdict = check_tn_triple(chain)
        assert time.perf_counter() - start < 1.0
        assert verdict == TnVerdict(True, METHOD_TRIPLE)
        chain[150], chain[151] = chain[151], chain[150]
        assert check_tn_triple(chain) == TnVerdict(False, METHOD_TRIPLE, (1, 151, 152))

    def test_a_flagged_pair_without_a_failing_triple_raises(self):
        with pytest.raises(InternalConsistencyError, match=r"pair \(1, 2\)"):
            tncore._first_violating_k((2, 6, 12), 0, 1)

    def test_json_dict(self):
        assert _json(check_tn_triple([2, 3, 4])) == {
            "is_tn": False,
            "method": "TripleIdentity",
            "witness": [1, 2, 3],
        }


class TestThreeWayAgreement:
    def test_deciders_agree(self):
        for s in sample_sets(seed=22, count=120):
            triple = check_tn_triple(s).is_tn
            monotone = bool(is_column_monotone(pow_matrix(s)))
            g = gcd_matrix(s)
            minors = first_negative_minor_lu(g.entries) is None
            assert triple == monotone == minors == is_totally_nonnegative(g), s

    def test_monotone_verdict_matches_and_witness_violates_triple(self):
        from math import gcd as g

        for s in sample_sets(seed=23, count=80):
            verdict = check_tn_monotone(s)
            assert verdict.is_tn == check_tn_triple(s).is_tn
            if not verdict.is_tn and verdict.method == "ColumnMonotone":
                i, j, k = (idx - 1 for idx in verdict.witness)
                x = s.elements
                assert g(x[i], x[j]) * g(x[j], x[k]) != x[j] * g(x[i], x[k])


class TestCheckTnSinglePair:
    """The 2n-1 single-pair identities, the TN decision behind every closed form."""

    def test_examples(self):
        assert single_pair_identities_hold([2, 6, 12])
        assert single_pair_identities_hold(PASCAL_SET)
        assert not single_pair_identities_hold([2, 3, 4])

    def test_small_sets_use_minors(self):
        for s in ([7], [4, 10], [3, 5]):
            assert single_pair_identities_hold(s)

    def test_only_a_consecutive_identity_fails(self):
        # the exponents of 3 read 0, 1, 0, 1: every one lies between the
        # ends', so the diagonal identities hold, but the column turns back
        x = [2, 12, 4, 24]
        assert all(v * gcd(x[0], x[-1]) == gcd(x[0], v) * gcd(v, x[-1]) for v in x)
        assert not single_pair_identities_hold(x)


class TestFourWayAgreement:
    """Single-pair, triple, monotone, minors and Neville deciders give one verdict."""

    def test_all_ordered_small_subsets(self):
        tn = 0
        for r in (3, 4):
            for s in permutations(range(1, 15), r):
                triple = check_tn_triple(s)
                assert single_pair_identities_hold(s) == triple.is_tn, s
                assert check_tn_monotone(s).is_tn == triple.is_tn, s
                g = gcd_matrix(s)
                assert (first_negative_minor_lu(g.entries) is None) == triple.is_tn, s
                assert is_totally_nonnegative(g) == triple.is_tn, s
                tn += triple.is_tn
        assert 0 < tn < 26208

    def test_shuffled_monotone_sets_at_n60(self):
        rng = SplitMix64(60)
        outcomes = set()
        for _ in range(3):
            s = random_monotone_set(rng, 60, max_exp=40, max_primes=6)
            for candidate in (s, shuffled(rng, s)):
                single = single_pair_identities_hold(candidate)
                assert single == check_tn_triple(candidate).is_tn
                assert single == check_tn_monotone(candidate).is_tn
                assert single == is_totally_nonnegative(gcd_matrix(candidate))
                outcomes.add(single)
        assert outcomes == {True, False}


class TestVerdictArgumentIsIgnored:
    """A false positive verdict cannot make the closed form accept a non-TN set."""

    @pytest.mark.parametrize("x", [[2, 3, 4], [6, 10, 15]])
    def test_false_verdict_raises_not_tn(self, x):
        with pytest.raises(NotTnError):
            quotient_closed_form(x, TnVerdict(True, "TripleIdentity"))


class TestSmallSets:
    """Every set with n <= 2 is TN, and the closed forms hold there too."""

    def test_every_pair_and_singleton(self):
        sets = [(x,) for x in range(1, 101)]
        sets += [(a, b) for a in range(1, 61) for b in range(1, 61) if a != b]
        assert len(sets) == 100 + 3540
        for s in sets:
            g = gcd_matrix(s)
            assert quotient_closed_form(s) == divide_oracle(s).witness, s
            assert tridiagonal_inverse(s).as_matrix() == solve_right(
                g, ExactMatrix.identity(len(s))
            ), s
            assert divide(s).method == "closed-form", s
            assert check_tn_triple(s).is_tn and check_tn_monotone(s).is_tn, s


class TestQuadrupleIdentity:
    def test_examples(self):
        assert check_quadruple_identity([2, 6, 12])
        assert check_quadruple_identity(PASCAL_SET)

    def test_requires_tn(self):
        with pytest.raises(NotTnError):
            check_quadruple_identity([2, 3, 4])

    def test_two_index_specialization(self):
        from math import gcd as g

        for s in sample_sets(seed=24, count=60, n_range=(3, 6)):
            if not check_tn_triple(s).is_tn:
                continue
            assert check_quadruple_identity(s)
            x = s.elements
            n = len(x)
            for i in range(n):
                for j in range(i, n):
                    assert g(x[i], x[j]) * g(x[0], x[n - 1]) == g(x[0], x[j]) * g(x[i], x[n - 1])


class TestLcmFromGcds:
    def test_examples(self):
        assert lcm_from_gcds([2, 6, 12], 1, 2) == 6
        assert lcm_from_gcds([2, 6, 12], 2, 3) == 12
        assert lcm_from_gcds([2, 6, 12], 1, 1) == 2

    def test_index_errors(self):
        with pytest.raises(InvalidArgumentError, match=r"need i <= j, got \(2, 1\)"):
            lcm_from_gcds([2, 6, 12], 2, 1)
        with pytest.raises(ValueError):
            lcm_from_gcds([2, 6, 12], 0, 2)
        with pytest.raises(NotTnError):
            lcm_from_gcds([2, 3, 4], 1, 2)

    def test_matches_lcm_everywhere_on_tn_sets(self):
        rng = SplitMix64(25)
        for _ in range(40):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 7)))
            for i in range(1, len(s) + 1):
                for j in range(i, len(s) + 1):
                    assert lcm_from_gcds(s, i, j) == lcm(s[i - 1], s[j - 1])


class TestTridiagonalInverse:
    def test_worked_example(self):
        tri = tridiagonal_inverse([2, 6, 12])
        assert tri.sub_super == (Fraction(-1, 4), Fraction(-1, 6))
        assert tri.diagonal == (Fraction(3, 4), Fraction(5, 12), Fraction(1, 6))
        assert tri.as_matrix() * gcd_matrix([2, 6, 12]) == ExactMatrix.identity(3)

    def test_errors(self):
        tri = tridiagonal_inverse([2, 6])
        assert tri.sub_super == (Fraction(-1, 4),)
        assert tri.diagonal == (Fraction(3, 4), Fraction(1, 4))
        assert tridiagonal_inverse([7]) == TridiagonalInverse((), (Fraction(1, 7),))
        with pytest.raises(NotTnError):
            tridiagonal_inverse([2, 3, 4])

    def test_matches_solve_right_on_random_tn_sets(self):
        rng = SplitMix64(26)
        for _ in range(30):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 7)))
            tri = tridiagonal_inverse(s)
            assert all(a < 0 for a in tri.sub_super)
            inverse = tri.as_matrix()
            g = gcd_matrix(s)
            assert inverse * g == ExactMatrix.identity(len(s))
            assert inverse == solve_right(g, ExactMatrix.identity(len(s)))


class TestQuotientClosedForm:
    def test_worked_example(self):
        u = quotient_closed_form([2, 6, 12])
        assert u == ExactMatrix([[0, 0, 1], [3, -1, 1], [6, 0, 0]])
        assert u * gcd_matrix([2, 6, 12]) == lcm_matrix([2, 6, 12])

    def test_pascal_set(self):
        u = quotient_closed_form(PASCAL_SET)
        assert u.is_integral()
        assert u * gcd_matrix(PASCAL_SET) == lcm_matrix(PASCAL_SET)
        assert u == solve_right(gcd_matrix(PASCAL_SET), lcm_matrix(PASCAL_SET))

    def test_errors(self):
        assert quotient_closed_form([2, 6]) == ExactMatrix([[0, 1], [3, 0]])
        assert quotient_closed_form([7]) == ExactMatrix([[1]])
        with pytest.raises(NotTnError):
            quotient_closed_form([2, 3, 4])

    def test_corners_and_sparsity(self):
        rng = SplitMix64(27)
        for _ in range(40):
            n = rng.randint(3, 8)
            s = reconstruct(random_monotone_exponents(rng, n))
            u = quotient_closed_form(s)
            assert u[0][0] == 0 and u[n - 1][n - 1] == 0
            for i in range(n):
                nonzero = {j for j in range(n) if u[i][j] != 0}
                assert nonzero <= {0, i, n - 1}
            for j in range(1, n - 1):  # interior columns hold just the -1 diagonal
                assert sum(u[i][j] for i in range(n)) == -1

    def test_matches_oracle_and_integral(self):
        rng = SplitMix64(28)
        for _ in range(30):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 8)))
            u = quotient_closed_form(s)
            assert u.is_integral()
            assert u == solve_right(gcd_matrix(s), lcm_matrix(s))


class TestPowersOfMonotoneSets:
    def test_monotone_sets_stay_tn_under_powers(self):
        rng = SplitMix64(29)
        for _ in range(15):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 6), max_exp=4))
            for e in (1, 2, 3):
                powered = power_set(s, e)
                assert check_tn_triple(powered).is_tn
