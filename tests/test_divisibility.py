import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from gcdmat import exactmatrix
from gcdmat.cli import _json
from gcdmat.divisibility import (
    DivisibilityReport,
    _gcd_closed_candidates,
    divide,
    divide_oracle,
    search_gcd_closed_nondivisor,
)
from gcdmat.errors import InvalidArgumentError
from gcdmat.exactmatrix import ExactMatrix, gcd_matrix, lcm_matrix
from gcdmat.generate import SplitMix64, random_monotone_exponents
from gcdmat.numtheory import divisors
from gcdmat.setmodel import ExponentMatrix, OrderedSet, is_gcd_closed, power_set, reconstruct
from gcdmat.tncore import check_tn_triple, quotient_closed_form, single_pair_identities_hold

from oracles import (
    divisor_closure,
    first_non_integral,
    perturbed_exponents,
    random_distinct_set,
    random_tree_set,
    rational_quotient,
    shuffled,
    unreduced_divide_oracle,
)

SIX_ELEMENT = [330812181, 551353635, 7501410, 2976750, 5512500000, 18750000000]


def assert_same_verdict(report: DivisibilityReport, oracle: DivisibilityReport) -> None:
    assert (report.divides, report.witness, report.violation) == (
        oracle.divides, oracle.witness, oracle.violation
    )


class TestDivideOracle:
    def test_worked_example(self):
        report = divide_oracle([2, 6, 12])
        assert report.divides
        assert report.witness == ExactMatrix([[0, 0, 1], [3, -1, 1], [6, 0, 0]])
        assert report.violation is None

    def test_small_gcd_closed_set(self):
        report = divide_oracle([1, 2, 3])
        assert report.divides
        assert report.witness * gcd_matrix([1, 2, 3]) == lcm_matrix([1, 2, 3])

    def test_singleton(self):
        report = divide_oracle([42])
        assert report.divides
        assert report.witness == ExactMatrix([[1]])

    def test_non_divisor_reports_first_violation(self):
        report = divide_oracle([1, 2, 3, 12])
        assert not report.divides
        assert report.witness is None
        assert report.violation == (2, 1, Fraction(3, 4))

    def test_witnesses_hold_ints(self):
        witnesses = [divide_oracle([1, 2, 3]).witness, divide([1, 2, 3]).witness]
        for elems in ([2, 6, 12], SIX_ELEMENT, [42]):
            witnesses += [divide_oracle(elems).witness, divide(elems).witness]
            witnesses.append(quotient_closed_form(elems))
        for witness in witnesses:
            assert all(type(e) is int for row in witness for e in row), witness

    def test_left_witness_transpose(self):
        for elems in ([2, 6, 12], [1, 2, 3], SIX_ELEMENT):
            report = divide_oracle(elems)
            assert gcd_matrix(elems) * report.witness.transpose() == lcm_matrix(elems)

    def test_json_schema(self):
        doc = _json(divide_oracle([1, 2, 3, 12]))
        assert doc == {
            "divides": False,
            "witness": None,
            "violation": [2, 1, "3/4"],
            "method": "oracle",
        }
        doc = _json(divide_oracle([2, 6, 12]))
        assert doc["divides"] is True
        assert doc["witness"] == [["0", "0", "1"], ["3", "-1", "1"], ["6", "0", "0"]]
        assert doc["violation"] is None


class TestRowByRowOracle:
    """divide_oracle solves the quotient's rows in order and stops after the
    first row with a non-integral entry."""

    @staticmethod
    def families():
        rng = SplitMix64(46)
        for _ in range(120):
            yield random_distinct_set(rng, rng.randint(1, 12), 400)
        for n in (3, 4, 5):
            yield from list(_gcd_closed_candidates(n, 300))[::7]
        for _ in range(60):
            grid = random_monotone_exponents(rng, rng.randint(3, 8), max_exp=4)
            yield reconstruct(perturbed_exponents(rng, grid, max_exp=4))

    def test_matches_rational_quotient(self):
        later_rows = non_tn_divisors = 0
        for s in self.families():
            report = divide_oracle(s)
            quotient = rational_quotient(s)
            violation = first_non_integral(quotient)
            assert report.violation == violation, s
            assert report.divides == (violation is None), s
            if report.divides:
                assert report.witness == ExactMatrix(quotient), s
                non_tn_divisors += not single_pair_identities_hold(s)
            else:
                assert report.witness is None
                later_rows += violation[0] >= 2
        # both the early exit past row 1 and the full solve of a non-TN set ran
        assert later_rows > 20 and non_tn_divisors > 20, (later_rows, non_tn_divisors)

    def test_stops_after_the_violating_row(self, monkeypatch):
        solved = []
        solve_row = exactmatrix._solve_row

        def counted(lu, b_row):
            solved.append(b_row)
            return solve_row(lu, b_row)

        monkeypatch.setattr(exactmatrix, "_solve_row", counted)
        assert divide_oracle([1, 2, 3, 12]).violation[0] == 2
        assert len(solved) == 2
        solved.clear()
        s = random_distinct_set(SplitMix64(1), 30, 1000)
        assert divide_oracle(s).violation[0] == 1
        assert len(solved) == 1
        solved.clear()
        assert divide_oracle([2, 6, 12]).divides
        assert len(solved) == 3


class TestScaleReduction:
    """divide_oracle solves on S/gcd(S): the gcd and lcm matrices of g*S are
    g times those of S, so the quotient, and so the whole report, is the
    same for both."""

    @given(
        st.lists(st.integers(1, 2**16), min_size=1, max_size=7, unique=True),
        st.one_of(st.integers(2, 2**64), st.just(2**1999 + 1)),  # the last has 2,000 bits
    )
    @settings(max_examples=150, deadline=None)
    def test_scaled_set_has_the_same_report(self, elements, g):
        scaled = [g * x for x in elements]
        report = divide_oracle(scaled)
        assert report == divide_oracle(elements) == unreduced_divide_oracle(scaled)

    def test_perturbed_grids_with_a_common_factor(self):
        """Perturbed monotone grids whose every exponent column is shifted up
        by at least 1, so the set's gcd exceeds 1."""
        rng = SplitMix64(27)
        nondivisors = 0
        for _ in range(40):
            grid = random_monotone_exponents(rng, rng.randint(3, 16), max_exp=5)
            grid = perturbed_exponents(rng, grid, max_exp=5)
            shift = [rng.randint(1, 4) for _ in grid.primes]
            shifted = ExponentMatrix(
                grid.primes, [[e + b for e, b in zip(row, shift)] for row in grid.exponents]
            )
            s = reconstruct(shifted)
            assert gcd(*s) % prod(p**b for p, b in zip(grid.primes, shift)) == 0
            report = divide_oracle(s)
            assert report == unreduced_divide_oracle(s), s
            nondivisors += not report.divides
        assert nondivisors > 10, nondivisors

    def test_large_common_factor_is_fast(self):
        """30 random elements times 3^1000 * 5^300: the unreduced solve took
        about 7 s; on the reduced set it is milliseconds."""
        base = random.Random(30).sample(range(2, 10**6), 30)
        scaled = [3**1000 * 5**300 * x for x in base]
        start = time.perf_counter()
        report = divide_oracle(scaled)
        assert time.perf_counter() - start < 1
        assert not report.divides
        assert report == divide_oracle(base)


class TestDivideViaClosedForm:
    def test_agrees_with_oracle_on_worked_example(self):
        closed = divide([2, 6, 12])
        oracle = divide_oracle([2, 6, 12])
        assert closed.divides and closed.witness == oracle.witness
        assert closed.method == "closed-form"

    def test_six_element_set(self):
        report = divide(SIX_ELEMENT)
        assert report.divides
        assert report.method == "closed-form"
        assert report.witness * gcd_matrix(SIX_ELEMENT) == lcm_matrix(SIX_ELEMENT)

    def test_preconditions(self):
        assert divide([2, 3, 4]).method == "oracle"
        report = divide([2, 6])
        assert report.method == "closed-form"
        assert report.witness == ExactMatrix([[0, 1], [3, 0]])

    def test_matches_oracle_on_random_tn_sets(self):
        """The closed form, and the front door on three families: TN sets
        (closed form), their shuffles, mostly not TN (oracle), and sets with
        n <= 2 (closed form: every such set is TN)."""
        rng = SplitMix64(40)
        shuffles_not_tn = 0
        for _ in range(30):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 7)))
            closed = divide(s)
            oracle = divide_oracle(s)
            assert closed.method == "closed-form"
            assert closed.divides == oracle.divides == True  # noqa: E712
            assert closed.witness == oracle.witness
            t = shuffled(rng, s)
            tn = check_tn_triple(t).is_tn
            shuffles_not_tn += not tn
            for u, method in (
                (s, "closed-form"),
                (t, "closed-form" if tn else "oracle"),
                (s[: rng.randint(1, 2)], "closed-form"),
            ):
                report = divide(u)
                assert report.method == method
                assert_same_verdict(report, divide_oracle(u))
        assert shuffles_not_tn > 15


class TestDivide:
    def test_agrees_with_oracle_on_random_sets(self):
        """Random sets are rarely TN and often fail to divide, so the
        violations are compared too."""
        rng = SplitMix64(41)
        nondivisors = 0
        for _ in range(60):
            s = random_distinct_set(rng, rng.randint(1, 6), 60)
            report = divide(s)
            assert_same_verdict(report, divide_oracle(s))
            nondivisors += not report.divides
        assert nondivisors > 10


class TestDividePower:
    """divide on the elementwise power set, as the power-divide verb runs it."""

    def test_power_one_is_oracle(self):
        for elems in ([2, 6, 12], [2, 3, 4], [1, 2, 3, 12]):
            assert divide(power_set(elems, 1)).divides == divide_oracle(elems).divides

    def test_cube_of_chain(self):
        report = divide(power_set([2, 6, 12], 3))
        assert report.divides and report.method == "closed-form"
        assert report.witness * gcd_matrix([8, 216, 1728]) == lcm_matrix([8, 216, 1728])

    def test_six_element_powers(self):
        for e in (1, 2, 3):
            assert divide(power_set(SIX_ELEMENT, e)).divides

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            power_set([2, 6], 0)

    def test_monotone_orderable_sets_divide_for_all_small_powers(self):
        rng = SplitMix64(41)
        for _ in range(10):
            s = reconstruct(random_monotone_exponents(rng, rng.randint(3, 5), max_exp=4))
            scrambled = shuffled(rng, s)
            for e in (1, 2, 3):
                assert divide(power_set(scrambled, e)).divides


class TestPermutationInvariance:
    def test_verdict_constant_across_orderings(self):
        rng = SplitMix64(42)
        for _ in range(25):
            s = random_distinct_set(rng, rng.randint(2, 5), 60)
            baseline = divide_oracle(s).divides
            for _ in range(6):
                assert divide_oracle(shuffled(rng, s)).divides == baseline

    def test_orderable_sets_always_divide(self):
        from gcdmat.setmodel import find_monotone_order

        rng = SplitMix64(45)
        for _ in range(20):
            s = shuffled(rng, reconstruct(random_monotone_exponents(rng, rng.randint(3, 6))))
            assert find_monotone_order(s) is not None
            assert divide_oracle(s).divides


class TestClassicalDivisibilityResults:
    def test_factor_closed_sets_divide(self):
        rng = SplitMix64(43)
        for _ in range(15):
            seeds = [rng.randint(2, 90) for _ in range(rng.randint(1, 2))]
            closed = divisor_closure(seeds)
            if len(closed) > 12:
                continue
            assert divide_oracle(closed).divides

    def test_single_greatest_type_divisor_sets_divide(self):
        from gcdmat.setmodel import greatest_type_divisors

        rng = SplitMix64(44)
        for _ in range(20):
            s = random_tree_set(rng, rng.randint(2, 7))
            assert is_gcd_closed(s)
            assert max(len(greatest_type_divisors(s, y)) for y in s) <= 1
            assert divide_oracle(s).divides

    def test_all_small_gcd_closed_sets_of_size_up_to_three_divide(self):
        for size in (1, 2, 3):
            for elems in combinations(range(1, 13), size):
                if is_gcd_closed(elems):
                    assert divide_oracle(elems).divides, elems


class TestSearch:
    def test_size_three_finds_nothing(self):
        assert search_gcd_closed_nondivisor(3, 30, 1000) is None

    def test_finds_first_witness(self):
        found = search_gcd_closed_nondivisor(4, 20, 1000)
        assert found == OrderedSet([1, 2, 3, 12])
        report = divide_oracle(found)
        assert not report.divides and report.violation is not None

    def test_budget_is_a_hard_cutoff(self):
        # the witness is the fourth candidate tested in enumeration order
        assert search_gcd_closed_nondivisor(4, 20, 3) is None
        assert search_gcd_closed_nondivisor(4, 20, 4) == OrderedSet([1, 2, 3, 12])

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            search_gcd_closed_nondivisor(0, 10, 10)

    def test_rejects_budget_below_one(self):
        for budget in (0, -1):
            with pytest.raises(InvalidArgumentError):
                search_gcd_closed_nondivisor(4, 20, budget)

    def test_validates_each_candidate_once(self, monkeypatch):
        built = []
        init = OrderedSet.__init__

        def counted(self, elements):
            built.append(elements)
            init(self, elements)

        monkeypatch.setattr(OrderedSet, "__init__", counted)
        assert search_gcd_closed_nondivisor(3, 60, 10**6) is None
        # one OrderedSet per ascending 3-subset of divisors(m) topped by m
        assert len(built) == sum(comb(len(divisors(m)) - 1, 2) for m in range(1, 61))
        assert len(built) > 100

    def test_matches_oracle_only_search(self):
        # TN candidates skip the oracle; the answer must not change
        def oracle_only(n, bound, budget):
            for tested, candidate in enumerate(_gcd_closed_candidates(n, bound)):
                if tested >= budget:
                    return None
                if not divide_oracle(candidate).divides:
                    return OrderedSet(candidate)
            return None

        found = 0
        for n, bound in ((3, 200), (4, 120), (4, 200), (5, 120)):
            for budget in (1, 4, 30, 200, 10**6):
                result = search_gcd_closed_nondivisor(n, bound, budget)
                assert result == oracle_only(n, bound, budget), (n, bound, budget)
                found += result is not None
        assert found > 0

    def test_census_reproduces_the_published_counts(self):
        """The library's own stream and oracle, on every gcd-closed candidate
        of sizes 3-5 up to 300: the counts the benchmark's independent
        elimination pins. A seeded tenth is also checked against the
        Fraction Gauss-Jordan quotient."""
        rng = SplitMix64(26)
        closed, failing, compared = {}, {}, 0
        for n in (3, 4, 5):
            closed[n] = failing[n] = 0
            for candidate in _gcd_closed_candidates(n, 300):
                report = divide_oracle(candidate)
                closed[n] += 1
                failing[n] += not report.divides
                if rng.below(10) == 0:
                    quotient = rational_quotient(candidate)
                    assert report.violation == first_non_integral(quotient), candidate
                    if report.divides:
                        assert report.witness == ExactMatrix(quotient), candidate
                    compared += 1
        assert closed == {3: 3099, 4: 5501, 5: 8036}
        assert failing == {3: 0, 4: 980, 5: 3494}
        assert compared > 1000

    def test_skipped_candidates_divide(self):
        # the search stops at its first witness, so check the skip's premise
        # over whole candidate streams too
        skipped = 0
        for n in (4, 5):
            for candidate in _gcd_closed_candidates(n, 120):
                if single_pair_identities_hold(candidate):
                    skipped += 1
                    assert divide_oracle(candidate).divides, candidate
        assert skipped > 1000
