"""Acceptance suite: every check is exact (zero tolerance) plus worked examples.

Each criterion prints one PASS/FAIL line; runtime bounds are asserted where
stated. The long exhaustive boundary check is marked `extended` and excluded
from the default run (select it with `pytest -m extended`).
"""

import time
from contextlib import contextmanager
from itertools import combinations
from math import gcd as _gcd
from math import lcm

import pytest

from gcdmat.divisibility import divide, divide_oracle, search_gcd_closed_nondivisor
from gcdmat.exactmatrix import (
    ExactMatrix,
    determinant,
    gcd_matrix,
    is_positive_definite,
    is_totally_nonnegative,
    lcm_matrix,
    solve_right,
)
from gcdmat.generate import SplitMix64, pascal_set, random_monotone_exponents, random_monotone_set
from gcdmat.setmodel import (
    ExponentMatrix,
    OrderedSet,
    classify_coprime_divisor_chains,
    is_column_monotone,
    is_gcd_closed,
    pow_matrix,
    power_set,
    reconstruct,
)
from gcdmat.tncore import (
    check_tn_triple,
    quotient_closed_form,
    single_pair_identities_hold,
    tridiagonal_inverse,
)

from oracles import (
    filtered_totient_product,
    divisor_closure,
    first_negative_minor_lu,
    gcd_closure,
    lcm_from_gcds,
    perturbed_exponents,
    random_distinct_set,
    shuffled,
    totient_product,
)


@contextmanager
def criterion(num, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({label}): PASS [{elapsed:.2f}s < {limit_seconds}s]")
    assert elapsed < limit_seconds


# --- deterministic families shared by criteria 4-7 and re-checked in 9 -----


@pytest.fixture(scope="module")
def mixed_sets():
    """>= 500 sets, n <= 6, <= 4 primes, exponents <= 6: column-monotone
    draws mixed with shuffled and perturbed variants."""
    rng = SplitMix64(0xACCE01)
    sets = []
    for _ in range(200):
        sets.append(reconstruct(random_monotone_exponents(rng, rng.randint(1, 6))))
    for _ in range(150):
        base = reconstruct(random_monotone_exponents(rng, rng.randint(1, 6)))
        sets.append(shuffled(rng, base))
    for _ in range(150):
        matrix = perturbed_exponents(rng, random_monotone_exponents(rng, rng.randint(1, 6)))
        sets.append(reconstruct(matrix))
    return sets


@pytest.fixture(scope="module")
def tn_sets():
    """>= 200 column-monotone (hence TN) sets with n between 3 and 8."""
    rng = SplitMix64(0xACCE02)
    return [
        reconstruct(random_monotone_exponents(rng, rng.randint(3, 8)))
        for _ in range(200)
    ]


@pytest.fixture(scope="module")
def factor_closed_sets():
    rng = SplitMix64(0xACCE03)
    seen = set()
    while len(seen) < 20:
        seeds = tuple(rng.randint(2, 100) for _ in range(rng.randint(1, 3)))
        closed = divisor_closure(seeds)
        if len(closed) <= 24:
            seen.add(closed)
    return sorted(seen)


@pytest.fixture(scope="module")
def gcd_closed_sets():
    rng = SplitMix64(0xACCE04)
    seen = set()
    while len(seen) < 20:
        seeds = tuple(rng.randint(2, 150) for _ in range(rng.randint(2, 5)))
        closed = gcd_closure(seeds)
        if len(closed) <= 10:
            seen.add(closed)
    return sorted(seen)


@pytest.fixture(scope="module")
def permutation_families():
    """50 sets, each with 10 random reorderings."""
    rng = SplitMix64(0xACCE05)
    families = []
    for i in range(50):
        if i % 2:
            s = random_distinct_set(rng, rng.randint(2, 5), 80)
        else:
            s = reconstruct(random_monotone_exponents(rng, rng.randint(2, 5), max_exp=4))
        families.append((s, [shuffled(rng, s) for _ in range(10)]))
    return families


def test_criterion_1_pow_matrix_worked_example():
    with criterion(1, "exponent matrices of the five-element example", 1.0):
        s = OrderedSet([4000, 6000, 600, 54, 81])
        s_shuffled = OrderedSet([81, 4000, 600, 6000, 54])
        m = pow_matrix(s)
        assert m.primes == (2, 3, 5)
        assert m.exponents == ((5, 0, 3), (4, 1, 3), (3, 1, 2), (1, 3, 0), (0, 4, 0))
        m2 = pow_matrix(s_shuffled)
        assert m2.exponents == ((0, 4, 0), (5, 0, 3), (3, 1, 2), (4, 1, 3), (1, 3, 0))
        assert bool(is_column_monotone(m)) is True
        assert bool(is_column_monotone(m2)) is False


def test_criterion_2_pascal_set():
    with criterion(2, "Pascal-pattern set at primes (2,3,5,7)", 1.0):
        s = pascal_set(4, (2, 3, 5, 7))
        x = s.elements
        assert x == (210, 5402250, 238338491343750, 126233858791143985957031250)
        # the gcd matrix of this divisor chain puts x_min(i,j) at entry (i, j)
        expected = ExactMatrix([[x[min(i, j)] for j in range(4)] for i in range(4)])
        assert gcd_matrix(s) == expected
        u = quotient_closed_form(s)
        assert u.is_integral()
        assert u * gcd_matrix(s) == lcm_matrix(s)


def test_criterion_3_six_element_example():
    with criterion(3, "six-element non-gcd-closed example", 5.0):
        exponents = [
            [0, 9, 0, 5],
            [0, 8, 1, 5],
            [1, 7, 1, 3],
            [1, 5, 3, 2],
            [5, 2, 8, 2],
            [7, 1, 11, 0],
        ]
        s = reconstruct(ExponentMatrix([2, 3, 5, 7], exponents))
        assert is_gcd_closed(s) is False
        assert classify_coprime_divisor_chains(s) is None
        m = pow_matrix(s)
        assert [list(r) for r in m.exponents] == exponents
        assert bool(is_column_monotone(m)) is True
        for e in (1, 2, 3):
            assert divide(power_set(s, e)).divides


def test_criterion_4_three_way_tn_equivalence(mixed_sets):
    with criterion(4, "single pair == triple == column monotone == minors == Neville", 60.0):
        assert len(mixed_sets) >= 500
        for s in mixed_sets:
            single = single_pair_identities_hold(s)
            triple = check_tn_triple(s).is_tn
            monotone = bool(is_column_monotone(pow_matrix(s)))
            g = gcd_matrix(s)
            minors = first_negative_minor_lu(g.entries) is None
            assert single == triple == monotone == minors == is_totally_nonnegative(g), s
        # past the reach of the minors: TN sets up to n = 60, as drawn and shuffled
        rng = SplitMix64(0xACCE04)
        verdicts = set()
        for n in (10, 20, 40, 60):
            s = random_monotone_set(rng, n, max_exp=40, max_primes=6)
            for candidate in (s, shuffled(rng, s)):
                single = single_pair_identities_hold(candidate)
                assert single == is_totally_nonnegative(gcd_matrix(candidate)), candidate
                verdicts.add(single)
        assert verdicts == {True, False}


def test_criterion_5_closed_forms_match_oracle(tn_sets):
    with criterion(5, "closed forms vs exact solves, 200 TN sets", 60.0):
        assert len(tn_sets) >= 200
        for s in tn_sets:
            n = len(s)
            verdict = check_tn_triple(s)
            assert verdict.is_tn
            g, l = gcd_matrix(s), lcm_matrix(s)
            tri = tridiagonal_inverse(s).as_matrix()
            assert tri == solve_right(g, ExactMatrix.identity(n))
            u = quotient_closed_form(s)
            assert u.is_integral()
            assert u == solve_right(g, l)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert lcm_from_gcds(s, i, j) == lcm(s[i - 1], s[j - 1])


def test_criterion_6_classical_determinants(factor_closed_sets, gcd_closed_sets):
    with criterion(6, "totient-product determinant identities", 30.0):
        assert len(factor_closed_sets) >= 20 and len(gcd_closed_sets) >= 20
        for closed in factor_closed_sets:
            assert determinant(gcd_matrix(closed)) == totient_product(closed)
        for closed in gcd_closed_sets:
            assert determinant(gcd_matrix(closed)) == filtered_totient_product(closed)


def test_criterion_7_permutation_invariance(permutation_families):
    with criterion(7, "divisibility verdict is order-independent", 60.0):
        assert len(permutation_families) >= 50
        for s, reorderings in permutation_families:
            baseline = divide_oracle(s).divides
            assert len(reorderings) >= 10
            for variant in reorderings:
                assert divide_oracle(variant).divides == baseline


@pytest.mark.extended
def test_criterion_8_small_size_boundary_and_search():
    with criterion(8, "divisor boundary at size three and the size-four search", 600.0):
        for size in (1, 2, 3):
            for elems in combinations(range(1, 31), size):
                if all(_gcd(a, b) in elems for a, b in combinations(elems, 2)):
                    assert divide_oracle(elems).divides, elems
        witness = search_gcd_closed_nondivisor(4, 300, 10**5)
        if witness is not None:
            report = divide_oracle(witness)
            assert not report.divides
            assert report.violation is not None
            i, j, value = report.violation
            assert value.denominator > 1


def test_criterion_9_positive_definiteness(
    mixed_sets, tn_sets, factor_closed_sets, gcd_closed_sets, permutation_families
):
    with criterion(9, "gcd matrices of every generated set are positive definite", 120.0):
        everything = list(mixed_sets) + list(tn_sets)
        everything += [OrderedSet(c) for c in factor_closed_sets]
        everything += [OrderedSet(c) for c in gcd_closed_sets]
        for s, reorderings in permutation_families:
            everything.append(s)
            everything.extend(reorderings)
        for s in everything:
            assert is_positive_definite(gcd_matrix(s)), s
