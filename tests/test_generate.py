import itertools
import time

import pytest

from gcdmat import numtheory
from gcdmat.errors import InvalidArgumentError
from gcdmat.exactmatrix import gcd_matrix, is_positive_definite
from gcdmat.generate import (
    SplitMix64,
    first_primes,
    pascal_exponents,
    pascal_set,
    random_monotone_exponents,
    random_monotone_set,
    vandermonde_exponents,
    vandermonde_matrix,
    vandermonde_set,
)
from gcdmat.setmodel import OrderedSet, is_column_monotone, pow_matrix
from gcdmat.tncore import check_tn_triple, single_pair_identities_hold


class TestSplitMix64:
    def test_reference_vectors(self):
        # published outputs of splitmix64 for these seeds
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()

    def test_derived_draws(self):
        rng = SplitMix64(1)
        assert all(0 <= rng.below(10) < 10 for _ in range(100))
        assert all(3 <= rng.randint(3, 7) <= 7 for _ in range(100))
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.randint(5, 4)

    def test_shuffle_is_reproducible(self):
        a, b = list(range(10)), list(range(10))
        SplitMix64(77).shuffle(a)
        SplitMix64(77).shuffle(b)
        assert a == b and sorted(a) == list(range(10))


class TestPatterns:
    def test_pascal_exponents(self):
        assert pascal_exponents(4) == [
            [1, 1, 1, 1],
            [1, 2, 3, 4],
            [1, 3, 6, 10],
            [1, 4, 10, 20],
        ]

    def test_pascal_set_values(self):
        s = pascal_set(4, (2, 3, 5, 7))
        assert s.elements == (
            210,
            5402250,
            238338491343750,
            126233858791143985957031250,
        )
        assert pascal_set(4) == s  # first four primes are the default

    def test_vandermonde(self):
        assert vandermonde_exponents([1, 2, 3]) == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
        s = vandermonde_set([1, 2, 3])
        assert s.elements == (2 * 3 * 5, 2 * 9 * 625, 2 * 27 * 5**9)
        assert is_column_monotone(pow_matrix(s))

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            pascal_exponents(0)
        with pytest.raises(ValueError):
            vandermonde_exponents([])

    def test_vandermonde_checks_its_bases_before_sieving(self, monkeypatch):
        """100,000 zero bases are refused before first_primes(100,000) sieves
        past 2**20."""
        monkeypatch.setattr(numtheory, "_sieve", (1 << 12, numtheory.small_primes()))
        with pytest.raises(InvalidArgumentError, match="bases must be positive"):
            vandermonde_matrix([0] * 100_000)
        assert numtheory._sieve[0] == 1 << 12

    def test_first_primes(self):
        assert first_primes(5) == (2, 3, 5, 7, 11)


class TestRandomMonotone:
    def test_draws_are_valid_and_monotone(self):
        rng = SplitMix64(123)
        for _ in range(60):
            m = random_monotone_exponents(rng, rng.randint(1, 8))
            assert is_column_monotone(m)
            assert 1 <= m.k <= 4
            assert all(e <= 6 for row in m.exponents for e in row)

    def test_reproducible_from_seed(self):
        first = [random_monotone_set(SplitMix64(9001), n) for n in (3, 5, 7)]
        second = [random_monotone_set(SplitMix64(9001), n) for n in (3, 5, 7)]
        assert first == second

    def test_generated_sets_are_tn_and_positive_definite(self):
        rng = SplitMix64(321)
        for _ in range(25):
            s = random_monotone_set(rng, rng.randint(3, 6))
            assert check_tn_triple(s).is_tn
            assert is_positive_definite(gcd_matrix(s))

    def test_respects_caps(self):
        rng = SplitMix64(5)
        m = random_monotone_exponents(rng, 4, max_exp=2, max_primes=2)
        assert m.k <= 2
        assert all(e <= 2 for row in m.exponents for e in row)

    def test_infeasible_request_is_refused_before_drawing(self):
        # a monotone column changes at most max_exp times going down, so
        # max_primes * max_exp + 1 distinct rows is the most any draw has
        rng = SplitMix64(5)
        for n, max_exp, max_primes in ((8, 1, 4), (40, 3, 12), (200, 6, 4)):
            with pytest.raises(InvalidArgumentError, match="at most"):
                random_monotone_exponents(rng, n, max_exp, max_primes)
        assert rng.next_u64() == SplitMix64(5).next_u64()

    def test_largest_feasible_request_is_drawn(self):
        m = random_monotone_exponents(SplitMix64(5), 2, max_exp=1, max_primes=1)
        assert sorted(m.exponents) == [(0,), (1,)]

    @pytest.mark.parametrize("max_exp", range(1, 7))
    @pytest.mark.parametrize("max_primes", range(1, 5))
    def test_every_request_at_the_bound_is_met(self, max_exp, max_primes):
        n = max_primes * max_exp + 1
        for seed in range(3):
            m = random_monotone_exponents(SplitMix64(seed), n, max_exp, max_primes)
            assert m.n == n and m.k == max_primes and is_column_monotone(m)
            assert all(e <= max_exp for row in m.exponents for e in row)

    def test_draw_cost_does_not_depend_on_max_exp(self):
        start = time.perf_counter()
        m = random_monotone_exponents(SplitMix64(7), 5, max_exp=10**9)
        assert time.perf_counter() - start < 0.05
        assert is_column_monotone(m) and max(max(row) for row in m.exponents) <= 10**9

    def test_thousand_rows_are_drawn_at_once(self):
        start = time.perf_counter()
        s = random_monotone_set(SplitMix64(1000), 1000, max_exp=40, max_primes=30)
        assert time.perf_counter() - start < 1.0
        assert len(s) == 1000 and single_pair_identities_hold(s)

    def test_parameter_validation(self):
        rng = SplitMix64(5)
        with pytest.raises(ValueError):
            random_monotone_exponents(rng, 0)
        with pytest.raises(ValueError):
            random_monotone_exponents(rng, 3, max_exp=0)


def test_singleton_set_draw():
    s = random_monotone_set(SplitMix64(2), 1)
    assert isinstance(s, OrderedSet) and len(s) == 1


class Scripted(SplitMix64):
    """A SplitMix64 whose below() answers come from a list, so that replaying
    every list in turn walks every outcome of a draw. randint and choice are
    derived from below, as in SplitMix64."""

    def __init__(self, path: list[int]):
        self.path, self.sizes = path, []

    def below(self, n: int) -> int:
        if len(self.sizes) == len(self.path):
            self.path.append(0)
        self.sizes.append(n)
        return self.path[len(self.sizes) - 1]


def every_draw(n, max_exp, max_primes):
    """Each outcome of random_monotone_exponents, once per path of answers."""
    path: list[int] = []
    while True:
        rng = Scripted(path)
        yield random_monotone_exponents(rng, n, max_exp, max_primes).exponents
        del path[len(rng.sizes):]
        while path and path[-1] == rng.sizes[len(path) - 1] - 1:
            path.pop()
        if not path:
            return
        path[-1] += 1


def every_valid_matrix(n, max_exp, max_primes):
    """Every column-monotone n-row matrix with entries <= max_exp, distinct
    rows, no zero column and 1..max_primes columns."""
    columns = [
        col
        for col in itertools.product(range(max_exp + 1), repeat=n)
        if any(col) and (list(col) == sorted(col) or list(col) == sorted(col, reverse=True))
    ]
    for k in range(1, max_primes + 1):
        for cols in itertools.product(columns, repeat=k):
            rows = tuple(zip(*cols))
            if len(set(rows)) == n:
                yield rows


@pytest.mark.parametrize("grid", [(3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 2, 3), (4, 1, 3)])
def test_draws_cover_exactly_the_valid_matrices(grid):
    """Every outcome of the draw, walked exhaustively, is a valid matrix, and
    every valid matrix is an outcome."""
    assert set(every_draw(*grid)) == set(every_valid_matrix(*grid))
