import json
import random
import time
from enum import IntEnum
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gcdmat import numtheory, setmodel
from gcdmat.cli import _json, _read_document
from gcdmat.errors import InvalidArgumentError, InvalidSetError
from gcdmat.setmodel import ExponentMatrix, OrderedSet

from oracles import (
    brute_monotone_images,
    l1_monotone_order,
    ordered_set_error,
    perturbed_exponents,
    random_distinct_set,
    shuffled,
    union_find_chains,
)
from gcdmat.generate import SplitMix64, first_primes, random_monotone_exponents

# the two orderings of the five-element worked example
S_MONOTONE = [4000, 6000, 600, 54, 81]
S_SHUFFLED = [81, 4000, 600, 6000, 54]
POW_MONOTONE = [[5, 0, 3], [4, 1, 3], [3, 1, 2], [1, 3, 0], [0, 4, 0]]
POW_SHUFFLED = [[0, 4, 0], [5, 0, 3], [3, 1, 2], [4, 1, 3], [1, 3, 0]]

SIX_ELEMENT = [330812181, 551353635, 7501410, 2976750, 5512500000, 18750000000]

# elements whose factorization is out of reach: F_7 = 2^128 + 1 has a
# 17-digit smallest prime factor, and p, q below are 27- and 33-digit primes
FERMAT_PAIR = [2**128 + 1, 2**128 + 3]
MERSENNE_SET = [(2**89 - 1) ** i * (2**107 - 1) ** (5 - i) for i in range(6)]
random.Random(2).shuffle(MERSENNE_SET)


def seeded_sets(seed: int):
    """For n = 1..60: a shuffled column-monotone set, the same set with 1
    added, a perturbed (mostly unorderable) one, and random small integers."""
    rng = SplitMix64(seed)
    for n in range(1, 61):
        m = random_monotone_exponents(rng, n, max_exp=60, max_primes=6)
        s = setmodel.reconstruct(m)
        yield shuffled(rng, s)
        if 1 not in s:
            yield shuffled(rng, OrderedSet(s.elements + (1,)))
        yield shuffled(rng, setmodel.reconstruct(perturbed_exponents(rng, m, max_exp=60)))
        yield random_distinct_set(rng, min(n, 12), 10**6)


def coprime_chain_sets(seed: int):
    """Shuffled unions of chains over disjoint primes, with and without 1,
    and the same with one element multiplied by another chain's prime."""
    rng = SplitMix64(seed)
    for n in range(1, 61):
        primes = list(first_primes(12))
        rng.shuffle(primes)
        c = rng.randint(1, 4)
        elems = []
        for i in range(c):
            x = 1
            for _ in range(max(1, n // c)):
                x *= rng.choice(primes[3 * i : 3 * i + 3])
                elems.append(x)
        if rng.below(2):
            elems.append(1)
        s = shuffled(rng, OrderedSet(elems))
        yield s
        broken = list(s)
        i = rng.below(len(broken))
        factor = rng.choice(primes)
        if broken[i] * factor not in broken:
            broken[i] *= factor
            yield OrderedSet(broken)


class Level(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


# plain ints (0, negatives and repeats included) and the look-alikes the
# validator must tell apart from them
ELEMENT_LISTS = st.one_of(
    st.lists(st.integers(-3, 12), max_size=8),
    st.lists(
        st.one_of(
            st.integers(-3, 12), st.booleans(), st.sampled_from(Level), st.floats(),
            st.text(max_size=3), st.fractions(max_denominator=4),
        ),
        max_size=8,
    ),
)


class TestOrderedSet:
    @given(ELEMENT_LISTS)
    def test_validation_matches_the_element_by_element_validator(self, elements):
        expected = ordered_set_error(elements)
        try:
            s = OrderedSet(elements)
        except InvalidSetError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert s.elements == tuple(elements)

    def test_rejects_empty(self):
        with pytest.raises(InvalidSetError):
            OrderedSet([])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSetError):
            OrderedSet([1, 0, 2])
        with pytest.raises(InvalidSetError):
            OrderedSet([-3])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidSetError):
            OrderedSet([2, 6, 2])

    def test_order_matters_for_equality(self):
        assert OrderedSet([2, 3]) != OrderedSet([3, 2])
        assert OrderedSet([2, 3]) == OrderedSet([2, 3])

    def test_permute(self):
        s = OrderedSet(S_SHUFFLED)
        assert s.permute([2, 4, 3, 5, 1]) == OrderedSet(S_MONOTONE)
        with pytest.raises(InvalidSetError):
            s.permute([1, 1, 2, 3, 4])

    def test_text_round_trip(self):
        assert _read_document("4000\n6000\n600\n") == OrderedSet([4000, 6000, 600])
        assert _read_document("2 6 12") == OrderedSet([2, 6, 12])

    def test_from_text_diagnostics(self):
        with pytest.raises(InvalidSetError, match="not a decimal integer: 'six'"):
            _read_document("2 six 12")
        with pytest.raises(InvalidSetError, match="no integers found"):
            _read_document("   ")

    def test_json_round_trip(self):
        s = OrderedSet([4000, 6000])
        assert _json(s) == ["4000", "6000"]
        assert _read_document(json.dumps({"elements": _json(s)})) == s
        assert _read_document('{"elements": [2, 6]}') == OrderedSet([2, 6])


class TestExponentMatrix:
    def test_validation(self):
        with pytest.raises(InvalidSetError, match="primes not strictly increasing: 3 >= 2"):
            ExponentMatrix([3, 2], [[1, 1]])
        with pytest.raises(InvalidSetError, match="4 is not prime"):
            ExponentMatrix([2, 4], [[1, 1]])
        with pytest.raises(InvalidSetError, match="duplicate exponent rows"):
            ExponentMatrix([2], [[1], [1]])
        with pytest.raises(InvalidSetError):
            ExponentMatrix([2, 3], [[1, 0], [2, 0]])  # zero column

    def test_json_round_trip(self):
        m = ExponentMatrix([2, 3, 5], POW_MONOTONE)
        doc = _json(m)
        assert doc["primes"] == ["2", "3", "5"]
        assert doc["exponents"] == POW_MONOTONE
        assert _read_document(json.dumps(doc)) == setmodel.reconstruct(m)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"elements": ["2", "x"]}, 'bad "elements" entry: \'x\''),
        ({"elements": [2, True]}, 'bad "elements" entry: True'),
        ({"primes": [2.5], "exponents": [[1]]}, 'bad "primes" entry: 2.5'),
        ({"primes": ["q"], "exponents": [[1]]}, 'bad "primes" entry: \'q\''),
    ],
)
def test_bad_json_entries_are_named(doc, message):
    with pytest.raises(InvalidSetError) as info:
        _read_document(json.dumps(doc))
    assert str(info.value) == message


class TestPowMatrix:
    def test_worked_example_both_orderings(self):
        m = setmodel.pow_matrix(S_MONOTONE)
        assert m.primes == (2, 3, 5)
        assert [list(r) for r in m.exponents] == POW_MONOTONE
        m2 = setmodel.pow_matrix(S_SHUFFLED)
        assert [list(r) for r in m2.exponents] == POW_SHUFFLED

    def test_singleton_one(self):
        m = setmodel.pow_matrix([1])
        assert m.primes == ()
        assert m.exponents == ((),)

    def test_six_element_example(self):
        m = setmodel.pow_matrix(SIX_ELEMENT)
        assert m.primes == (2, 3, 5, 7)
        assert [list(r) for r in m.exponents] == [
            [0, 9, 0, 5],
            [0, 8, 1, 5],
            [1, 7, 1, 3],
            [1, 5, 3, 2],
            [5, 2, 8, 2],
            [7, 1, 11, 0],
        ]


class TestColumnMonotone:
    def test_worked_example(self):
        assert setmodel.is_column_monotone(setmodel.pow_matrix(S_MONOTONE))
        assert not setmodel.is_column_monotone(setmodel.pow_matrix(S_SHUFFLED))

    def test_directions(self):
        report = setmodel.is_column_monotone(setmodel.pow_matrix(S_MONOTONE))
        assert report.directions == ("down", "up", "down")

    def test_vacuous_cases(self):
        assert setmodel.is_column_monotone(setmodel.pow_matrix([1]))
        assert setmodel.is_column_monotone(setmodel.pow_matrix([720720]))


class TestFindMonotoneOrder:
    def test_shuffled_example_lex_smallest(self):
        image = setmodel.find_monotone_order(S_SHUFFLED)
        assert image == (1, 5, 3, 4, 2)
        reordered = OrderedSet(S_SHUFFLED).permute(image)
        assert setmodel.is_column_monotone(setmodel.pow_matrix(reordered))
        # the ordering from the worked example is among the valid ones too
        assert (2, 4, 3, 5, 1) in brute_monotone_images(S_SHUFFLED)

    def test_already_monotone_returns_identity(self):
        assert setmodel.find_monotone_order(S_MONOTONE) == (1, 2, 3, 4, 5)
        assert setmodel.find_monotone_order([1]) == (1,)

    def test_not_orderable(self):
        assert brute_monotone_images([6, 10, 15]) == []
        assert setmodel.find_monotone_order([6, 10, 15]) is None

    def test_agrees_with_brute_force(self):
        rng = SplitMix64(20260808)
        sizes = [rng.randint(1, 5) for _ in range(50)] + [6, 6, 6, 7, 7, 7]
        for n in sizes:
            s = random_distinct_set(rng, n, 40)
            images = brute_monotone_images(s.elements)
            found = setmodel.find_monotone_order(s)
            if images:
                assert found == min(images)
                assert setmodel.is_column_monotone(setmodel.pow_matrix(s.permute(found)))
            else:
                assert found is None

    def test_thirty_primes(self):
        # 2**30 direction assignments: far past what an enumeration can try
        rng = SplitMix64(30)
        n, k = 40, 30
        columns = [list(range(1, n + 1))]
        for _ in range(k - 1):
            col = sorted(1 + rng.below(8) for _ in range(n))
            if rng.below(2):
                col.reverse()
            columns.append(col)
        m = ExponentMatrix(first_primes(k), [tuple(c[i] for c in columns) for i in range(n)])
        s = setmodel.reconstruct(m)
        shuffle = list(range(1, n + 1))
        rng.shuffle(shuffle)
        t = s.permute(shuffle)
        assert not setmodel.is_column_monotone(setmodel.pow_matrix(t))
        found = setmodel.find_monotone_order(t)
        assert setmodel.is_column_monotone(setmodel.pow_matrix(t.permute(found)))
        chain = tuple(sorted(range(1, n + 1), key=lambda p: shuffle[p - 1]))
        assert found == min(chain, chain[::-1])


    def test_agrees_with_exponent_row_oracle(self):
        orderable = 0
        for s in seeded_sets(2021):
            found = setmodel.find_monotone_order(s)
            assert found == l1_monotone_order(s.elements), s
            orderable += found is not None
        assert 60 <= orderable <= 200

    @pytest.mark.parametrize("elements", [FERMAT_PAIR, MERSENNE_SET], ids=["fermat", "mersenne"])
    def test_does_not_factorize(self, monkeypatch, elements):
        def refuse(x):
            raise AssertionError(f"factorize({x}) called")

        monkeypatch.setattr(numtheory, "factorize", refuse)
        image = setmodel.find_monotone_order(elements)
        assert image is not None
        if elements is MERSENNE_SET:
            ordered = OrderedSet(elements).permute(image).elements
            assert ordered in (tuple(sorted(elements)), tuple(sorted(elements, reverse=True)))


class TestPredicates:
    def test_gcd_closed(self):
        assert setmodel.is_gcd_closed([1, 2, 3])
        assert setmodel.is_gcd_closed([2, 6, 12])
        assert not setmodel.is_gcd_closed(SIX_ELEMENT)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True))
    def test_gcd_closed_is_the_pairwise_definition(self, elements):
        expected = all(gcd(a, b) in elements for a in elements for b in elements)
        assert setmodel.is_gcd_closed(elements) == expected

    def test_factor_closed(self):
        assert setmodel.is_factor_closed([1, 2, 3, 4, 6, 12])
        assert not setmodel.is_factor_closed([2])
        assert setmodel.is_factor_closed(list(range(1, 20)))

    def test_factor_closed_implies_gcd_closed(self):
        rng = SplitMix64(7)
        from oracles import divisor_closure

        for _ in range(25):
            seeds = [rng.randint(2, 120) for _ in range(rng.randint(1, 3))]
            closed = divisor_closure(seeds)
            assert setmodel.is_factor_closed(closed)
            assert setmodel.is_gcd_closed(closed)

    def test_greatest_type_divisors(self):
        assert setmodel.greatest_type_divisors([1, 2, 4], 4) == [2]
        assert setmodel.greatest_type_divisors([1, 2, 3, 6], 6) == [2, 3]
        assert setmodel.greatest_type_divisors([1], 1) == []
        with pytest.raises(InvalidArgumentError, match="3 is not a member of"):
            setmodel.greatest_type_divisors([1, 2], 3)


class TestCoprimeChains:
    def test_two_chains(self):
        assert setmodel.classify_coprime_divisor_chains([2, 4, 3, 9]) == [[2, 4], [3, 9]]

    def test_six_element_not_of_this_form(self):
        assert setmodel.classify_coprime_divisor_chains(SIX_ELEMENT) is None

    def test_singleton(self):
        assert setmodel.classify_coprime_divisor_chains([5]) == [[5]]

    def test_one_gets_its_own_block(self):
        assert setmodel.classify_coprime_divisor_chains([1, 2, 4]) == [[1], [2, 4]]

    def test_blocks_are_chains_and_coprime(self):
        from math import gcd

        rng = SplitMix64(99)
        for _ in range(80):
            s = random_distinct_set(rng, rng.randint(1, 6), 60)
            blocks = setmodel.classify_coprime_divisor_chains(s)
            if blocks is None:
                continue
            assert sorted(x for b in blocks for x in b) == sorted(s.elements)
            for block in blocks:
                assert all(b % a == 0 for a, b in zip(block, block[1:]))
            for i, bi in enumerate(blocks):
                for bj in blocks[i + 1 :]:
                    assert all(gcd(a, b) == 1 for a in bi for b in bj)


    def test_agrees_with_union_find_oracle(self):
        split = 0
        for s in [*seeded_sets(77), *coprime_chain_sets(78)]:
            blocks = setmodel.classify_coprime_divisor_chains(s)
            assert blocks == union_find_chains(s.elements), s
            split += blocks is not None and len(blocks) > 1
        assert split >= 40

    def test_long_chains_are_fast(self):
        # one gcd component that is not a divisibility chain: 2^1000 does
        # not divide 2^999 * 3, the next element up
        tn_chain = [2**i * 3 ** (1000 - i) for i in range(1001)]
        divisor_chain = [6**i for i in range(1, 1002)]
        random.Random(1001).shuffle(divisor_chain)
        start = time.perf_counter()
        assert setmodel.classify_coprime_divisor_chains(tn_chain) is None
        blocks = setmodel.classify_coprime_divisor_chains(divisor_chain)
        assert time.perf_counter() - start < 0.1
        assert blocks == [sorted(divisor_chain)]


class TestPowerSetAndReconstruct:
    def test_power_set(self):
        assert setmodel.power_set([2, 6, 12], 2) == OrderedSet([4, 36, 144])
        s = OrderedSet([5, 10])
        assert setmodel.power_set(s, 1) == s
        with pytest.raises(ValueError):
            setmodel.power_set(s, 0)

    def test_power_set_scales_exponents(self):
        rng = SplitMix64(31337)
        for _ in range(30):
            s = random_distinct_set(rng, rng.randint(1, 5), 200)
            e = rng.randint(1, 3)
            base = setmodel.pow_matrix(s)
            powered = setmodel.pow_matrix(setmodel.power_set(s, e))
            assert powered.primes == base.primes
            assert powered.exponents == tuple(
                tuple(e * a for a in row) for row in base.exponents
            )

    def test_reconstruct_pascal_rows(self):
        m = ExponentMatrix([2, 3, 5, 7], [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]])
        s = setmodel.reconstruct(m)
        assert s.elements == (
            210,
            2 * 3**2 * 5**3 * 7**4,
            2 * 3**3 * 5**6 * 7**10,
            2 * 3**4 * 5**10 * 7**20,
        )

    def test_reconstruct_trivial_and_worked_example(self):
        assert setmodel.reconstruct(ExponentMatrix([], [[]])) == OrderedSet([1])
        m = ExponentMatrix([2, 3, 5], POW_MONOTONE)
        assert setmodel.reconstruct(m) == OrderedSet(S_MONOTONE)


@st.composite
def ordered_sets(draw):
    elems = draw(st.lists(st.integers(1, 50000), min_size=1, max_size=7, unique=True))
    return OrderedSet(elems)


@given(ordered_sets())
@settings(max_examples=150)
def test_pow_matrix_round_trip(s):
    assert setmodel.reconstruct(setmodel.pow_matrix(s)) == s


@given(ordered_sets())
@settings(max_examples=60, deadline=None)
def test_monotone_order_implies_monotone(s):
    image = setmodel.find_monotone_order(s)
    if image is not None:
        assert setmodel.is_column_monotone(setmodel.pow_matrix(s.permute(image)))


@st.composite
def smooth_sets(draw):
    """Sets of 2^a 3^b 5^c with small exponents, 1 included at times: dense
    enough in exponent space that many of them are orderable."""
    rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=8, unique=True))
    return OrderedSet(2**a * 3**b * 5**c for a, b, c in rows)


@st.composite
def prime_power_sets(draw):
    """Sets of prime powers and small products of them: often coprime chains."""
    elems = draw(st.lists(
        st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 1, 6, 12, 18, 10]),
        min_size=1, max_size=8, unique=True,
    ))
    return OrderedSet(elems)


@given(st.one_of(ordered_sets(), smooth_sets()))
@settings(max_examples=200, deadline=None)
def test_monotone_order_matches_exponent_row_oracle(s):
    assert setmodel.find_monotone_order(s) == l1_monotone_order(s.elements)


@given(st.one_of(ordered_sets(), smooth_sets(), prime_power_sets()))
@settings(max_examples=200, deadline=None)
def test_coprime_chains_match_union_find_oracle(s):
    assert setmodel.classify_coprime_divisor_chains(s) == union_find_chains(s.elements)
