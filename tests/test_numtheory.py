import pytest
from hypothesis import given, strategies as st

from gcdmat import numtheory
from gcdmat.errors import ZeroInputError

from oracles import totient_brute


def test_gcd_examples():
    assert numtheory.gcd(4000, 6000) == 2000
    assert numtheory.gcd(7, 7) == 7
    assert numtheory.gcd(1, 987654321) == 1
    assert numtheory.gcd(0, 0) == 0
    assert numtheory.gcd(0, 5) == 5


def test_gcd_rejects_negative():
    with pytest.raises(ValueError):
        numtheory.gcd(-4, 6)


def test_lcm_examples():
    assert numtheory.lcm(2, 6) == 6
    assert numtheory.lcm(6, 12) == 12
    assert numtheory.lcm(4000, 6000) == 12000


def test_lcm_zero_raises():
    with pytest.raises(ZeroInputError):
        numtheory.lcm(0, 5)
    with pytest.raises(ZeroInputError):
        numtheory.lcm(5, 0)


def test_factorize_examples():
    assert numtheory.factorize(4000) == ((2, 5), (5, 3))
    assert numtheory.factorize(1) == ()
    assert numtheory.factorize(81) == ((3, 4),)


def test_factorize_zero_raises():
    with pytest.raises(ZeroInputError):
        numtheory.factorize(0)


def test_factorize_large_semiprime():
    # both factors above the trial-division sieve limit
    p, q = 1_000_003, 1_000_033
    assert numtheory.factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_prime_power_beyond_sieve():
    p = 1_000_003
    assert numtheory.factorize(p**2) == ((p, 2),)


def test_factorize_cache_is_bounded():
    assert numtheory.factorize.cache_info().maxsize is not None


def test_totient_examples():
    assert numtheory.totient(1) == 1
    assert numtheory.totient(12) == totient_brute(12) == 4
    for p in (2, 3, 31, 1009):
        assert numtheory.totient(p) == p - 1


def test_totient_matches_brute_force():
    for n in range(1, 200):
        assert numtheory.totient(n) == totient_brute(n)


def test_is_prime_small():
    primes_below_100 = {p for p in range(100) if numtheory.is_prime(p)}
    assert primes_below_100 == {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }


def test_is_prime_carmichael_and_large():
    assert not numtheory.is_prime(561)
    assert not numtheory.is_prime(341550071728321)
    assert numtheory.is_prime(2**61 - 1)
    assert not numtheory.is_prime(2**67 - 1)


def test_divisors():
    assert numtheory.divisors(1) == [1]
    assert numtheory.divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ZeroInputError):
        numtheory.divisors(0)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_gcd_lcm_product_identity(a, b):
    assert numtheory.gcd(a, b) * numtheory.lcm(a, b) == a * b


@given(st.integers(1, 10**7))
def test_factorize_reconstructs(x):
    product = 1
    for p, e in numtheory.factorize(x):
        assert e >= 1
        assert numtheory.is_prime(p)
        product *= p**e
    assert product == x


@given(st.integers(2, 10**6))
def test_totient_bounds(x):
    t = numtheory.totient(x)
    assert 1 <= t < x


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_gcd_associative(a, b, c):
    assert numtheory.gcd(a, numtheory.gcd(b, c)) == numtheory.gcd(numtheory.gcd(a, b), c)
