import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gcdmat
from gcdmat import numtheory
from gcdmat.errors import InvalidArgumentError
from gcdmat.generate import SplitMix64

from oracles import trial_division_factors

ROOT = Path(__file__).resolve().parent.parent


def test_factorize_examples():
    assert numtheory.factorize(4000) == ((2, 5), (5, 3))
    assert numtheory.factorize(1) == ()
    assert numtheory.factorize(81) == ((3, 4),)


def test_factorize_zero_raises():
    with pytest.raises(InvalidArgumentError, match="cannot factorize 0"):
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


def _seeded_primes(seed: int, lo: int, hi: int, count: int) -> list[int]:
    """count distinct primes in [lo, hi), drawn by SplitMix64 and confirmed by
    trial division."""
    rng, found = SplitMix64(seed), set()
    while len(found) < count:
        c = rng.randint(lo, hi - 1)
        if trial_division_factors(c) == [(c, 1)]:
            found.add(c)
    return sorted(found)


_BELOW_12 = _seeded_primes(1, 2**12 - 1500, 2**12, 6)
_ABOVE_12 = _seeded_primes(2, 2**12, 2**12 + 1500, 6)
_BELOW_20 = _seeded_primes(3, 2**20 - 4000, 2**20, 3)
_ABOVE_20 = _seeded_primes(4, 2**20, 2**20 + 4000, 3)


@pytest.fixture
def import_time_sieve(monkeypatch):
    """The shared sieve as import leaves it, (2**12, small_primes()), and an
    empty factorize cache, so the test grows the sieve itself; an earlier
    test may have grown it past 2**20. Restored afterwards."""
    monkeypatch.setattr(numtheory, "_sieve", (1 << 12, numtheory.small_primes()))
    numtheory.factorize.cache_clear()
    yield
    numtheory.factorize.cache_clear()


@pytest.mark.parametrize(
    "p, q",
    [*zip(_BELOW_12, _ABOVE_12), *zip(_BELOW_20, _ABOVE_20),
     (_ABOVE_20[0], _ABOVE_20[1]), (_BELOW_12[0], _ABOVE_20[2]), (_ABOVE_12[0], _BELOW_20[0])],
)
def test_semiprimes_either_side_of_the_sieve_bounds(import_time_sieve, p, q):
    """Factors on both sides of 2**12 (the import-time sieve) and of 2**20
    (the end of trial division) agree with plain trial division, and trial
    division grows the sieve past 2**12 to reach them."""
    for x in (p * q, p**3 * q, p * q**2 * 6):
        assert numtheory.factorize(x) == tuple(trial_division_factors(x))
    assert numtheory._sieve[0] > 1 << 12


@pytest.mark.parametrize("p", [4093, 4099, 999_983, 1_000_003])
@pytest.mark.parametrize("e", [1, 2, 3, 37, 2000])
def test_prime_powers_take_their_valuation_at_once(p, e):
    start = time.perf_counter()
    assert numtheory.factorize(p**e) == ((p, e),)
    assert time.perf_counter() - start < 1.0
    assert numtheory.factorize(p**e * 6) == ((2, 1), (3, 1), (p, e))


def test_large_power_of_two_is_fast():
    start = time.perf_counter()
    assert numtheory.factorize(2**300_000) == ((2, 300_000),)
    assert time.perf_counter() - start < 1.0


def test_prime_powers_past_the_trial_bound():
    """Pollard rho finds these primes; the rest of each power leaves with it."""
    q, r = 2**20 + 7, 2**31 - 1
    assert numtheory.factorize(q**60) == ((q, 60),)
    assert numtheory.factorize(q**5 * r**7 * 10) == ((2, 1), (5, 1), (q, 5), (r, 7))


MERSENNE_61, MERSENNE_31 = 2**61 - 1, 2**31 - 1


@pytest.mark.parametrize(
    "x, expected",
    [
        (MERSENNE_61**2, ((MERSENNE_61, 2),)),
        (MERSENNE_61**3 * MERSENNE_31, ((MERSENNE_31, 1), (MERSENNE_61, 3))),
        ((_ABOVE_20[0] * _ABOVE_20[1]) ** 2, ((_ABOVE_20[0], 2), (_ABOVE_20[1], 2))),
    ],
)
def test_perfect_powers_past_the_trial_bound(x, expected):
    """A power of a prime far above 2**20 is taken apart by an integer root;
    Pollard rho alone would need about sqrt(p) steps."""
    start = time.perf_counter()
    assert numtheory.factorize(x) == expected
    assert time.perf_counter() - start < 1.0


@given(st.integers(min_value=1, max_value=2**400), st.sampled_from([2, 3, 5, 7, 31]))
def test_integer_root_is_the_floor(m, k):
    r = numtheory._iroot(m, k)
    assert r**k <= m < (r + 1) ** k


def test_first_primes_grow_past_the_small_sieve(import_time_sieve):
    assert len(numtheory.small_primes()) == 564 and numtheory.small_primes()[-1] == 4093
    primes = numtheory.first_primes(1000)
    assert numtheory._sieve[0] == 1 << 13
    assert isinstance(primes, tuple) and len(primes) == 1000
    assert list(primes) == [n for n in range(2, 7920) if trial_division_factors(n) == [(n, 1)]]


def test_every_doubling_segment_matches_a_plain_sieve():
    limit = 1 << 20
    plain = bytearray([1]) * limit
    plain[0] = plain[1] = 0
    for p in range(2, 1 << 10):
        if plain[p]:
            plain[p * p::p] = bytes(len(range(p * p, limit, p)))
    primes = [n for n in range(limit) if plain[n]]
    lo = 4
    while lo < limit:
        below = tuple(p for p in primes if p < lo)
        assert list(numtheory._segment(lo, 2 * lo, below)) == [
            p for p in primes if lo <= p < 2 * lo
        ], lo
        lo *= 2


def test_readme_analyze_stays_in_the_small_sieve():
    """The README tour's analyze elements are 7-smooth: analyzing them never
    sieves past 2**12."""
    readme = (ROOT / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("gcdmat analyze "))
    elements = line.split("#")[0].split()[2:]
    assert all(max(p for p, _ in trial_division_factors(int(x))) <= 7 for x in elements)
    code = (
        "import contextlib, io, sys\n"
        "from gcdmat import cli, numtheory\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', *sys.argv[1:]]) == 0\n"
        "print(numtheory._sieve[0])\n"
    )
    src = str(Path(gcdmat.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, *elements], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert int(out) == 2**12


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


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**t, n) == n - 1 for t in range(1, r))


def test_the_twelve_bases_stop_at_psi_12():
    """psi_12, the least strong pseudoprime to the bases 2..37, passes all
    twelve and fails base 41; above 2**64 is_prime uses 40 bases and sees it."""
    psi_12 = 318_665_857_834_031_151_167_461
    assert psi_12 == 399_165_290_221 * 798_330_580_441
    assert 2**64 < psi_12 < 32 * 10**22
    assert numtheory._MR_DETERMINISTIC_BASES == tuple(numtheory.small_primes()[:12])
    assert all(_strong_probable_prime(psi_12, a) for a in numtheory._MR_DETERMINISTIC_BASES)
    assert not _strong_probable_prime(psi_12, 41)
    assert not numtheory.is_prime(psi_12)


def test_divisors():
    assert numtheory.divisors(1) == [1]
    assert numtheory.divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(InvalidArgumentError, match=r"divisors\(0\) is undefined"):
        numtheory.divisors(0)


@given(st.integers(1, 10**7))
def test_factorize_reconstructs(x):
    product = 1
    for p, e in numtheory.factorize(x):
        assert e >= 1
        assert numtheory.is_prime(p)
        product *= p**e
    assert product == x
