"""Arithmetic layer: factorization and its text form."""
from __future__ import annotations

import math
import random
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, primerange

from zdg import arith
from zdg.arith import (
    _MR_TIERS,
    Factorization,
    _is_prime,
    factorize,
    format_factorization,
)

PROPERTY_SETTINGS = settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(25).factors == ((5, 2),)
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(97).factors == ((97, 1),)


def test_factorize_rejects_out_of_range():
    for bad in (0, -1, -12, 2**63):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_rejects_non_int():
    with pytest.raises(ValueError):
        factorize(12.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        factorize(True)


def test_factorization_predicates():
    assert factorize(1).is_composite() is False
    assert factorize(7).is_prime() is True
    assert factorize(7).is_composite() is False
    assert factorize(4).is_composite() is True


def test_format_factorization():
    assert format_factorization(factorize(12)) == "2^2*3"
    assert format_factorization(factorize(1)) == "1"
    assert format_factorization(factorize(30)) == "2*3*5"
    assert format_factorization(factorize(8)) == "2^3"


def test_factorize_large_square():
    # squares split at their root: rho alone needs about sqrt(p) steps on p^2
    for p in (1000003, 2147483647, 3037000493):
        runs = [_timed_factorize(p * p) for _ in range(3)]
        assert runs[0][0].factors == ((p, 2),)
        assert min(elapsed for _, elapsed in runs) < 0.005, p


def _timed_factorize(n):
    t0 = time.perf_counter()
    f = factorize(n)
    return f, time.perf_counter() - t0


def test_factorize_prime_squares_near_trial_bound():
    # a prime missing from the trial table would leave p^2 < 10^6 as a "prime"
    for p in primerange(2, 1100):
        assert factorize(p * p).factors == ((p, 2),), p


# Inputs that defeat weak primality tests or slow factoring methods.
HARD_INPUTS = [
    561,  # Carmichael numbers
    41041,
    825265,
    321197185,
    341550071728321,  # strong pseudoprime to bases 2..17
    3825123056546413051,  # strong pseudoprime to bases 2..23
    2**61 - 1,  # prime
    2**63 - 25,  # largest prime below 2^63
    2**63 - 1,  # 7^2*73*127*337*92737*649657
    3037000453 * 3037000493,  # balanced semiprimes
    2147483647 * 4294967291,
    3037000493**2,  # prime powers
    2147483647**2,
    2097143**3,
]


@pytest.mark.parametrize("n", HARD_INPUTS)
def test_factorize_hard_inputs(n):
    f, elapsed = _timed_factorize(n)
    assert f.factors == tuple(sorted(factorint(n).items()))
    assert elapsed < 1.0


def _factors_of(n):
    return tuple(sorted(factorint(n).items()))


def test_factorize_trial_division_exit():
    # trial division ends once every prime below 1000 dividing n is out;
    # each n >= 10^6 is shaped so that an exit one prime or one power
    # early would show
    big = [1000003, 2147483647, 999999000001]
    cases = [2 * q for q in big]  # nothing small left after 2
    cases += [991 * 997 * q for q in big]  # the last small prime ends the table
    cases += [p * p * q for p in (2, 3, 31, 991, 997) for q in big]  # p twice in m
    cases += [math.prod(primerange(2, 42)) * 997]  # 43# * 997 exceeds 2^63 - 1
    cases += [1009 * 1000003, 1000003 * 2147483647]  # no prime below 1000
    # the gcd exit starts at n = 1000: both sides of it and of 10^6, and n
    # below 10^6 with a prime above 1000, where the gcd ends the walk early
    cases += [998, 999, 1000, 1001, 1009, 2018, 999919, 10**6 - 1, 10**6]
    cases += [10**6 + 3]
    rng = random.Random(20)
    for _ in range(200):
        q = nextprime(rng.randrange(1000, 10**5))
        cases.append(rng.randrange(1, 10**6 // q) * q)
    for n in cases:
        assert factorize(n).factors == _factors_of(n), n


class _CountedPrimes(tuple):
    """A prime table that counts the primes handed out by its iterators."""

    visited = 0

    def __iter__(self):
        for p in super().__iter__():
            self.visited += 1
            yield p


@pytest.mark.parametrize(
    "n, visited",
    [
        (2 * 183611, 1),  # the p * p > m exit alone ends at 431, 83 primes
        (4 * 50651, 1),  # ... at 227, 49 primes
        (991 * 1009, 167),  # the last small prime is 991, the 167th
        (1009, 0),  # no prime below 1000 divides n: no walk, not 12 primes
        (2 * 499, 9),  # below 1000 the p * p > m exit ends it, at 23
        (997, 12),  # ... at 37
    ],
)
def test_factorize_trial_division_visits(monkeypatch, n, visited):
    # from n >= 1000 on, the walk ends at n's last prime below 1000
    primes = _CountedPrimes(arith._SMALL_PRIMES)
    monkeypatch.setattr(arith, "_SMALL_PRIMES", primes)
    assert factorize(n).factors == _factors_of(n)
    assert primes.visited == visited


def test_factorize_gcd_split():
    # _split takes one gcd with the primes in (1000, 10^4) before rho: a
    # split at a wrong gcd, or one that keeps a square's second prime,
    # would show here
    cases = [q * r for q in (1009, 9973) for r in (1000003, 2147483647, 999999000001)]
    cases += [1009 * 9973]  # the gcd is m itself, so rho splits it
    cases += [p * p * r for p in (1009, 9973) for r in (1000003, 2147483647)]
    cases += [1009 * 9973 * r for r in (1000003, 2147483647)]
    for n in cases:
        assert factorize(n).factors == _factors_of(n), n


def test_factorize_gcd_split_needs_no_rho(monkeypatch):
    def no_rho(m):
        raise AssertionError(f"rho called on {m}")

    monkeypatch.setattr(arith, "_pollard_brent", no_rho)
    n = 9973 * 999999000001
    assert factorize(n).factors == ((9973, 1), (999999000001, 1))
    # when the gcd is m itself it splits nothing, and rho runs
    with pytest.raises(AssertionError, match="rho called on 10062757"):
        factorize(1009 * 9973)


def test_mid_primorial_not_built_on_import(child_env):
    # the product of the primes in (1000, 10^4) is built by the first split
    # that needs it, so starting the CLI does not pay for it
    script = (
        "import zdg.cli; from zdg import arith; "
        "print(arith._mid_primorial.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
    assert arith._mid_primorial() == math.prod(primerange(1001, 10**4))


def _strong_probable_prime(m, a):
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def test_miller_rabin_psi_tiers():
    # each row's bound is a composite that passes every base in its row, so
    # a row that reached up to it, or one raised past it, calls it prime
    bounds = [bound for bound, _ in _MR_TIERS]
    assert bounds == sorted(bounds)
    for bound, bases in _MR_TIERS:
        assert not isprime(bound), bound
        assert all(_strong_probable_prime(bound, a) for a in bases), bound
        if bound <= 2**63 - 1:
            assert not _is_prime(bound), bound
    # each band [previous bound, bound) is decided by its row's bases; most
    # odd m are composite, so primes are added by nextprime
    rng = random.Random(20261019)
    for lo, hi in zip([3] + bounds, bounds):
        hi = min(hi, 2**63 - 1)
        odd = [rng.randrange(lo, hi) | 1 for _ in range(200)]
        ends = {lo - 2, lo, lo + 2, hi - 2, hi, hi + 2}
        ends = {m for m in ends if 3 <= m < 2**63}
        sample = {*ends, *odd, *(nextprime(m) for m in odd[:20])}
        for m in sample:
            assert _is_prime(m) == isprime(m), m


def test_miller_rabin_bases_are_exact_only_below_psi12():
    # psi_12 (Sorenson & Webster, Math. Comp. 86, 2017) is the least
    # composite that is a strong probable prime to the first 12 primes, so
    # the last row is exact below it, which covers every 64-bit n
    psi12 = 318665857834031151167461
    p, q = 399165290221, 798330580441
    assert p * q == psi12 and isprime(p) and isprime(q)
    assert _MR_TIERS[-1] == (psi12, tuple(primerange(2, 38)))
    assert _is_prime(psi12)
    assert psi12 > 2**63 - 1


def test_factorize_seeded_sample():
    # every bit length in 1..63 is equally likely, so small n are drawn as often as large
    rng = random.Random(20261018)
    for _ in range(10**4):
        bits = rng.randint(1, 63)
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        f = factorize(n)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes)), n
        assert all(isprime(p) for p in primes), n
        assert math.prod(p**a for p, a in f.factors) == n


def test_factorize_check_survives_optimize(run_optimized):
    # a rho step that returns a non-divisor must be caught under -O
    proc = run_optimized(
        "import sys\n"
        "from zdg import arith\n"
        "from zdg.errors import CertificateError\n"
        "arith._pollard_brent = lambda m: 1000033\n"
        "try:\n"
        "    arith.factorize(1000003 * 1000037)\n"
        "except CertificateError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 n=1000040000111: prime powers multiply to 0, expected 1000040000111\n"
    )


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=2**63 - 1))
def test_factorization_reconstructs_and_is_prime(n):
    f = factorize(n)
    prod = 1
    for p, a in f.factors:
        assert a >= 1
        assert isprime(p)
        prod *= p**a
    assert prod == n
    assert [p for p, _ in f.factors] == sorted({p for p, _ in f.factors})


def test_factorization_is_frozen():
    f = factorize(12)
    with pytest.raises(AttributeError):
        f.n = 13  # type: ignore[misc]
    assert f == Factorization(12, ((2, 2), (3, 1)))
