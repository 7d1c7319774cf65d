"""Integer arithmetic: prime factorization and its text form.

Everything here is exact integer math on any n in [1, 2^63 - 1].
factorize trial-divides by the primes below 1000, which completely factors
every n below 10^6.  A larger cofactor is tested with deterministic
Miller-Rabin and split with Pollard-Brent rho, so the worst 64-bit inputs
(balanced semiprimes and squares of primes near 3e9) take well under a
second.
"""
from __future__ import annotations

from itertools import count
from math import gcd, isqrt
from typing import NamedTuple

_MAX_N = 2**63 - 1


def _primes_below(bound: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p in range(bound) if sieve[p])


# Trial division by every prime below _TRIAL_BOUND leaves a cofactor whose
# prime factors all exceed the bound, so a cofactor below _PRIME_BELOW is
# 1 or prime.
_TRIAL_BOUND = 1000
_PRIME_BELOW = _TRIAL_BOUND**2
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
# Miller-Rabin on the first 12 primes as bases is exact below their least
# strong pseudoprime, ~3.18e23 > 2^63 (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = _SMALL_PRIMES[:12]
# Pollard-Brent folds this many differences into one product per gcd.
_RHO_BATCH = 128


class Factorization(NamedTuple):
    """Prime factorization of n as ascending (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def is_composite(self) -> bool:
        return self.n >= 4 and not self.is_prime()


def _check_range(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {type(n).__name__}")
    if n < 1 or n > _MAX_N:
        raise ValueError(f"n must be in [1, 2^63 - 1], got {n}")


def factorize(n: int) -> Factorization:
    """Factor n: divide out the primes below 1000, split the rest by rho.

    Deterministic, with no randomness: Miller-Rabin uses fixed bases and
    the rho walks fixed sequences.  factorize(1) has an empty factor list.
    Raises RuntimeError naming n if the prime powers found do not multiply
    back to n.
    """
    _check_range(n)
    m = n
    factors: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        if p * p > m:
            break
    if m >= _PRIME_BELOW:
        # every prime left exceeds those found so far, so order holds
        large: list[int] = []
        _split(m, large)
        factors.extend((p, large.count(p)) for p in sorted(set(large)))
    elif m > 1:
        factors.append((m, 1))
    product = 1
    for p, a in factors:
        product *= p**a
    if product != n:
        raise RuntimeError(f"n={n}: prime powers multiply to {product}, expected {n}")
    return Factorization(n, tuple(factors))


def _split(m: int, out: list[int]) -> None:
    """Append the prime factors of m, with multiplicity, to out.

    m has no prime factor below _TRIAL_BOUND.
    """
    if m < _PRIME_BELOW or _is_prime(m):
        out.append(m)
        return
    d = _pollard_brent(m)
    _split(d, out)
    _split(m // d, out)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for odd m > _MR_BASES[-1], m < 3.18e23."""
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_brent(m: int) -> int:
    """A proper divisor of the odd composite m (Brent, BIT 20, 1980).

    Walks y -> y^2 + c from y = 2, for c = 1, 2, ... until one walk
    separates a factor.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def format_factorization(f: Factorization) -> str:
    """Render like 2^2*3; the empty factorization (n = 1) renders as 1."""
    if not f.factors:
        return "1"
    return "*".join(f"{p}^{a}" if a > 1 else str(p) for p, a in f.factors)
