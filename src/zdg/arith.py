"""Integer arithmetic helpers: factorization, totient, divisor enumeration.

Everything here is exact integer math via trial division.  Inputs may be
any integer up to 2^63 - 1, but trial division is only comfortable up to
around 10^12: factorizing the prime 2^61 - 1 takes over a minute.
"""
from __future__ import annotations

from dataclasses import dataclass

_MAX_N = 2**63 - 1


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n as ascending (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

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
    """Factor n by trial division up to sqrt(n).

    factorize(1) has an empty factor list.
    """
    _check_range(n)
    m = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    # remaining candidates are coprime to 6
    d = 5
    step = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += step
        step = 6 - step
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def totient(f: Factorization) -> int:
    """Euler's totient from a factorization; totient of 1 is 1."""
    t = 1
    for p, a in f.factors:
        t *= (p - 1) * p ** (a - 1)
    return t


def divisors(f: Factorization) -> list[int]:
    """All positive divisors of n in ascending order."""
    out = [1]
    for p, a in f.factors:
        pk = 1
        ext = []
        for _ in range(a):
            pk *= p
            ext.extend(d * pk for d in out)
        out.extend(ext)
    out.sort()
    return out


def format_factorization(f: Factorization) -> str:
    """Render like 2^2*3; the empty factorization (n = 1) renders as 1."""
    if not f.factors:
        return "1"
    return "*".join(f"{p}^{a}" if a > 1 else str(p) for p, a in f.factors)
