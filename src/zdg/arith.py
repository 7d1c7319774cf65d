"""Integer arithmetic: prime factorization and its text form.

Everything here is exact integer math on any n in [1, 2^63 - 1].
factorize trial-divides by the primes below 1000, which completely factors
every n below 10^6.  For n >= 1000 it stops at n's last prime below 1000:
small, the product of the primes below 1000 that divide n
(gcd(n, _PRIMORIAL)), is divided by each prime found, and the loop ends
once it is 1; when small is 1 from the start the loop is not entered.
Below 1000 every prime of n is below 1000, so the cofactor is 1 once the
last one is out and the p * p > cofactor exit comes no later: the gcd is
not paid there.  A larger cofactor is tested with deterministic
Miller-Rabin on the shortest base set proved exact below it (Jaeschke,
Math. Comp. 61, 1993; see _is_prime).  A composite cofactor is split at
its square root if it is a square, else at its gcd with the product of
the primes between 1000 and 10^4, else by Pollard-Brent rho, so the worst
64-bit inputs (balanced semiprimes near 3e9) take well under a second.
"""
from __future__ import annotations

from functools import cache
from itertools import count
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import CertificateError

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
_PRIMORIAL = prod(_SMALL_PRIMES)
# Miller-Rabin on the bases of the first row whose bound exceeds m is exact.
# Each bound is the least composite that is a strong probable prime to
# every base in its row; where the bases are the first t primes it is
# psi_t of OEIS A014233 (sources in _is_prime).
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, _SMALL_PRIMES[:5]),
    (3474749660383, _SMALL_PRIMES[:6]),
    (341550071728321, _SMALL_PRIMES[:7]),
    (3825123056546413051, _SMALL_PRIMES[:9]),
    (318665857834031151167461, _SMALL_PRIMES[:12]),
)
# _split takes one gcd with the product of the primes in
# (_TRIAL_BOUND, _GCD_BOUND) before it walks rho.
_GCD_BOUND = 10**4
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

    Trial division stops once p^2 exceeds the cofactor or, for n >= 1000,
    at n's last prime below 1000, and is skipped when no prime below 1000
    divides such an n (one gcd with their product finds them).  Below
    1000 the p^2 exit is never later than the last prime, so the gcd is
    not taken.  Deterministic, with no randomness: Miller-Rabin
    uses fixed bases and the rho walks fixed sequences.  factorize(1) has
    an empty factor list.  Raises CertificateError naming n if the prime
    powers found do not multiply back to n.
    """
    _check_range(n)
    m = n
    # a multiple of the primes below 1000 that still divide m; below
    # _TRIAL_BOUND m is 1 once n's last prime is out, so the p * p > m exit
    # comes no later than small == 1 and the gcd is not paid
    small = gcd(n, _PRIMORIAL) if n >= _TRIAL_BOUND else n
    factors: list[tuple[int, int]] = []
    if small > 1:
        for p in _SMALL_PRIMES:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
                small //= p
                if small == 1:
                    break
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
        raise CertificateError(
            f"n={n}: prime powers multiply to {product}, expected {n}"
        )
    return Factorization(n, tuple(factors))


def _split(m: int, out: list[int]) -> None:
    """Append the prime factors of m, with multiplicity, to out.

    m has no prime factor below _TRIAL_BOUND.  A square is split at its
    root, where rho would need about sqrt(p) steps on p^2.  Otherwise one
    gcd with _mid_primorial() splits off m's primes below _GCD_BOUND,
    which rho would find only after about sqrt(p) steps each; rho runs
    when that gcd is 1 or m itself.
    """
    if m < _PRIME_BELOW or _is_prime(m):
        out.append(m)
        return
    r = isqrt(m)
    if r * r == m:
        d = r
    else:
        d = gcd(m, _mid_primorial())
        if d == 1 or d == m:
            d = _pollard_brent(m)
    _split(d, out)
    _split(m // d, out)


@cache
def _mid_primorial() -> int:
    """The product of the primes in (_TRIAL_BOUND, _GCD_BOUND), about 12.9k
    bits, built on the first split that needs it rather than at import."""
    return prod(p for p in _primes_below(_GCD_BOUND) if p > _TRIAL_BOUND)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for odd m with 3 <= m < psi_12 ~ 3.18e23.

    m is tested on the bases of the first _MR_TIERS row whose bound
    exceeds it.  That bound is the least strong pseudoprime to those
    bases, so a pass proves m prime.  The rows below psi_5 are Jaeschke's
    (Math. Comp. 61, 1993): base 2 below 2047, (2, 7, 61) below
    4759123141 and (2, 13, 23, 1662803) below 1122004669633.  Above
    them the bases are the first t primes, exact below psi_t (OEIS
    A014233): psi_5..psi_8 from Jaeschke, psi_9 from Jiang & Deng (Math.
    Comp. 83, 2014) and psi_12 from Sorenson & Webster (Math. Comp. 86,
    2017).  So a cofactor near 10^12 needs four bases, one near 10^13
    six or seven, and no 64-bit m more than twelve.
    """
    for bound, bases in _MR_TIERS:
        if m < bound:
            break
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x != 1 and x != m - 1:
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
