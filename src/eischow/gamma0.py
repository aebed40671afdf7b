"""Arithmetic invariants of the congruence group Gamma_0(N) for squarefree N.

The whole package parameterizes its formulas by the index psi(N), the
elliptic-point counts nu2, nu3, the cusp count, and the genus of X_0(N).
Everything here is exact integer arithmetic, and this module is the only
place in the package that decides primality, factors an integer or
evaluates the quadratic characters chi_-3 and chi_-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

from .errors import NonSquarefree, NotADivisor

__all__ = [
    "Gamma0Data",
    "chi",
    "invariants",
    "genus_quotient",
    "is_prime",
    "primes_upto",
    "squarefree_factorization",
]


@dataclass(frozen=True)
class Gamma0Data:
    """Invariants of Gamma_0(N), N squarefree.

    psi is the index [Gamma_0(1) : Gamma_0(N)], nu2 and nu3 count elliptic
    points of order 2 and 3, cusps counts the cusps, genus is the genus of
    the modular curve X_0(N).
    """

    N: int
    primes: tuple[int, ...]
    psi: int
    nu2: int
    nu3: int
    cusps: int
    genus: int

    def quotient(self, p: int) -> "Gamma0Data":
        """Invariants of Gamma_0(N/p) for a prime p | N, read off the prime tuple."""
        if p not in self.primes:
            raise NotADivisor(f"{p} is not a prime divisor of {self.N}")
        return _from_primes(self.N // p, tuple(q for q in self.primes if q != p))


def _least_divisor(n: int, d: int = 2) -> int:
    # least divisor >= d of n > 1, for d = 2 or odd d; n itself when none is <= sqrt n
    while d * d <= n:
        if n % d == 0:
            return d
        d = 3 if d == 2 else d + 2
    return n


def is_prime(n: int) -> bool:
    """True when the integer n is prime (trial division by 2 and odd d <= sqrt n)."""
    return n >= 2 and _least_divisor(n) == n


def primes_upto(m: int) -> list[int]:
    """The primes p <= m in increasing order (sieve of Eratosthenes)."""
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return list(compress(range(m + 1), sieve))


def squarefree_factorization(N: int) -> tuple[int, ...]:
    """Return the prime divisors of N, raising NonSquarefree on a square factor."""
    if not isinstance(N, int) or N < 1:
        raise NonSquarefree(f"level must be a positive integer, got {N!r}")
    primes = []
    n = N
    p = 2
    while n > 1:
        p = _least_divisor(n, p)
        n //= p
        if n % p == 0:
            raise NonSquarefree(f"{N} is divisible by {p}^2")
        primes.append(p)
    return tuple(primes)


_CHI_M4 = {0: 0, 1: 1, 2: 0, 3: -1}
_CHI_M3 = {0: 0, 1: 1, 2: -1}


def chi(disc: int, n: int) -> int:
    """The quadratic character of conductor |disc| for disc in {-3, -4}.

    This is the Kronecker symbol (disc/n): period 4 with values 1, -1 at
    1, 3 mod 4 for disc = -4; period 3 with values 1, -1 at 1, 2 mod 3 for
    disc = -3.  Defined on all integers; both characters are odd.
    """
    if disc == -4:
        return _CHI_M4[n % 4]
    if disc == -3:
        return _CHI_M3[n % 3]
    raise ValueError(f"disc must be -3 or -4, got {disc}")


def invariants(N: int) -> Gamma0Data:
    """Compute the Gamma_0(N) invariants for squarefree N >= 1.

    psi(N) = N * prod_{p|N} (1 + 1/p); nu2 = prod_{p|N} (1 + chi_-4(p)) and
    nu3 = prod_{p|N} (1 + chi_-3(p)) count the roots of x^2 + 1 and
    x^2 + x + 1 mod N; for squarefree N the cusp count is 2^(number
    of prime divisors).  The genus is

        g = 1 + psi/12 - nu2/4 - nu3/3 - cusps/2,

    which is always an integer.
    """
    return _from_primes(N, squarefree_factorization(N))


def _from_primes(N: int, primes: tuple[int, ...]) -> Gamma0Data:
    psi = 1
    nu2 = 1
    nu3 = 1
    for p in primes:
        psi *= p + 1
        nu2 *= 1 + chi(-4, p)
        nu3 *= 1 + chi(-3, p)
    cusps = 2 ** len(primes)
    twelve_g = 12 + psi - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12:
        raise AssertionError(f"genus formula gave non-integer {twelve_g}/12 at N={N}")
    return Gamma0Data(
        N=N, primes=primes, psi=psi, nu2=nu2, nu3=nu3, cusps=cusps, genus=twelve_g // 12
    )


def genus_quotient(N: int, p: int) -> int:
    """Genus of X_0(N/p) for a prime p dividing the squarefree level N."""
    return invariants(N).quotient(p).genus
