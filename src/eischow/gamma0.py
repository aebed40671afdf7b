"""Arithmetic invariants of the congruence group Gamma_0(N) for squarefree N.

The whole package parameterizes its formulas by the index psi(N), the
elliptic-point counts nu2, nu3, the cusp count, and the genus of X_0(N).
Everything here is exact integer arithmetic, and this module is the only
place in the package that decides primality, factors an integer or
evaluates the quadratic characters chi_-3 and chi_-4.  Levels above
MAX_LEVEL = 10^18 are refused with LevelTooLarge, which bounds the cost of
factoring at a few tens of milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import gcd, isqrt

from .errors import LevelTooLarge, NonSquarefree, NotADivisor

__all__ = [
    "MAX_LEVEL",
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


# the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the trial divisors: they alone decide every n < 101^2, so levels up to 10^4
# never reach Miller-Rabin or rho
_TRIAL_PRIMES = _SMALL_PRIMES + (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# (B, k): the first k small primes as bases decide every n < B (Jaeschke 1993;
# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_LIMIT = _MR_BASES[-1][0]
# the largest level any entry point accepts; it bounds the cost of factoring
MAX_LEVEL = 10 ** 18


def _is_prime_rough(n: int) -> bool:
    # primality of 1 < n < _MR_LIMIT with no prime factor p < 100 with
    # p^2 <= n: deterministic Miller-Rabin, as n < 101^2 is then prime
    if n < 101 * 101:
        return True
    k = next(k for bound, k in _MR_BASES if n < bound)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """True when the integer n is prime.

    Trial division by the primes below 100, then deterministic
    Miller-Rabin with as many of the primes <= 41 as bases as n needs;
    exact for every n < 3317044064679887385961981; ValueError from there up.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range {_MR_LIMIT}")
    for p in _TRIAL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return _is_prime_rough(n)


def _rho_brent(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor < 100.

    Pollard rho with Brent's cycle search and batched gcds (Brent, "An
    improved Monte Carlo factorization algorithm", 1980); the increment c
    of x -> x^2 + c moves on when a cycle closes without splitting n.
    """
    m = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _rough_prime_factors(n: int) -> list[int]:
    # the prime factors of n > 1, with multiplicity, in increasing order,
    # for n with no prime factor p < 100 with p^2 <= n
    if _is_prime_rough(n):
        return [n]
    d = _rho_brent(n)
    return sorted(_rough_prime_factors(d) + _rough_prime_factors(n // d))


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
    """Return the prime divisors of N in increasing order.

    The primes below 100 are divided out; a composite cofactor is split by
    Pollard rho-Brent until every piece passes Miller-Rabin.  Raises
    NonSquarefree on a square factor (naming its least prime) and
    LevelTooLarge above MAX_LEVEL, where the factoring cost is unbounded.
    """
    if not isinstance(N, int) or N < 1:
        raise NonSquarefree(f"level must be a positive integer, got {N!r}")
    if N > MAX_LEVEL:
        raise LevelTooLarge(f"level {N} exceeds MAX_LEVEL = {MAX_LEVEL}")
    primes = []
    n = N
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                raise NonSquarefree(f"{N} is divisible by {p}^2")
            primes.append(p)
    if n > 1:
        large = _rough_prime_factors(n)
        for p, q in zip(large, large[1:]):
            if p == q:
                raise NonSquarefree(f"{N} is divisible by {p}^2")
        primes += large
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
