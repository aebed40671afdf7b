"""Seeded level generation for the exact workloads.

Levels are built from primes chosen by the benchmark, so their
factorization is known without asking the library; the screening
(squarefree, genus >= 2, no vanishing fiber denominator
g(N) - 2 g(N/p) + 1) uses the standard genus formula on that factorization.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

SMALL_MAX = 10 ** 4
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# large sub-kind -> (prime range lo, hi, number of distinct prime factors)
LARGE_KINDS = {
    "prime1e6": (10 ** 6, 102 * 10 ** 4, 1),
    "prime1e11": (10 ** 11, 10 ** 11 + 10 ** 9, 1),
    "semiprime1e12": (10 ** 6, 102 * 10 ** 4, 2),
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_small(n: int) -> tuple[int, ...] | None:
    """Prime divisors of a small n, or None if n is not squarefree."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def genus(primes) -> int:
    psi, nu2, nu3 = 1, 1, 1
    for p in primes:
        psi *= p + 1
        nu2 *= 1 if p == 2 else (2 if p % 4 == 1 else 0)
        nu3 *= 1 if p == 3 else (2 if p % 3 == 1 else 0)
    g = 1 + Fraction(psi, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(2 ** len(primes), 2)
    return int(g)


def admissible(primes) -> bool:
    """genus >= 2 and every fiber denominator g - 2 g_{N/p} + 1 nonzero."""
    g = genus(primes)
    if g < 2:
        return False
    return all(g - 2 * genus([q for q in primes if q != p]) + 1 != 0 for p in primes)


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def small_level(rng: random.Random, k: int, used: set, require=None) -> int:
    """Admissible squarefree N <= 10^4 with exactly k prime factors."""
    while True:
        n = rng.randrange(2, SMALL_MAX + 1)
        primes = factor_small(n)
        if (
            n not in used
            and primes is not None
            and len(primes) == k
            and admissible(primes)
            and (require is None or require(n))
        ):
            used.add(n)
            return n


def smooth_level(rng: random.Random, k: int) -> int:
    """Product of k distinct primes below 50, one of them 2 or 3.

    Sharing a factor with 6 keeps the O(N) Heegner scan (which would run
    for N <= 10^7) out of this class, so its cost stays in eis and hecke.
    """
    while True:
        primes = sorted(rng.sample(SMOOTH_PRIMES, k))
        if primes[0] <= 3 and admissible(primes):
            return math.prod(primes)


def large_level(rng: random.Random, kind: str) -> int:
    """One level of a large sub-kind; the magnitude fixes the cost."""
    lo, hi, count = LARGE_KINDS[kind]
    while True:
        primes = sorted({random_prime(rng, lo, hi) for _ in range(count)})
        if len(primes) == count and admissible(primes):
            return math.prod(primes)


def hecke_prime(rng: random.Random, n: int) -> int:
    """A small prime l not dividing n (seeded among the first three)."""
    candidates = [p for p in SMOOTH_PRIMES if n % p][:3]
    return rng.choice(candidates)


def non_squarefree(rng: random.Random) -> int:
    p = rng.choice((2, 3, 5, 7))
    return p * p * rng.randrange(1, SMALL_MAX // (p * p))
