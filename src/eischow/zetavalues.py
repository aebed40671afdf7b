"""Certified float evaluation of the constants behind the symbolic basis.

The only transcendental constants the package ever needs numerically are
log p for primes p and

    kappa = (1/2) zeta(-1) + zeta'(-1),

where zeta'(-1) = 1/12 - log A and A is the Glaisher-Kinkelin constant.
Two genuinely independent routes to zeta'(-1) are provided:

* ``zeta_prime_at_minus1`` sums the hyperfactorial Euler-Maclaurin series
  for log A (the classical limit definition of the Glaisher constant) and
  carries a certified error bound;
* ``zeta_prime_at_minus1_functional_equation`` evaluates zeta near s = -1
  through the functional equation and differentiates numerically with
  Richardson extrapolation.

The first route backs ``SymbolicReal.evaluate``; the second exists so tests
can cross-check the constant without shared machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PrecisionUnreachable

__all__ = [
    "log_glaisher",
    "zeta_prime_at_minus1",
    "zeta_prime_at_minus1_functional_equation",
    "kappa_value",
    "log_prime_value",
]

# Bernoulli numbers B_2 .. B_16
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}

# conservative per-operation float error used in certified bounds
_EPS = 2.0 ** -50
# Euler-Maclaurin (sum length, Bernoulli corrections) for log A and for zeta(s),
# and the widest central-difference step of the functional-equation route
_GLAISHER_N, _GLAISHER_TERMS = 15, 5
_ZETA_M, _ZETA_J = 60, 6
_FE_STEP = 0.1


def log_glaisher() -> tuple[float, float]:
    """log of the Glaisher-Kinkelin constant with a certified error bound.

    Euler-Maclaurin applied to sum_{k<=n} k log k (n = _GLAISHER_N, J = _GLAISHER_TERMS) gives

        log A = sum_{k<=n} k log k - (n^2/2 + n/2 + 1/12) log n + n^2/4
                + sum_{j=2}^{J+1} B_{2j} / ((2j)(2j-1)(2j-2)) n^{2-2j} + eps,

    with |eps| at most twice the first omitted correction term.  Small n is
    deliberate: the cancellation between the k log k sum and the leading
    term grows with n and would dominate the certified bound.
    """
    n = _GLAISHER_N
    pieces = [k * math.log(k) for k in range(2, n + 1)]
    pieces.append(-(n * n / 2.0) * math.log(n))
    pieces.append(-(n / 2.0) * math.log(n))
    pieces.append(-math.log(n) / 12.0)
    pieces.append(n * n / 4.0)
    for j in range(2, _GLAISHER_TERMS + 2):
        beta = _BERNOULLI[2 * j] / (2 * j * (2 * j - 1) * (2 * j - 2))
        pieces.append(float(beta) * n ** (2 - 2 * j))
    value = math.fsum(pieces)
    j = _GLAISHER_TERMS + 2
    tail = 2.0 * abs(float(_BERNOULLI[2 * j])) / (2 * j * (2 * j - 1) * (2 * j - 2)) * n ** (2 - 2 * j)
    roundoff = math.fsum(abs(p) for p in pieces) * _EPS
    return value, tail + roundoff


def zeta_prime_at_minus1() -> tuple[float, float]:
    """zeta'(-1) = 1/12 - log A, with certified error bound."""
    ln_a, bound = log_glaisher()
    return 1.0 / 12.0 - ln_a, bound + 1e-16


def _zeta_euler_maclaurin(s: float) -> float:
    # Riemann zeta for real s > 1 via Euler-Maclaurin; tail far below 1e-20
    # in the range s in [1.5, 2.5] used here.
    m = _ZETA_M
    total = math.fsum(k ** -s for k in range(1, m + 1))
    total += m ** (1 - s) / (s - 1) - 0.5 * m ** -s
    for j in range(1, _ZETA_J + 1):
        poch = 1.0
        for i in range(2 * j - 1):
            poch *= s + i
        total += float(_BERNOULLI[2 * j]) / math.factorial(2 * j) * poch * m ** (-s - 2 * j + 1)
    return total


def _zeta_near_minus1(s: float) -> float:
    # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    return (
        2.0 ** s
        * math.pi ** (s - 1.0)
        * math.sin(math.pi * s / 2.0)
        * math.gamma(1.0 - s)
        * _zeta_euler_maclaurin(1.0 - s)
    )


def zeta_prime_at_minus1_functional_equation() -> tuple[float, float]:
    """zeta'(-1) by central differences of the functional-equation values.

    Returns (value, error_estimate); the estimate is the difference of the
    last two Richardson levels plus a float-noise floor.  This route shares
    nothing with the Glaisher series and serves as its independent oracle.
    """
    levels = 4
    d = {}
    for k in range(levels):
        hh = _FE_STEP / 2 ** k
        d[(0, k)] = (_zeta_near_minus1(-1 + hh) - _zeta_near_minus1(-1 - hh)) / (2 * hh)
    for m in range(1, levels):
        for k in range(levels - m):
            d[(m, k)] = (4 ** m * d[(m - 1, k + 1)] - d[(m - 1, k)]) / (4 ** m - 1)
    value = d[(levels - 1, 0)]
    estimate = abs(value - d[(levels - 2, 0)]) + 1e-13
    return value, estimate


def kappa_value() -> tuple[float, float]:
    """(1/2) zeta(-1) + zeta'(-1) with certified bound; zeta(-1) = -1/12."""
    zp, bound = zeta_prime_at_minus1()
    return -1.0 / 24.0 + zp, bound + 1e-16


def log_prime_value(p: int) -> tuple[float, float]:
    """log p with a certified bound (a few ulp of the library log)."""
    v = math.log(p)
    return v, 4.0 * abs(v) * 2.0 ** -53


def certify(total_bound: float, precision: int) -> None:
    """Raise PrecisionUnreachable unless total_bound <= 10^-precision."""
    if precision < 1:
        raise ValueError("precision must be a positive integer")
    if total_bound > 10.0 ** -precision:
        raise PrecisionUnreachable(
            f"certified bound {total_bound:.3e} exceeds 1e-{precision}"
        )
