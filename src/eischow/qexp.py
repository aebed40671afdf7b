"""Exact q-expansions of eta quotients, Hecke action on coefficients, and
Heegner divisor bookkeeping.

The eta quotient machinery is the package's only built-in cusp form
generator; it covers the discriminant form eta(z)^24 of level 1 and the
weight-2 level-11 generator eta(z)^2 eta(11z)^2.  Everything is exact
integer arithmetic on truncated power series.  The factors eta(d z)^r with
r > 0 are multiplied by Kronecker substitution: each series is packed into
one Python integer with w-bit slots (q = 2^w), so a series product is one
big-integer product.  The slot width w is the least multiple of 8 with
w >= bitlen(B) + 2, where B = prod (terms of the cut pentagonal series)^r
bounds the L^1 norm of the coefficients, so no slot overflows.  Factors with r < 0 divide the
decoded coefficients by the pentagonal series prod_n (1 - q^{dn}), one
sparse recurrence per unit of |r|.  eta(z)^2 eta(11z)^2 to M = 2400 takes
2-3 ms on a shared 2-core x86-64 host.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadHeckePrime,
    FractionalLeadingPower,
    LevelNotCoprimeTo6,
    PrecisionTooSmall,
)
from .gamma0 import chi, invariants, is_prime, squarefree_factorization

__all__ = [
    "QExpansion",
    "EtaQuotient",
    "eta_expand",
    "hecke_q",
    "HeegnerDivisor",
    "heegner_points",
    "CanonicalDecomposition",
    "canonical_decomposition",
]


@dataclass(frozen=True)
class QExpansion:
    """Cuspidal q-expansion a_1 q + a_2 q^2 + ... + a_M q^M (a_0 = 0)."""

    weight: int
    level: int
    coeffs: tuple

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def a(self, n: int):
        if n < 1:
            raise IndexError("coefficients are indexed from 1")
        if n > len(self.coeffs):
            raise PrecisionTooSmall(f"a_{n} not available at precision {self.precision}")
        return self.coeffs[n - 1]

    def to_json_obj(self) -> dict:
        return {"weight": self.weight, "level": self.level, "an": list(self.coeffs)}


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product prod_d eta(d z)^{r_d}, factors as (d, r) pairs."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("eta quotient needs at least one factor")
        for d, r in self.factors:
            if d < 1 or r == 0:
                raise ValueError(f"bad eta factor (d={d}, r={r})")

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    @property
    def leading_power(self) -> Fraction:
        return Fraction(sum(d * r for d, r in self.factors), 24)

    @property
    def level_lcm(self) -> int:
        out = 1
        for d, _ in self.factors:
            out = out * d // math.gcd(out, d)
        return out

    def to_text(self) -> str:
        return "*".join(f"eta({d})^{r}" for d, r in self.factors)

    @staticmethod
    def from_text(text: str) -> "EtaQuotient":
        factors = []
        for tok in text.replace(" ", "").split("*"):
            if not (tok.startswith("eta(") and ")^" in tok):
                raise ValueError(f"cannot parse eta factor {tok!r}")
            d_str, r_str = tok[4:].split(")^")
            factors.append((int(d_str), int(r_str)))
        return EtaQuotient(factors=tuple(factors))


def _euler_factor_sparse(d: int, M: int) -> list:
    """Nonzero (exponent, sign) pairs of prod_{n>=1} (1 - q^{dn}) up to q^M."""
    out = [(0, 1)]
    k = 1
    while True:
        g1 = d * k * (3 * k - 1) // 2
        g2 = d * k * (3 * k + 1) // 2
        if g1 > M and g2 > M:
            break
        s = -1 if k % 2 else 1
        if g1 <= M:
            out.append((g1, s))
        if g2 <= M:
            out.append((g2, s))
        k += 1
    return out


def _div_sparse(num: list, sparse: list) -> list:
    """num divided by the signed sparse series, truncated to len(num).

    The series starts with (0, 1), so the forward recurrence
    out[n] = num[n] - sum_{e > 0} s_e out[n - e] is exact in integers.
    """
    out = []
    terms = sparse[1:]
    for n, c in enumerate(num):
        for e, s in terms:
            if e > n:
                break
            c -= s * out[n - e]
        out.append(c)
    return out


def _pack(sparse: list, w: int) -> int:
    """The signed sparse series as one integer with w-bit slots, q = 2^w."""
    pos = sum(1 << (w * e) for e, s in sparse if s > 0)
    neg = sum(1 << (w * e) for e, s in sparse if s < 0)
    return pos - neg


def _power(x: int, r: int, mask: int) -> int:
    """x^r by square-and-multiply, every product reduced by ``mask`` (2^{wn} - 1)."""
    out = None
    while True:
        if r & 1:
            out = x if out is None else (out * x) & mask
        r >>= 1
        if not r:
            return out
        x = (x * x) & mask


def _bias(w: int, n: int, stride: int = 1) -> int:
    """2^{w-1} in every stride-th of n w-bit slots, starting at slot 0."""
    nb = w // 8
    buf = bytearray(nb * n)
    buf[nb - 1::nb * stride] = b"\x80" * -(-n // stride)
    return int.from_bytes(buf, "little")


def _biased_slots(x: int, w: int, n: int) -> bytes:
    """The n slots of x mod 2^{wn}, each shifted by 2^{w-1}, as little-endian bytes.

    A slot holding c with |c| < 2^{w-1} reads c + 2^{w-1} in [0, 2^w): the
    borrows of the negative slots resolve inside the one addition.
    """
    return ((x + _bias(w, n)) & ((1 << (w * n)) - 1)).to_bytes(w // 8 * n, "little")


def _dilate(x: int, w: int, n: int, d: int, length: int) -> int:
    """Substitute q -> q^d: the n slots of x moved to every d-th of ``length`` slots."""
    nb = w // 8
    raw = _biased_slots(x, w, n)
    buf = bytearray(nb * length)
    for k in range(nb):
        buf[k::nb * d] = raw[k::nb]
    return int.from_bytes(buf, "little") - _bias(w, length, d)


def _unpack(x: int, w: int, n: int) -> list:
    """The n signed slots of x mod 2^{wn}, lowest first."""
    nb, half = w // 8, 1 << (w - 1)
    raw = _biased_slots(x, w, n)
    if nb > 8:
        return [int.from_bytes(raw[i:i + nb], "little") - half for i in range(0, nb * n, nb)]
    # spread the slots into native 8-byte lanes and read them all at once
    buf = bytearray(8 * n)
    for k in range(nb):
        buf[k if sys.byteorder == "little" else 7 - k::8] = raw[k::nb]
    return [u - half for u in memoryview(buf).cast("Q")]


def eta_expand(q: EtaQuotient, M: int) -> QExpansion:
    """Exact integer coefficients a_1..a_M of the eta quotient.

    With t the leading power, the product needs L = M + 1 - t coefficients.
    Every factor eta(d z)^r with r > 0 is computed by Kronecker substitution,
    q = 2^w: the pentagonal series prod_n (1 - q^n), cut to ceil(L/d) terms,
    is packed into one integer of w-bit slots and raised to r by
    square-and-multiply, each product reduced mod 2^{w ceil(L/d)}; the result
    is spread to stride d (q -> q^d) and multiplied into the running product
    mod 2^{wL}.  The slots are decoded once at the end.  Let B be the product
    over these factors of (number of terms of the cut pentagonal series)^r;
    it bounds the L^1 norm of every intermediate and final coefficient
    vector, and w is the least multiple of 8 with w >= bitlen(B) + 2, so
    every slot holds its coefficient exactly.  Factors with r < 0 then run
    the division recurrence |r| times on the decoded coefficients.

    eta(z)^2 eta(11z)^2 at M = 2400 (w = 24) takes 2-3 ms and Delta at
    M = 2450 (w = 160) about 70-120 ms, on a shared 2-core x86-64 host.

    Rejects quotients whose leading power sum(d r_d)/24 is not a positive
    integer (FractionalLeadingPower) and quotients whose weight is not a
    positive even integer (ValueError): those are the only products this
    package accepts as cusp forms.
    """
    if M < 1:
        raise ValueError("precision M must be >= 1")
    t = q.leading_power
    if t.denominator != 1 or t <= 0:
        raise FractionalLeadingPower(f"leading q-power {t} is not a positive integer")
    weight = q.weight
    if weight.denominator != 1 or weight <= 0 or weight % 2 != 0:
        raise ValueError(f"weight {weight} is not a positive even integer")
    t = int(t)
    L = M + 1 - t
    coeffs = []
    if L > 0:
        positive = [(d, r, _euler_factor_sparse(1, -(-L // d) - 1)) for d, r in q.factors if r > 0]
        bound = math.prod(len(sparse) ** r for _, r, sparse in positive)
        w = 8 * ((bound.bit_length() + 9) // 8)
        prod = 1
        for d, r, sparse in positive:
            n = -(-L // d)
            x = _power(_pack(sparse, w), r, (1 << (w * n)) - 1)
            if d > 1:
                x = _dilate(x, w, n, d, L)
            prod = (prod * x) & ((1 << (w * L)) - 1)
        coeffs = _unpack(prod, w, L)
        for d, r in q.factors:
            if r < 0:
                sparse = _euler_factor_sparse(d, L - 1)
                for _ in range(-r):
                    coeffs = _div_sparse(coeffs, sparse)
    coeffs = [0] * (M - len(coeffs)) + coeffs
    return QExpansion(weight=int(weight), level=q.level_lcm, coeffs=tuple(coeffs))


def hecke_q(l: int, f: QExpansion) -> QExpansion:
    """Coefficient action of T_l: (T_l f)_n = a_{ln} + l^{k-1} a_{n/l}.

    Valid up to precision floor(M / l); requires l prime with l not
    dividing the level.
    """
    if not is_prime(l) or f.level % l == 0:
        raise BadHeckePrime(f"l = {l} must be a prime not dividing the level {f.level}")
    mp = f.precision // l
    if mp < 1:
        raise PrecisionTooSmall(f"precision {f.precision} too small for T_{l}")
    lk = l ** (f.weight - 1)
    out = []
    for n in range(1, mp + 1):
        c = f.a(l * n)
        if n % l == 0:
            c += lk * f.a(n // l)
        out.append(c)
    return QExpansion(weight=f.weight, level=f.level, coeffs=tuple(out))


@dataclass(frozen=True)
class HeegnerDivisor:
    """The CM-point divisor block of one discriminant on X_0(N).

    ``roots`` lists the residues b mod 2N with b^2 = disc (mod 4N); each
    root contributes one point P and one block weight_per_point * ([P] -
    [infinity]) of degree zero.
    """

    level: int
    disc: int
    roots: tuple
    weight_per_point: Fraction

    @property
    def count(self) -> int:
        return len(self.roots)

    def to_json_obj(self) -> dict:
        return {
            "level": self.level,
            "disc": self.disc,
            "roots": list(self.roots),
            "weight_per_point": str(self.weight_per_point),
            "count": self.count,
        }


def heegner_points(N: int, disc: int) -> HeegnerDivisor:
    """The b in [0, 2N) with b^2 = disc (mod 4N), in increasing order.

    The roots are assembled by the Chinese remainder theorem from the two
    square roots of disc modulo each prime p | N; past factoring N, each of
    the 2^k roots costs time polynomial in log N.  Only discriminants -3 and -4 are accepted (class number one,
    the two CM orbits over j = 0 and j = 1728); the level must be
    squarefree and coprime to 6.
    """
    return _heegner_points(N, squarefree_factorization(N), disc)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _heegner_points(N: int, primes: tuple, disc: int) -> HeegnerDivisor:
    # primes is the squarefree factorization of N
    if math.gcd(N, 6) != 1:
        raise LevelNotCoprimeTo6(f"gcd({N}, 6) != 1")
    if disc not in (-3, -4):
        raise ValueError(f"disc must be -3 or -4, got {disc}")
    # roots of x^2 = disc mod M, extended one prime p | N at a time
    roots, M = [0], 1
    for p in primes:
        if chi(disc, p) != 1:
            roots = []
            break
        r = _sqrt_mod(disc % p, p)
        inv = pow(M, -1, p)
        roots = [x + M * ((y - x) * inv % p) for x in roots for y in (r, p - r)]
        M *= p
    # N is odd: of r and r + N exactly one is = disc (mod 2), hence a root mod 4N
    roots = sorted(x if (x - disc) % 2 == 0 else x + N for x in roots)
    return HeegnerDivisor(
        level=N,
        disc=disc,
        roots=tuple(roots),
        weight_per_point=Fraction(1, 2) if disc == -4 else Fraction(1, 3),
    )


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The canonical divisor as (2g-2)[infinity] - H_i - 2 H_j."""

    N: int
    mult_infty: int
    h_i: HeegnerDivisor
    h_j: HeegnerDivisor

    def to_json_obj(self) -> dict:
        return {
            "N": self.N,
            "mult_infty": self.mult_infty,
            "h_i": self.h_i.to_json_obj(),
            "h_j": self.h_j.to_json_obj(),
        }


def canonical_decomposition(N: int) -> CanonicalDecomposition:
    """Multiplicity 2g-2 at infinity plus the two Heegner blocks."""
    inv = invariants(N)
    return CanonicalDecomposition(
        N=N,
        mult_infty=2 * inv.genus - 2,
        h_i=_heegner_points(N, inv.primes, -4),
        h_j=_heegner_points(N, inv.primes, -3),
    )
