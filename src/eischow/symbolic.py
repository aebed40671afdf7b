"""Exact arithmetic in the rational span of 1, kappa, and log p.

Every intersection number this package produces is a rational linear
combination of the basis symbols

    ONE                 the rational unit,
    KAPPA               (1/2) zeta(-1) + zeta'(-1),
    LOG(p)              log p for a prime p.

``SymbolicReal`` stores such a combination in canonical form (no zero
coefficients), so equality is exact and decidable.  Addition, negation and
scaling by rationals are closed; multiplication of two general elements is
deliberately unsupported (bilinear pairings only ever multiply a symbolic
value by a rational multiple of ONE, see ``linear_product``).
"""

from __future__ import annotations

from fractions import Fraction

from . import zetavalues
from .gamma0 import MAX_LEVEL, is_prime

__all__ = ["SymbolicReal", "ONE", "KAPPA", "LOG", "linear_product"]

_ONE_KEY = "ONE"
_KAPPA_KEY = "KAPPA"


def _is_symbol(sym: str) -> bool:
    # the one place a LOG(p) symbol's primality is tested
    if sym in (_ONE_KEY, _KAPPA_KEY):
        return True
    # only the canonical spelling of p: ASCII digits, no leading zero, no
    # more digits than MAX_LEVEL (so int() never sees a huge or exotic body)
    body = sym[4:-1]
    if not (sym.startswith("LOG(") and sym.endswith(")") and body.isascii()
            and body.isdigit() and len(body) <= len(str(MAX_LEVEL))):
        return False
    p = int(body)
    return str(p) == body and p <= MAX_LEVEL and is_prime(p)


def _check_symbol(sym: str) -> str:
    if not _is_symbol(sym):
        raise ValueError(f"unknown basis symbol {sym!r}")
    return sym


def _sort_key(sym: str) -> tuple[int, int]:
    # canonical order ONE, KAPPA, then LOG(p) by p; sym is already checked
    if sym == _ONE_KEY:
        return (0, 0)
    if sym == _KAPPA_KEY:
        return (1, 0)
    return (2, int(sym[4:-1]))


def _canonical(terms: dict) -> "SymbolicReal":
    # build from checked symbols and Fraction coefficients, dropping zeros
    out = SymbolicReal.__new__(SymbolicReal)
    out._terms = {sym: q for sym, q in terms.items() if q != 0}
    return out


class SymbolicReal:
    """A canonical rational linear combination of ONE, KAPPA, LOG(p).

    Symbols are checked where they enter, never again in arithmetic."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        terms = {_check_symbol(sym): Fraction(c) for sym, c in (terms or {}).items()}
        self._terms = {sym: q for sym, q in terms.items() if q != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SymbolicReal":
        return SymbolicReal()

    @staticmethod
    def rational(q) -> "SymbolicReal":
        """The rational number q as a multiple of ONE."""
        return _canonical({_ONE_KEY: Fraction(q)})

    # -- canonical access --------------------------------------------------

    def coefficient(self, sym: str) -> Fraction:
        return self._terms.get(_check_symbol(sym), Fraction(0))

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        """True when the value is a rational multiple of ONE (or zero)."""
        return all(sym == _ONE_KEY for sym in self._terms)

    def rational_part(self) -> Fraction:
        return self._terms.get(_ONE_KEY, Fraction(0))

    # -- linear arithmetic -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymbolicReal):
            return NotImplemented
        terms = dict(self._terms)
        for sym, coeff in other._terms.items():
            terms[sym] = terms.get(sym, Fraction(0)) + coeff
        return _canonical(terms)

    def __sub__(self, other):
        if not isinstance(other, SymbolicReal):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _canonical({s: -c for s, c in self._terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            q = Fraction(scalar)
            return _canonical({s: q * c for s, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymbolicReal):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == SymbolicReal.rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- rendering and parsing --------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``288/19*KAPPA - 1/3*LOG(37)``."""
        if not self._terms:
            return "0"
        parts = []
        for i, (sym, coeff) in enumerate(self.items()):
            mag = abs(coeff)
            body = sym if mag == 1 else f"{mag}*{sym}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)

    __repr__ = to_text
    __str__ = to_text

    @staticmethod
    def from_text(text: str) -> "SymbolicReal":
        s = text.strip()
        if s == "0":
            return SymbolicReal.zero()
        s = s.replace(" - ", " + -").replace(" + ", "\x00")
        terms = {}
        for token in s.split("\x00"):
            token = token.strip()
            sign = Fraction(1)
            if token.startswith("-"):
                sign = Fraction(-1)
                token = token[1:]
            if "*" in token:
                coeff_str, sym = token.split("*", 1)
                coeff = Fraction(coeff_str)
            else:
                sym, coeff = token, Fraction(1)
            _check_symbol(sym)
            terms[sym] = terms.get(sym, Fraction(0)) + sign * coeff
        return _canonical(terms)

    def to_json_obj(self) -> dict:
        """JSON object form, e.g. ``{"KAPPA": "288/19", "LOG(37)": "-1/3"}``."""
        return {sym: str(coeff) for sym, coeff in self.items()}

    @staticmethod
    def from_json_obj(obj: dict) -> "SymbolicReal":
        return SymbolicReal({sym: Fraction(v) for sym, v in obj.items()})

    # -- numeric rendering --------------------------------------------------

    def evaluate(self, precision: int) -> float:
        """Float value certified to |error| <= 10^-precision.

        KAPPA is evaluated through the Glaisher-constant series of
        ``zetavalues``; LOG(p) through the library logarithm.  Raises
        PrecisionUnreachable when the accumulated certified bound cannot
        meet the request (float64 caps out near 11-12 digits for KAPPA).
        """
        if precision < 1:
            raise ValueError("precision must be a positive integer")
        total = 0.0
        bound = 0.0
        for sym, coeff in self.items():
            if sym == _ONE_KEY:
                val, err = 1.0, 0.0
            elif sym == _KAPPA_KEY:
                val, err = zetavalues.kappa_value()
            else:
                val, err = zetavalues.log_prime_value(int(sym[4:-1]))
            c = float(coeff)
            total += c * val
            # coefficient conversion, symbol bound, and accumulation roundoff
            bound += abs(c) * err + abs(c * val) * 4.0 * 2.0 ** -53
        zetavalues.certify(bound, precision)
        return total


ONE = SymbolicReal({_ONE_KEY: 1})
KAPPA = SymbolicReal({_KAPPA_KEY: 1})


def LOG(p: int) -> SymbolicReal:
    """The basis symbol log p for a prime p (Hecke primes included)."""
    sym = f"LOG({p})"
    if not _is_symbol(sym):
        raise ValueError(f"LOG expects a prime, got {p}")
    return _canonical({sym: Fraction(1)})


def linear_product(a: SymbolicReal, b: SymbolicReal) -> SymbolicReal:
    """Product of two symbolic values when it stays in the linear span.

    Defined when either factor is zero or a rational multiple of ONE; any
    other product would leave the space and raises ValueError.  This is the
    only multiplication bilinear pairings ever need.
    """
    if a.is_zero() or b.is_zero():
        return SymbolicReal.zero()
    if a.is_rational():
        return a.rational_part() * b
    if b.is_rational():
        return b.rational_part() * a
    raise ValueError(f"product of {a} and {b} is not in the linear span")
