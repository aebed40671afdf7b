"""Hecke operators and Atkin-Lehner involutions on the Eisenstein space.

T-hat_l (l prime, l not dividing N) acts by

    F       |->  (l+1) F
    G(p)    |->  (l+1) G(p)
    DINF    |->  (l+1) DINF + c_{N,l} F,   c_{N,l} = (12(l-1)/psi(N)) log l.

w-hat_d (d | N, gcd(d, N/d) = 1, d > 1) is implemented as a partial
operator: it fixes F, acts on G(p) by -1 exactly when p | d, and leaves the
DINF column undefined (the involution moves the cusp divisor out of the
chosen basis).  The sign rule on G(p) extends the proven Fricke case d = N;
it is the unique rule multiplicative in d that matches it, and the property
tests pin the involution and commutation laws it must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadHeckePrime, BadInvolutionParam, BasisMismatch, OutsideDomain
from .eis import EisBasis, EisVector, GramMatrix
from .gamma0 import MAX_LEVEL, Gamma0Data, invariants, is_prime
from .symbolic import LOG, SymbolicReal, linear_product

__all__ = [
    "EisOperator",
    "identity_operator",
    "t_hat",
    "w_hat",
    "is_self_adjoint",
    "commutator_is_zero",
]


@dataclass(frozen=True)
class EisOperator:
    """Endomorphism of the Eisenstein space; columns are images of basis elements.

    A column equal to None marks a basis element outside the operator's
    domain (partial operator).
    """

    basis: EisBasis
    columns: tuple

    def __post_init__(self):
        if len(self.columns) != self.basis.dimension:
            raise BasisMismatch("column count does not match basis dimension")

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(
            lab for lab, col in zip(self.basis.labels, self.columns) if col is not None
        )

    def column(self, label: str) -> EisVector:
        col = self.columns[self.basis.index(label)]
        if col is None:
            raise OutsideDomain(f"{label} is outside the operator's domain")
        return EisVector(self.basis, col)

    def entry(self, row: str, col: str) -> SymbolicReal:
        return self.column(col).coords[self.basis.index(row)]

    def apply(self, v: EisVector) -> EisVector:
        if v.basis != self.basis:
            raise BasisMismatch("vector basis does not match operator basis")
        out = EisVector.zero(self.basis)
        for j, cj in enumerate(v.coords):
            if cj.is_zero():
                continue
            col = self.columns[j]
            if col is None:
                raise OutsideDomain(
                    f"vector has a {self.basis.labels[j]} component outside the domain"
                )
            out = out + EisVector(
                self.basis, tuple(linear_product(cj, e) for e in col)
            )
        return out

    def compose(self, other: "EisOperator") -> "EisOperator":
        """self after other, defined where the chain is defined."""
        if self.basis != other.basis:
            raise BasisMismatch("operators on different bases")
        cols = []
        for j in range(self.basis.dimension):
            col = other.columns[j]
            if col is None:
                cols.append(None)
                continue
            try:
                cols.append(self.apply(EisVector(self.basis, col)).coords)
            except OutsideDomain:
                cols.append(None)
        return EisOperator(basis=self.basis, columns=tuple(cols))

    def to_json_obj(self) -> dict:
        return {
            "basis": list(self.basis.labels),
            "columns": {
                lab: (None if col is None else [e.to_text() for e in col])
                for lab, col in zip(self.basis.labels, self.columns)
            },
        }


def _columns_from_map(basis: EisBasis, images: dict) -> tuple:
    return tuple(None if images.get(lab) is None else images[lab].coords for lab in basis.labels)


def identity_operator(basis: EisBasis) -> EisOperator:
    return EisOperator(
        basis=basis,
        columns=_columns_from_map(
            basis, {lab: EisVector.unit(basis, lab) for lab in basis.labels}
        ),
    )


def t_hat(l: int, N: int) -> EisOperator:
    """The Hecke operator T-hat_l on the Eisenstein space of level N."""
    inv = invariants(N)
    shift = _shift(l, inv)
    basis = EisBasis(N=N, primes=inv.primes)
    images = {lab: (l + 1) * EisVector.unit(basis, lab) for lab in basis.labels}
    images["DINF"] = EisVector(basis, (shift, l + 1) + (0,) * len(inv.primes))
    return EisOperator(basis=basis, columns=_columns_from_map(basis, images))


def hecke_shift(l: int, N: int) -> SymbolicReal:
    """The constant c_{N,l} = (12(l-1)/psi(N)) log l appearing in T-hat_l DINF."""
    return _shift(l, invariants(N))


def _shift(l: int, inv: Gamma0Data) -> SymbolicReal:
    # LOG(l) takes no prime above the cap, and is_prime has a range limit
    if l > MAX_LEVEL:
        raise BadHeckePrime(f"l = {l} exceeds gamma0.MAX_LEVEL = {MAX_LEVEL}")
    if not is_prime(l) or inv.N % l == 0:
        raise BadHeckePrime(f"l = {l} must be a prime not dividing N = {inv.N}")
    return Fraction(12 * (l - 1), inv.psi) * LOG(l)


def w_hat(d: int, N: int) -> EisOperator:
    """The Atkin-Lehner involution w-hat_d, partial on F + span{G(p)}."""
    inv = invariants(N)
    if d <= 1 or N % d != 0 or math.gcd(d, N // d) != 1:
        raise BadInvolutionParam(
            f"d = {d} must satisfy d | N, gcd(d, N/d) = 1, d > 1 at N = {N}"
        )
    basis = EisBasis(N=N, primes=inv.primes)
    images = {"F": EisVector.unit(basis, "F"), "DINF": None}
    for p in inv.primes:
        sign = -1 if d % p == 0 else 1
        images[f"G({p})"] = sign * EisVector.unit(basis, f"G({p})")
    return EisOperator(basis=basis, columns=_columns_from_map(basis, images))


def is_self_adjoint(op: EisOperator, G: GramMatrix) -> bool:
    """Exact matrix test of <Ax, y> = <x, Ay>: A^T G = G A.

    For a partial operator the identity is tested on domain x domain.
    """
    if op.basis != G.basis:
        raise BasisMismatch("operator and Gram matrix on different bases")
    n = op.basis.dimension
    defined = [j for j in range(n) if op.columns[j] is not None]
    for i in defined:
        for j in defined:
            # (A^T G)_{ij} = sum_k A_{ki} G_{kj};  (G A)_{ij} = sum_k G_{ik} A_{kj}
            lhs = SymbolicReal.zero()
            rhs = SymbolicReal.zero()
            for k in range(n):
                a_ki = op.columns[i][k]
                if not a_ki.is_zero() and not G.entries[k][j].is_zero():
                    lhs = lhs + linear_product(a_ki, G.entries[k][j])
                a_kj = op.columns[j][k]
                if not a_kj.is_zero() and not G.entries[i][k].is_zero():
                    rhs = rhs + linear_product(G.entries[i][k], a_kj)
            if lhs != rhs:
                return False
    return True


def commutator_is_zero(a: EisOperator, b: EisOperator) -> bool:
    """Exact AB - BA = 0, restricted to the common domain of both chains."""
    if a.basis != b.basis:
        raise BasisMismatch("operators on different bases")
    ab = a.compose(b)
    ba = b.compose(a)
    checked = False
    for col_ab, col_ba in zip(ab.columns, ba.columns):
        if col_ab is None or col_ba is None:
            continue
        checked = True
        if col_ab != col_ba:
            return False
    if not checked:
        raise OutsideDomain("the compositions share no common domain")
    return True
