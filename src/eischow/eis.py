"""The Eisenstein block of the numerical arithmetic Chow group of X_0(N).

Basis, for squarefree N with prime divisors p_1 < ... < p_k:

    F       the class of (0, 1), a purely archimedean divisor,
    DINF    the compactified cusp divisor at infinity,
    G(p)    the bad-fiber difference class X_p^infty - X_p^0.

The Gram matrix of the intersection pairing on this basis is

    <F, F> = 0                      <F, DINF> = (1/2) ONE
    <F, G(p)> = 0                   <DINF, DINF> = (144/psi(N)) KAPPA
    <DINF, G(p)> = LOG(p)           <G(p), G(p)> = -4 (g - 2 g_{N/p} + 1) LOG(p)
    <G(p), G(q)> = 0  (p != q)

The <DINF, G(p)> entry deserves a remark.  It follows from the two facts
<D_inf, X_p^infty> = log p and <D_inf, X_p^0> = 0 used to compute the bad
fiber intersections, yet the block-decomposition notation elsewhere
declares the G(p) summands orthogonal to the rest, which would force 0.
Both conventions are implemented (``dinf_pairing="log"`` is the default,
``"zero"`` the alternative) and every derived quantity in this module is
provably insensitive to the choice; see ``dinf_gp_discrepancy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import BasisMismatch, DegenerateGenus
from .gamma0 import Gamma0Data, invariants, is_prime
from .symbolic import KAPPA, LOG, ONE, SymbolicReal, linear_product

__all__ = [
    "EisBasis",
    "EisVector",
    "GramMatrix",
    "gram",
    "pair",
    "w_vector",
    "w_square",
    "omega_eis_vector",
    "omega_eis_sq",
    "x_hat_infinity",
    "x_hat_zero",
    "degenerate_denominators",
    "dinf_gp_discrepancy",
    "omega_eis_report",
]


@dataclass(frozen=True)
class EisBasis:
    """Ordered basis [F, DINF, G(p_1), ..., G(p_k)] for squarefree N."""

    N: int
    primes: tuple[int, ...]

    @staticmethod
    def for_level(N: int) -> "EisBasis":
        return EisBasis(N=N, primes=invariants(N).primes)

    @property
    def labels(self) -> tuple[str, ...]:
        return ("F", "DINF") + tuple(f"G({p})" for p in self.primes)

    @property
    def dimension(self) -> int:
        return 2 + len(self.primes)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element {label!r} at level {self.N}") from None


def _coerce(c) -> SymbolicReal:
    if isinstance(c, SymbolicReal):
        return c
    return SymbolicReal.rational(Fraction(c))


class EisVector:
    """A vector on an EisBasis.

    Coordinates are stored as SymbolicReal so that the F coordinate may
    carry the log-combination constant that normalizes W-hat; all other
    coordinates stay rational multiples of ONE in practice.
    """

    __slots__ = ("basis", "coords")

    def __init__(self, basis: EisBasis, coords):
        coords = tuple(_coerce(c) for c in coords)
        if len(coords) != basis.dimension:
            raise BasisMismatch(
                f"expected {basis.dimension} coordinates, got {len(coords)}"
            )
        self.basis = basis
        self.coords = coords

    @staticmethod
    def zero(basis: EisBasis) -> "EisVector":
        return EisVector(basis, (0,) * basis.dimension)

    @staticmethod
    def unit(basis: EisBasis, label: str) -> "EisVector":
        coords = [0] * basis.dimension
        coords[basis.index(label)] = 1
        return EisVector(basis, coords)

    def coordinate(self, label: str) -> SymbolicReal:
        return self.coords[self.basis.index(label)]

    def __add__(self, other: "EisVector") -> "EisVector":
        if self.basis != other.basis:
            raise BasisMismatch("vectors on different bases")
        return EisVector(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "EisVector") -> "EisVector":
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return EisVector(self.basis, tuple(scalar * c for c in self.coords))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, EisVector):
            return NotImplemented
        return self.basis == other.basis and self.coords == other.coords

    def __repr__(self):
        body = ", ".join(f"{l}: {c}" for l, c in zip(self.basis.labels, self.coords) if c)
        return f"EisVector(N={self.basis.N}; {body or '0'})"


@dataclass(frozen=True)
class GramMatrix:
    basis: EisBasis
    entries: tuple[tuple[SymbolicReal, ...], ...]
    dinf_pairing: str

    def __post_init__(self):
        n = self.basis.dimension
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise BasisMismatch("Gram matrix shape does not match basis")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise AssertionError("Gram matrix is not symmetric")

    def entry(self, a: str, b: str) -> SymbolicReal:
        return self.entries[self.basis.index(a)][self.basis.index(b)]

    def to_json_obj(self) -> dict:
        return {
            "N": self.basis.N,
            "dinf_pairing": self.dinf_pairing,
            "basis": list(self.basis.labels),
            "entries": [[e.to_json_obj() for e in row] for row in self.entries],
        }


def _fiber_denominator(inv: Gamma0Data, p: int) -> int:
    # g_N - 2 g_{N/p} + 1
    return inv.genus - 2 * inv.quotient(p).genus + 1


def gram(N: int, dinf_pairing: str = "log") -> GramMatrix:
    """Intersection Gram matrix of the Eisenstein basis at level N.

    ``dinf_pairing`` selects the <DINF, G(p)> convention: ``"log"`` gives
    LOG(p), ``"zero"`` gives 0 (see the module docstring).  A vanishing
    fiber denominator does not stop the table from being built; only the
    operations that divide by it refuse (w_vector and friends).
    """
    return _gram(invariants(N), dinf_pairing)


def _gram(inv: Gamma0Data, dinf_pairing: str) -> GramMatrix:
    if dinf_pairing not in ("log", "zero"):
        raise ValueError("dinf_pairing must be 'log' or 'zero'")
    basis = EisBasis(N=inv.N, primes=inv.primes)
    zero = SymbolicReal.zero()
    n = basis.dimension
    rows = [[zero] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = Fraction(1, 2) * ONE
    rows[1][1] = Fraction(144, inv.psi) * KAPPA
    for i, p in enumerate(inv.primes, start=2):
        log_p = LOG(p)
        if dinf_pairing == "log":
            rows[1][i] = rows[i][1] = log_p
        rows[i][i] = Fraction(-4 * _fiber_denominator(inv, p)) * log_p
    return GramMatrix(basis=basis, entries=tuple(tuple(r) for r in rows), dinf_pairing=dinf_pairing)


def pair(x: EisVector, y: EisVector, gram_matrix: GramMatrix | None = None) -> SymbolicReal:
    """Exact intersection pairing x^T G y."""
    if x.basis != y.basis:
        raise BasisMismatch("cannot pair vectors on different bases")
    G = gram_matrix if gram_matrix is not None else gram(x.basis.N)
    if G.basis != x.basis:
        raise BasisMismatch("Gram matrix basis does not match the vectors")
    total = SymbolicReal.zero()
    for i, xi in enumerate(x.coords):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.coords):
            gij = G.entries[i][j]
            if yj.is_zero() or gij.is_zero():
                continue
            total = total + linear_product(linear_product(xi, yj), gij)
    return total


def degenerate_denominators(N: int) -> list[int]:
    """Primes p | N at which the denominator g - 2 g_{N/p} + 1 vanishes."""
    return _degenerate(invariants(N))


def _degenerate(inv: Gamma0Data) -> list[int]:
    return [p for p in inv.primes if _fiber_denominator(inv, p) == 0]


def _require_nondegenerate(inv: Gamma0Data):
    if inv.genus < 1:
        raise DegenerateGenus(f"genus of X_0({inv.N}) is {inv.genus} < 1")
    bad = _degenerate(inv)
    if bad:
        raise DegenerateGenus(f"vanishing denominator g - 2g_(N/p) + 1 at p in {bad}")


def _level_and_gram(N: int, gram_matrix: GramMatrix | None) -> tuple[Gamma0Data, GramMatrix]:
    """Invariants of a nondegenerate level N and the Gram matrix to pair with."""
    inv = invariants(N)
    _require_nondegenerate(inv)
    if gram_matrix is None:
        return inv, _gram(inv, "log")
    if gram_matrix.basis != EisBasis(N=N, primes=inv.primes):
        raise BasisMismatch(f"Gram matrix is at level {gram_matrix.basis.N}, not {N}")
    return inv, gram_matrix


def _fiber_log_sum(inv: Gamma0Data) -> SymbolicReal:
    # -(g-1)^2 sum_p log p / (g - 2 g_{N/p} + 1), shared by W^2 and omega_Eis^2
    g = inv.genus
    total = SymbolicReal.zero()
    for p in inv.primes:
        total = total + Fraction(-((g - 1) ** 2), _fiber_denominator(inv, p)) * LOG(p)
    return total


def w_vector(N: int, gram_matrix: GramMatrix | None = None) -> EisVector:
    """The vertical correction class W-hat in Eisenstein coordinates.

    Its G(p) coefficient is -(g-1)/2 * (g - 2 g_{N/p} + 1)^(-1); the F
    coefficient is the unique constant making <W-hat, DINF> = 0, which is a
    rational combination of LOG(p) carried exactly as a symbolic value.
    """
    return _w_vector(*_level_and_gram(N, gram_matrix))


def _w_vector(inv: Gamma0Data, G: GramMatrix) -> EisVector:
    basis = G.basis
    g = inv.genus
    coords: list = [0, 0] + [Fraction(-(g - 1), 2 * _fiber_denominator(inv, p)) for p in inv.primes]
    partial = EisVector(basis, coords)
    # solve <partial + c*F, DINF> = 0; <F, DINF> = 1/2 ONE
    coords[0] = -2 * pair(partial, EisVector.unit(basis, "DINF"), G)
    return EisVector(basis, coords)


def w_square(N: int, gram_matrix: GramMatrix | None = None) -> SymbolicReal:
    """Self-intersection of W-hat: -(g-1)^2 sum_p log p / (g - 2 g_{N/p} + 1).

    The closed form is returned after being checked, exactly, against the
    Gram-matrix pairing of w_vector with itself.
    """
    inv, G = _level_and_gram(N, gram_matrix)
    closed = _fiber_log_sum(inv)
    w = _w_vector(inv, G)
    if pair(w, w, G) != closed:
        raise AssertionError(f"W^2 closed formula disagrees with the pairing at N={N}")
    return closed


def omega_eis_vector(N: int, gram_matrix: GramMatrix | None = None) -> EisVector:
    """omega-hat_Eis = (2g-2) DINF + W-hat."""
    return _omega_eis_vector(*_level_and_gram(N, gram_matrix))


def _omega_eis_vector(inv: Gamma0Data, G: GramMatrix) -> EisVector:
    return (2 * inv.genus - 2) * EisVector.unit(G.basis, "DINF") + _w_vector(inv, G)


def _omega_pairing(inv: Gamma0Data, G: GramMatrix) -> SymbolicReal:
    v = _omega_eis_vector(inv, G)
    return pair(v, v, G)


def omega_eis_sq(N: int, gram_matrix: GramMatrix | None = None) -> SymbolicReal:
    """Self-intersection of the Eisenstein part of the dualizing class.

    Closed form:

        (g-1)^2 (576/psi(N)) KAPPA - (g-1)^2 sum_{p|N} log p / (g - 2 g_{N/p} + 1),

    checked exactly against pair(v, v) with v = (2g-2) DINF + W-hat.  The
    cross term <(2g-2) DINF, W-hat> vanishes by the normalization of W-hat,
    which is why the decomposition squares term by term.
    """
    return _omega_sq(*_level_and_gram(N, gram_matrix))


def _omega_sq(inv: Gamma0Data, G: GramMatrix) -> SymbolicReal:
    closed = Fraction(576 * (inv.genus - 1) ** 2, inv.psi) * KAPPA + _fiber_log_sum(inv)
    if _omega_pairing(inv, G) != closed:
        raise AssertionError(f"omega_Eis^2 closed formula disagrees with the pairing at N={inv.N}")
    return closed


def x_hat_infinity(N: int, p: int) -> EisVector:
    """X-hat_p^infty expressed through G(p) and F.

    div p = (X_p^infty + X_p^0, -log p^2) is principal, so the class of
    X-hat_p^infty + X-hat_p^0 equals 2 log(p) F, giving

        X-hat_p^infty = log(p) F + (1/2) G(p).
    """
    return _x_hat(N, p, 1)


def x_hat_zero(N: int, p: int) -> EisVector:
    """X-hat_p^0 = log(p) F - (1/2) G(p); see x_hat_infinity."""
    return _x_hat(N, p, -1)


def _x_hat(N: int, p: int, sign: int) -> EisVector:
    basis = EisBasis.for_level(N)
    coords: list = [0] * basis.dimension
    coords[0] = LOG(p)
    coords[basis.index(f"G({p})")] = Fraction(sign, 2)
    return EisVector(basis, coords)


def dinf_gp_discrepancy(N: int) -> dict:
    """Named diagnostic for the <DINF, G(p)> convention conflict.

    Returns, per prime p | N, the entry forced by the bad-fiber computation
    (LOG(p)) next to the entry the orthogonal-sum notation would force (0).
    The two ``affects_*`` flags compare results under the two Gram matrices
    at N: the pairing of omega-hat_Eis with itself (None where genus < 1 or
    a fiber denominator vanishes), and the self-adjointness of T-hat_l for
    the least prime l not dividing N.
    """
    from .hecke import is_self_adjoint, t_hat  # hecke imports this module

    inv = invariants(N)
    grams = (_gram(inv, "log"), _gram(inv, "zero"))
    try:
        _require_nondegenerate(inv)
    except DegenerateGenus:
        affects_omega = None
    else:
        log_sq, zero_sq = (_omega_pairing(inv, G) for G in grams)
        affects_omega = log_sq != zero_sq
    op = t_hat(next(l for l in count(2) if N % l and is_prime(l)), N)
    return {
        "N": N,
        "entries": {
            f"G({p})": {"from_fiber_intersections": f"LOG({p})", "from_orthogonality": "0"}
            for p in inv.primes
        },
        "affects_omega_eis_sq": affects_omega,
        "affects_self_adjointness": is_self_adjoint(op, grams[0]) != is_self_adjoint(op, grams[1]),
    }


def omega_eis_report(N: int, precision: int = 10) -> dict:
    """JSON-ready report with symbolic and numeric renderings of omega_Eis^2."""
    inv, G = _level_and_gram(N, None)
    value = _omega_sq(inv, G)
    return {
        "N": N,
        "genus": inv.genus,
        "symbolic": value.to_json_obj(),
        "numeric": value.evaluate(precision),
        "precision": precision,
    }
