"""Special values of weight-2 L-series, the Petersson norm, and the
isotypical self-intersection invariant omega_f^2.

For a normalized newform f of prime level N coprime to 6 whose completed
L-function has sign -1, the invariant is

    omega_f^2 = -( sqrt(h_i) + 2 sqrt(h_j) )^2,

    h_i = L(f, chi_-4, 1) L'(f, 1) / (2 pi^2 (f,f)),
    h_j = sqrt(3) L(f, chi_-3, 1) L'(f, 1) / (4 pi^2 (f,f)),

with (f,f) the Petersson norm in the unnormalized convention
integral_{Gamma_0(N)\\H} |f(z)|^2 dx dy (no division by the hyperbolic
volume).  The functional-equation sign is taken to be -al_sign; omega_f_sq
checks it on every form: the Lambda-symmetry residual at t = SIGN_GATE_T
and split SIGN_GATE_SPLIT must stay below SIGN_GATE_TOL, else WrongSign,
so the convention is verified at runtime rather than trusted.  Every
accuracy setting is a module constant, read when a function runs.

Numerical methods are standard: exponentially convergent series with
incomplete-gamma/exponential-integral kernels for the L-values (E_1 and
Gamma(s, x) are computed here, by power series below SPECIAL_SWITCH and
continued fractions above it), and for the Petersson integral (prime level)
the level-one domain and its N translates, folded back to q-expansions by the
Fricke involution, as the cases M = 1 and M = N of one Parseval fold over
Z/M: closed forms above Im z = 1, Gauss-Legendre quadrature of order
PETERSSON_ORDER on the arc region below it (see ``petersson``).  Tail bounds
use |a_n| <= d(n) sqrt(n) <= 2n.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    InsufficientCoefficients,
    InvariantViolation,
    LevelNotCoprimeTo6,
    LevelTooLarge,
    NegativeHeightBeyondTolerance,
    ParseError,
    QuadratureNotConverged,
    WrongSign,
)
from .gamma0 import MAX_LEVEL, chi, is_prime, primes_upto
from .qexp import QExpansion

__all__ = [
    "EigenformData",
    "ingest",
    "from_qexpansion",
    "chi",
    "l_value",
    "l_derivative",
    "completed_lambda",
    "lambda_symmetry_residual",
    "petersson",
    "OmegaFResult",
    "omega_f_sq",
]

# tail bound of every L-series sum
SERIES_TOL = 1e-12
# functional-equation gate of omega_f_sq: |Lambda(1+t) - eps Lambda(1-t)| at t
SIGN_GATE_T = 0.25
SIGN_GATE_TOL = 1e-8
SIGN_GATE_SPLIT = 1.3  # asymmetric Mellin cut y0 = SIGN_GATE_SPLIT / sqrt(N)
# q-expansion tail of the Petersson quadrature, relative to its leading term
CUTOFF_REL = 1e-16
# Gauss order of the Petersson arc region; the half-order pass must agree to PETERSSON_RTOL
PETERSSON_ORDER = 24
PETERSSON_RTOL = 1e-12
# complex values in one Petersson fold temporary (256 KB)
FOLD_BLOCK = 2 ** 14
HEIGHT_TOL = 1e-9  # heights in [-HEIGHT_TOL, 0) are rounding noise and clamp to 0


@dataclass(frozen=True)
class EigenformData:
    """A normalized weight-2 newform given by its Hecke eigenvalues.

    ``al_sign`` is the eigenvalue of the Fricke involution w_N on f; the
    sign of the completed functional equation is -al_sign.
    """

    label: str
    level: int
    weight: int
    al_sign: int
    an: tuple
    source: str

    @property
    def precision(self) -> int:
        return len(self.an)

    def a(self, n: int) -> int:
        return self.an[n - 1]

    def truncated(self, m: int) -> "EigenformData":
        """The same form carrying only a_1..a_m (for stability probes)."""
        if not 1 <= m <= len(self.an):
            raise ValueError(f"cannot truncate to {m} of {len(self.an)} coefficients")
        return EigenformData(
            label=self.label,
            level=self.level,
            weight=self.weight,
            al_sign=self.al_sign,
            an=self.an[:m],
            source=self.source,
        )


def _validate(level, weight, al_sign, an):
    if weight != 2:
        raise ParseError(f"only weight 2 is supported, got {weight}")
    if level > MAX_LEVEL:
        raise LevelTooLarge(f"level {level} exceeds MAX_LEVEL = {MAX_LEVEL}")
    if not is_prime(level):
        raise ParseError(f"level {level} is not prime")
    if math.gcd(level, 6) != 1:
        raise LevelNotCoprimeTo6(f"gcd({level}, 6) != 1")
    if al_sign not in (1, -1):
        raise ParseError(f"al_sign must be +1 or -1, got {al_sign}")
    if not an or an[0] != 1:
        raise InvariantViolation("a_1 must be 1 (normalized newform)", index=1)
    m = len(an)
    primes = primes_upto(m)
    # full multiplicativity check within precision
    for p in primes:
        ap = an[p - 1]
        for n in range(2, m // p + 1):
            if n % p and an[p * n - 1] != ap * an[n - 1]:
                raise InvariantViolation(
                    f"multiplicativity fails at n = {p * n}", index=p * n
                )
    # Hecke recursion at prime powers
    for p in primes:
        ap = an[p - 1]
        n = p
        while n * p <= m:
            expected = ap * an[n - 1]
            if p != level:
                expected -= p * an[n // p - 1]
            n *= p
            if an[n - 1] != expected:
                raise InvariantViolation(f"Hecke recursion fails at n = {n}", index=n)
    # Ramanujan bound |a_p| <= 2 sqrt(p), which every tail bound here assumes
    for p in primes:
        if an[p - 1] * an[p - 1] > 4 * p:
            raise InvariantViolation(f"|a_{p}| exceeds 2 sqrt({p})", index=p)


def ingest(path, label: str | None = None) -> EigenformData:
    """Read one eigenform from a JSON-lines file.

    Each line is an object {"label", "level", "weight", "al_sign", "an"}
    with integer entries and "an" listed a_1-first.  With ``label`` given,
    the matching line is selected; otherwise the first line wins.  Raises
    ParseError for schema problems and InvariantViolation (with the failing
    index) for coefficient data that is not a normalized Hecke eigenform
    or breaks the bound |a_p| <= 2 sqrt(p).  A file that is not UTF-8 is a
    ParseError naming the byte offset of the first bad byte.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    records = []
    # newline=None splits lines as a text-mode file does
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        records.append((lineno, obj))
    if not records:
        raise ParseError(f"{path}: no eigenform records found")
    chosen = None
    for lineno, obj in records:
        if label is None or obj.get("label") == label:
            chosen = (lineno, obj)
            break
    if chosen is None:
        raise ParseError(f"{path}: no record with label {label!r}")
    lineno, obj = chosen
    for key in ("label", "level", "weight", "al_sign", "an"):
        if key not in obj:
            raise ParseError(f"line {lineno}: missing field {key!r}")
    an = obj["an"]
    # JSON true/false load as bool, a subclass of int: compare types exactly
    if not isinstance(an, list) or not all(type(x) is int for x in an):
        raise ParseError(f"line {lineno}: 'an' must be a list of integers")
    for key in ("level", "weight", "al_sign"):
        if type(obj[key]) is not int:
            raise ParseError(f"line {lineno}: {key!r} must be an integer, got {obj[key]!r}")
    _validate(obj["level"], obj["weight"], obj["al_sign"], an)
    return EigenformData(
        label=str(obj["label"]),
        level=int(obj["level"]),
        weight=int(obj["weight"]),
        al_sign=int(obj["al_sign"]),
        an=tuple(an),
        source="ingested",
    )


def from_qexpansion(f: QExpansion, label: str, al_sign: int) -> EigenformData:
    """Wrap an exact q-expansion (e.g. an eta product) as eigenform data."""
    an = tuple(int(c) for c in f.coeffs)
    _validate(f.level, f.weight, al_sign, an)
    return EigenformData(
        label=label,
        level=f.level,
        weight=f.weight,
        al_sign=al_sign,
        an=an,
        source="eta-generated",
    )


def _fe_sign(f: EigenformData) -> int:
    # sign of Lambda(s) = sign * Lambda(2-s); standard w_N relation at weight 2
    return -f.al_sign


def _twist_data(f: EigenformData, twist):
    """(conductor, sign, character) of f or of its quadratic twist."""
    if twist is None:
        return f.level, _fe_sign(f), lambda n: 1
    if twist not in (-3, -4):
        raise ValueError(f"twist must be None, -3 or -4, got {twist}")
    cond = f.level * twist * twist
    sign = chi(twist, -f.level) * _fe_sign(f)
    return cond, sign, lambda n: chi(twist, n)


def _require(f: EigenformData, need: int, purpose: str) -> int:
    if need > f.precision:
        raise InsufficientCoefficients(
            f"need {need} coefficients for {purpose}, have {f.precision}", required=need
        )
    return need


def _series_terms(f: EigenformData, conductor: int) -> int:
    """Smallest M with central_series_tail(conductor, M) <= SERIES_TOL.

    Raises InsufficientCoefficients (carrying M) when f stores fewer than
    M coefficients.
    """
    c = 2.0 * math.pi / math.sqrt(conductor)
    # start below the bound solved for M in real arithmetic, then step up to it
    m = max(1, math.floor(math.log(4.0 / (SERIES_TOL * (1.0 - math.exp(-c)))) / c) - 2)
    while central_series_tail(conductor, m) > SERIES_TOL:
        m += 1
    return _require(f, m, f"tolerance {SERIES_TOL:g}")


def central_series_tail(conductor: int, m: int) -> float:
    """Certified bound for the central-value series tail past m terms.

    From |a_n| <= d(n) sqrt(n) <= 2n: the terms 2 a_n/n e^{-cn} with
    c = 2 pi / sqrt(conductor) are bounded by 4 e^{-cn}, so the tail is at
    most 4 e^{-c(m+1)} / (1 - e^{-c}).  Strictly decreasing in m.  It also
    bounds the tail of the derivative series sum 2 a_n/n E_1(cn) wherever
    c(m+1) >= 1, since E_1(x) < e^{-x} ln(1 + 1/x) < e^{-x} there.
    """
    c = 2.0 * math.pi / math.sqrt(conductor)
    return 4.0 * math.exp(-c * (m + 1)) / (1.0 - math.exp(-c))


# -- special functions ----------------------------------------------------------
#
# E_1(x) = Gamma(0, x) and Gamma(s, x) for x > 0 and s in [1/2, 3/2] (the
# range completed_lambda needs): a power series up to SPECIAL_SWITCH and the
# Legendre continued fraction above it.  Both are summed with a fixed number
# of terms that reaches double precision at the switch, their worst point
# (series error grows with x, the fraction converges faster as x grows).

SPECIAL_SWITCH = 1.0
_SERIES_TERMS = 20
_FRACTION_TERMS = 100
_EULER_GAMMA = 0.5772156649015329
# E_1(x) = -gamma - ln x - x sum_k _E1_SERIES[k] x^k
_E1_SERIES = tuple((-1) ** k / (k * math.factorial(k)) for k in range(1, _SERIES_TERMS + 1))


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    total = np.zeros_like(x)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _legendre_fraction(s, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1(1-s)/(x + 3 - s - 2(2-s)/(x + 5 - s - ...))),

    the even contraction of DLMF 8.9.2 (6.9.1 at s = 0), evaluated from the
    bottom up.  ``s`` is a scalar or an array of x's shape.
    """
    k = np.arange(_FRACTION_TERMS, 0, -1, dtype=float)[:, None]
    # every level's numerator k(k - s) and denominator x + 2k + 1 - s up front, so
    # that a level costs two ufunc calls; each table is one allocation, since
    # large temporaries cost more than the arithmetic at these sizes
    numer = k - s
    numer *= k
    base = x + (1.0 - s)
    denom = base + 2.0 * k
    t = np.zeros_like(x)
    for a, b in zip(numer, denom):
        t = a / (b - t)
    return np.exp(-x) * x ** s / (base - t)


def _exp1(x) -> np.ndarray:
    """The exponential integral E_1(x) = integral_x^inf e^{-t}/t dt, elementwise, x > 0.

    Below the switch, E_1(x) = -gamma - ln x - sum_{k>=1} (-x)^k / (k k!)
    (DLMF 6.6.2); above it, the continued fraction of Gamma(0, x).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= SPECIAL_SWITCH
    xs = x[small]
    out[small] = (-_EULER_GAMMA - xs * _horner(_E1_SERIES, xs)) - np.log(xs)
    out[~small] = _legendre_fraction(0.0, x[~small])
    return out


def _upper_gamma(s, x) -> np.ndarray:
    """The upper incomplete gamma function Gamma(s, x), elementwise, x > 0, 1/2 <= s <= 3/2.

    ``s`` and ``x`` broadcast together, so one call serves several orders.
    Below the switch, Gamma(s, x) = Gamma(s) - x^s e^{-x} sum_{k>=0} x^k / (s (s+1) ... (s+k))
    (DLMF 8.7.1); above it, the Legendre continued fraction.
    """
    s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
    out = np.empty(x.shape)
    small = x <= SPECIAL_SWITCH
    xs, ss = x[small], s[small]
    coeffs = [1.0 / ss]
    for k in range(1, _SERIES_TERMS + 1):
        coeffs.append(coeffs[-1] / (ss + k))
    gamma_s = np.array([math.gamma(v) for v in ss])
    out[small] = gamma_s - np.exp(-xs) * xs ** ss * _horner(coeffs, xs)
    out[~small] = _legendre_fraction(s[~small], x[~small])
    return out


# -- L-values -------------------------------------------------------------------


def l_value(f: EigenformData, twist=None) -> float:
    """L(f, 1) or the twisted L(f, chi_disc, 1) with certified series tail.

    Uses the exponentially convergent central-value series: with c = 2 pi /
    sqrt(conductor) and eps the (twisted) functional-equation sign,

        L = (1 + eps) sum_n (a_n chi(n) / n) e^{-c n}.

    For eps = -1 the value is exactly 0.  Raises InsufficientCoefficients
    (carrying the required count) when the stored a_n cannot push the tail
    bound below SERIES_TOL.
    """
    cond, sign, character = _twist_data(f, twist)
    if sign == -1:
        return 0.0
    c = 2.0 * math.pi / math.sqrt(cond)
    need = _series_terms(f, cond)
    total = math.fsum(
        2.0 * f.an[n - 1] * character(n) / n * math.exp(-c * n)
        for n in range(1, need + 1)
    )
    return total


def l_derivative(f: EigenformData) -> float:
    """L'(f, 1) for forms with functional-equation sign -1.

    L'(f, 1) = 2 sum_n (a_n / n) E_1(2 pi n / sqrt(N)), E_1 the exponential
    integral.  Raises WrongSign when the sign is +1 (the series computes
    the derivative only at odd sign, where L(f,1) = 0).
    """
    if _fe_sign(f) != -1:
        raise WrongSign("L'(f,1) series requires functional-equation sign -1")
    c = 2.0 * math.pi / math.sqrt(f.level)
    need = _series_terms(f, f.level)
    n = np.arange(1, need + 1)
    an = np.array(f.an[:need], dtype=float)
    return float(2.0 * np.sum(an / n * _exp1(c * n)))


def completed_lambda(f: EigenformData, s: float) -> float:
    """The completed function Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(f, s).

    Computed by cutting the Mellin integral at height y0 = split / sqrt(N)
    and reflecting the lower part through the Fricke involution:

        Lambda(s) = sum_n a_n [ N^{s/2} (2 pi n)^{-s} Gamma(s, 2 pi n y0)
                   + eps N^{(2-s)/2} (2 pi n)^{s-2} Gamma(2-s, 2 pi n/(N y0)) ].

    Here split = 1, where the two kernels coincide and the formula is
    symmetric by construction; the asymmetric split SIGN_GATE_SPLIT makes
    the identity Lambda(s) = eps Lambda(2-s) a genuine test of the
    coefficient data and of the sign convention, which is how
    ``lambda_symmetry_residual`` uses it.

    Requires 1/2 <= s <= 3/2 and raises InsufficientCoefficients (carrying
    the required count) when f stores fewer coefficients than the sum needs
    for both exponential factors e^{-cn} to fall below e^{-45}.
    """
    return float(_completed_lambdas(f, [s], 1.0)[0])


def _completed_lambdas(f: EigenformData, s_values, split: float) -> np.ndarray:
    """completed_lambda at each s in s_values, with one special-function pass for all."""
    s = np.asarray(s_values, dtype=float)[:, None]
    if not np.all((0.5 <= s) & (s <= 1.5)):
        raise ValueError(f"completed_lambda needs 1/2 <= s <= 3/2, got {list(s_values)}")
    N = f.level
    eps = _fe_sign(f)
    y0 = split / math.sqrt(N)
    two_pi = 2.0 * math.pi
    c1, c2 = two_pi * y0, two_pi / (N * y0)
    need = _require(f, int(45.0 / min(c1, c2)) + 2, f"Lambda(s) at split {split:g}")
    n = np.arange(1, need + 1, dtype=float)
    an = np.array(f.an[:need], dtype=float)
    # kernel, order, term: Gamma(s, c1 n) and Gamma(2 - s, c2 n) for every s
    g1, g2 = _upper_gamma([s, 2.0 - s], np.stack([c1 * n, c2 * n])[:, None, :])
    t1 = N ** (s / 2.0) * (two_pi * n) ** (-s) * g1
    t2 = eps * N ** ((2.0 - s) / 2.0) * (two_pi * n) ** (s - 2.0) * g2
    return np.sum(an * (t1 + t2), axis=1)


def lambda_symmetry_residual(f: EigenformData, t: float) -> float:
    """|Lambda(1+t) - eps Lambda(1-t)| at the asymmetric split SIGN_GATE_SPLIT.

    Vanishes (to quadrature accuracy) exactly when the stored coefficients
    satisfy the weight-2 functional equation with sign -al_sign; a wrong
    sign or corrupted coefficients produce an O(Lambda) residual.  Needs
    |t| <= 1/2, the range of completed_lambda.
    """
    eps = _fe_sign(f)
    plus, minus = _completed_lambdas(f, (1.0 + t, 1.0 - t), SIGN_GATE_SPLIT)
    return float(abs(plus - eps * minus))


# -- Petersson norm ---------------------------------------------------------


def _mapped(rule, lo, hi):
    """A reference Gauss-Legendre rule moved affinely onto [lo, hi].

    ``lo`` may be an array of shape (m, 1), which maps the rule onto m
    intervals at once with the same arithmetic as the scalar case.
    """
    x, w = rule
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _coefficient_cutoff(y_min: float) -> int:
    # smallest M with sum_{n>M} 2n e^{-2 pi n y_min} below CUTOFF_REL * leading term
    c = 2.0 * math.pi * y_min
    m = 1
    lead = math.exp(-c)
    while 2.0 * (m + 1) * math.exp(-c * (m + 1)) / (1.0 - lead) > CUTOFF_REL * lead:
        m += 1
    return m


def _strip(an: np.ndarray, y0: float) -> float:
    """integral_{y0}^inf integral_0^1 |f(x+iy)|^2 dx dy = (1/4 pi) sum_n a_n^2/n e^{-4 pi n y0},

    by Parseval in x over one period.
    """
    n = np.arange(1, an.size + 1)
    return float(np.sum(an * an / n * np.exp((-4.0 * np.pi * y0) * n))) / (4.0 * math.pi)


def _fold_sq(an: np.ndarray, M: int, z: np.ndarray) -> np.ndarray:
    """Phi_M(z) = sum_{j mod M} |f((z+j)/M)|^2 / M^2 at every node z (f cut at an).

    With w = e^{2 pi i z/M}, W = w^M and B[k, r] = a_{r+kM} (a_0 = 0), Parseval
    over Z/M gives Phi_M = (1/M) sum_r |w|^{2r} |sum_k B[k, r] W^k|^2: one Horner
    pass in W over the M residue classes.  M = 1 gives |f(z)|^2.
    """
    blocks = np.zeros((an.size // M + 1) * M)
    blocks[1:an.size + 1] = an
    blocks = blocks.reshape(-1, M)
    z = z.ravel()
    big_w = np.exp(2j * np.pi * z)[:, None]
    # Horner in W, in place: a fresh (nodes x M) temporary per step costs more than the step
    folded = np.empty((z.size, M), dtype=complex)
    folded[:] = blocks[-1]
    for row in blocks[-2::-1]:
        folded *= big_w
        folded += row
    decay = np.exp((-4.0 * np.pi / M) * z.imag[:, None] * np.arange(M))
    return np.sum(decay * np.abs(folded) ** 2, axis=1) / M


def _petersson_once(f: EigenformData, order: int) -> float:
    N = f.level
    # Phi_M at Im z >= sqrt(3)/2 reads f at Im >= sqrt(3)/(2M): a few terms at M = 1
    cutoffs = [_coefficient_cutoff(math.sqrt(3.0) / (2.0 * M)) for M in (1, N)]
    an = np.array(f.an[:_require(f, cutoffs[-1], "the Petersson quadrature")], dtype=float)
    # F_low = {|x| <= 1/2, sqrt(1 - x^2) <= y <= 1}: one rule in x, the same in y
    rule = leggauss(order)
    xs, wx = _mapped(rule, -0.5, 0.5)
    ys, wy = _mapped(rule, np.sqrt(1.0 - xs * xs)[:, None], 1.0)
    z = xs[:, None] + 1j * ys
    total = 0.0
    for M, cutoff in zip((1, N), cutoffs):
        # above y = 1 the M translates (x+j)/M tile whole periods above 1/M
        total += _strip(an[:cutoff], 1.0 / M)
        # below it, whole rows of x-nodes per fold, at most FOLD_BLOCK values per temporary
        rows = max(1, FOLD_BLOCK // (order * M))
        phi = np.concatenate(
            [_fold_sq(an[:cutoff], M, z[i:i + rows]) for i in range(0, order, rows)]
        ).reshape(order, order)
        total += float(np.sum(wx * np.sum(wy * phi, axis=1)))
    return total


def petersson(f: EigenformData) -> float:
    """Petersson norm (f,f) = integral over a fundamental domain of |f|^2 dx dy.

    Unnormalized (Gross-Zagier) convention; weight 2 makes the hyperbolic
    weight y^2 cancel the measure.  The domain is the union of the level-one
    domain F and its ST^j translates (prime level), which fold back through
    the Fricke involution to F: (f,f) is the integral over F of Phi_1 + Phi_N,
    with Phi_M(z) = sum_{j mod M} |f((z+j)/M)|^2 / M^2 and Phi_1 = |f|^2.
    One fold computes both terms, each split at y = 1:

    * above y = 1, F is a whole period in x, and the strips (x+j)/M tile
      [-1/(2M), 1 - 1/(2M)] above y' = 1/M, so Parseval in x gives each
      term exactly, (1/4 pi) sum_n a_n^2/n e^{-4 pi n/M};
    * below it, F_low = {|x| <= 1/2, sqrt(1 - x^2) <= y <= 1} takes
      Gauss-Legendre quadrature, one rule of order PETERSSON_ORDER in x and
      the same in y, and Phi_M is a Horner pass in W = e^{2 pi i z} over
      the M residue classes of the coefficients (``_fold_sq``), a few rows
      of x-nodes at a time so that no temporary exceeds FOLD_BLOCK values.

    Each M cuts the q-expansion where its tail drops below 1e-16 at
    Im z = sqrt(3)/(2M): 8 terms at M = 1, about 8.5 N at M = N.  A call runs
    two passes, at orders 12 and 24, each O(order^2 N).  Raises
    InsufficientCoefficients (carrying the cutoff at M = N) when f stores
    fewer coefficients, and QuadratureNotConverged when the half-order pass
    moves the result by more than PETERSSON_RTOL relative.
    """
    if all(a == 0 for a in f.an):
        return 0.0
    if not is_prime(f.level):
        raise ValueError("the coset construction is implemented for prime level only")
    order = PETERSSON_ORDER
    coarse = _petersson_once(f, order // 2)
    fine = _petersson_once(f, order)
    if abs(fine - coarse) > PETERSSON_RTOL * max(abs(fine), 1e-300):
        raise QuadratureNotConverged(
            f"Petersson quadrature moved by {abs(fine - coarse):.3e} at order {order}"
        )
    return fine


@dataclass(frozen=True)
class OmegaFResult:
    """Heights of the isotypical Heegner blocks and the resulting invariant."""

    h_i: float
    h_j: float
    omega_f_sq: float
    l_chi4: float
    l_chi3: float
    l_prime: float
    petersson: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def _combine_heights(h_i: float, h_j: float) -> tuple[float, float, float]:
    """The clamped heights and -(sqrt(h_i) + 2 sqrt(h_j))^2.

    Heights are nonnegative; values in [-HEIGHT_TOL, 0) are rounding noise
    and clamp to 0 before the square roots, anything below -HEIGHT_TOL
    raises.  Vanishing heights give 0.
    """
    for name, h in (("h_i", h_i), ("h_j", h_j)):
        if h < -HEIGHT_TOL:
            raise NegativeHeightBeyondTolerance(f"{name} = {h:.3e} < -{HEIGHT_TOL:g}")
    h_i, h_j = max(h_i, 0.0), max(h_j, 0.0)
    # 0.0 - x, not -x: vanishing heights give 0.0, never -0.0
    return h_i, h_j, 0.0 - (math.sqrt(h_i) + 2.0 * math.sqrt(h_j)) ** 2


def omega_f_sq(f: EigenformData) -> OmegaFResult:
    """The isotypical invariant omega_f^2 = -(sqrt(h_i) + 2 sqrt(h_j))^2.

    Heights h_i, h_j from the module-level formulas; tiny negative values
    (|h| <= HEIGHT_TOL: rounding noise, as when a twisted L-value of sign
    +1 vanishes) are clamped to zero before the square roots, larger
    negatives raise NegativeHeightBeyondTolerance.  Requires prime level coprime to 6 and
    functional-equation sign -1 (WrongSign otherwise).  The sign is also
    checked against the coefficients: WrongSign when the Lambda-symmetry
    residual at SIGN_GATE_T exceeds SIGN_GATE_TOL, after the L-series
    have checked that the coefficients suffice.
    """
    if _fe_sign(f) != -1:
        raise WrongSign("omega_f^2 requires functional-equation sign -1")
    lp = l_derivative(f)
    l4 = l_value(f, twist=-4)
    l3 = l_value(f, twist=-3)
    residual = lambda_symmetry_residual(f, SIGN_GATE_T)
    if residual > SIGN_GATE_TOL:
        raise WrongSign(
            f"functional equation with sign -al_sign fails: residual {residual:.3e}"
            f" > {SIGN_GATE_TOL:g} at t = {SIGN_GATE_T}"
        )
    pet = petersson(f)
    pi2 = math.pi ** 2
    h_i = l4 * lp / (2.0 * pi2 * pet)
    h_j = math.sqrt(3.0) * l3 * lp / (4.0 * pi2 * pet)
    h_i, h_j, value = _combine_heights(h_i, h_j)
    return OmegaFResult(
        h_i=h_i, h_j=h_j, omega_f_sq=value,
        l_chi4=l4, l_chi3=l3, l_prime=lp, petersson=pet,
    )
