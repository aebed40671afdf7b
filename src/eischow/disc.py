"""Numerical verification kernel for Dirichlet-form identities on the unit
disc under the model covering z -> z^n.

The identities checked here are the analytic engine behind functoriality of
the arithmetic intersection pairing; this module verifies each of them by
quadrature on a polar grid:

* the Dirichlet seminorm  ||f||_1^2 = i int_D df ^ conj(df),
* push-forward (root sum) and pull-back (composition) along z -> z^n and
  the adjointness  (phi^* f, g)_1 = (f, phi_* g)_1,
* the dbar equality  int |f_z|^2 = int |f_zbar|^2 for boundary-vanishing f,
* the weighted Poincare (Hardy-type) inequality, for rational delta
      i int |f|^2 / |z|^{2-delta}  <=  (4/delta)^2  i int |f_z|^2,
* integration by parts  2 pi int f dd^c conj(g) = -(f, g)_1,
  with dd^c = (i / 2 pi) d dbar.

Conventions: i dz ^ dzbar = 2 dx dy, so every i-integral below is computed
as twice a plain area integral.  Every function is a ``ClosedForm``: a
finite sum of terms c z^a zbar^b (log|z|^2)^k with rational a, b, c and
integer a - b and k >= 0.  Derivatives, products, conjugation, pull-back,
push-forward and boundary vanishing act on the terms by exact rules, so
quadrature is the only error source.  A term is c r^(a+b) (log r^2)^k
e^{i(a-b)theta} in polar coordinates, so the grid integrates it as one
radial Gauss sum times the angular rule's exact sum (A when A divides
a - b, else 0); nothing is sampled node by node.  Each radial Gauss rule
is built and validated once per process.  An R x A grid integrates exactly
(up to round-off) every integrand whose radial part is a polynomial of
degree <= 2R - 1 in r (Gauss-Legendre) and whose angular part is a
trigonometric polynomial of degree < A (equispaced angles); every integrand
of ``verification_report`` is one.  The error is measured, not estimated:
the report anchors every value to a closed form, either directly or
through an identity whose other side is one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BoundaryNonVanishing

__all__ = [
    "ClosedForm",
    "DiscGrid",
    "Check",
    "seminorm1",
    "dirichlet_pairing",
    "pullback_pow",
    "pushforward_pow",
    "check_dbar_equality",
    "check_hardy",
    "check_adjoint",
    "check_ibp",
    "verification_report",
    "DEFAULT_RADIAL",
    "DEFAULT_ANGULAR",
    "DEFAULT_TOL",
]

DEFAULT_RADIAL = 16
DEFAULT_ANGULAR = 32
DEFAULT_TOL = 1e-12  # round-off: every report entry is exact on grids from 9 x 18
# largest q in a Hardy exponent delta = p/q; the integrand's degree grows like 4q
HARDY_MAX_DENOMINATOR = 1024


def _collect(pairs) -> "ClosedForm":
    """The sum of the ((a, b, k), c) pairs in canonical form: like terms
    merged, zero terms dropped, sorted by key.  The pairs are not validated:
    every rule below maps valid terms to valid terms."""
    merged = {}
    for key, c in pairs:
        if c:
            merged[key] = merged.get(key, 0) + c
    form = object.__new__(ClosedForm)
    object.__setattr__(form, "terms", tuple(sorted((key, c) for key, c in merged.items() if c)))
    return form


@dataclass(frozen=True)
class ClosedForm:
    """f = sum of c z^a zbar^b (log|z|^2)^k over its terms (a, b, k) -> c.

    Built from a mapping of terms, for example 1 - |z|^2 is
    ``ClosedForm({(0, 0, 0): 1, (1, 1, 0): -1})``: a and b are rational
    (int or Fraction) with a - b an integer, k >= 0 is an int and c is
    rational.  ``terms`` holds the canonical sum as sorted ((a, b, k), c)
    pairs, so equal sums compare equal (an int and the equal Fraction are
    one key).  ``dz``, ``dzbar``, ``conj()``, products and rational multiples
    are forms again.
    """

    terms: tuple

    def __post_init__(self):
        pairs = []
        for (a, b, k), c in dict(self.terms).items():
            if not all(isinstance(x, numbers.Rational) for x in (a, b, c)):
                raise ValueError(f"term ({a!r}, {b!r}, {k!r}) -> {c!r}: a, b and c must be rational")
            if isinstance(k, bool) or not isinstance(k, int) or k < 0 or (a - b) % 1:
                raise ValueError(f"term ({a!r}, {b!r}, {k!r}): a - b must be an integer "
                                 "and k an int >= 0")
            pairs.append(((a, b, k), c))
        object.__setattr__(self, "terms", _collect(pairs).terms)

    @property
    def dz(self) -> "ClosedForm":
        """d/dz by rule: z^a L^k -> a z^(a-1) L^k + k z^(a-1) L^(k-1), with
        L = log|z|^2 and d L / dz = 1/z."""
        return _collect(pair for (a, b, k), c in self.terms
                        for pair in (((a - 1, b, k), a * c), ((a - 1, b, k - 1), k * c)))

    @property
    def dzbar(self) -> "ClosedForm":
        """d/dzbar, the mirror of ``dz``: zbar^b L^k -> b zbar^(b-1) L^k + k zbar^(b-1) L^(k-1)."""
        return _collect(pair for (a, b, k), c in self.terms
                        for pair in (((a, b - 1, k), b * c), ((a, b - 1, k - 1), k * c)))

    def conj(self) -> "ClosedForm":
        """The complex conjugate: a and b swap (coefficients are real)."""
        return _collect(((b, a, k), c) for (a, b, k), c in self.terms)

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return _collect(self.terms + other.terms)

    def __mul__(self, other) -> "ClosedForm":
        """The product with a form (exponents add) or with a rational number."""
        if isinstance(other, ClosedForm):
            return _collect(((a + a2, b + b2, k + k2), c * c2) for (a, b, k), c in self.terms
                            for (a2, b2, k2), c2 in other.terms)
        if isinstance(other, numbers.Rational):
            return _collect((key, c * other) for key, c in self.terms)
        return NotImplemented

    __rmul__ = __mul__


class DiscGrid:
    """Polar quadrature grid: Gauss-Legendre radii in (0,1), equispaced angles.

    The radial rule's stated polynomial exactness ``exact_degree`` is
    validated at construction, on probe degrees up to ``exact_degree``;
    ``gauss`` takes a rule validated once, when it was built.
    """

    def __init__(self, radial_nodes, radial_weights, angular_count, exact_degree):
        _require_count(angular_count, "angle")
        nodes = np.asarray(radial_nodes, dtype=float)
        weights = np.asarray(radial_weights, dtype=float)
        _validate_rule(nodes, weights, exact_degree)
        self._place(nodes, weights, angular_count)

    def _place(self, radial_nodes, radial_weights, angular_count):
        self.radial_nodes = radial_nodes
        self.radial_weights = radial_weights
        self.angular_count = angular_count

    @staticmethod
    def gauss(radial: int = DEFAULT_RADIAL, angular: int = DEFAULT_ANGULAR) -> "DiscGrid":
        _require_count(radial, "radius")
        _require_count(angular, "angle")
        grid = DiscGrid.__new__(DiscGrid)
        grid._place(*_gauss_rule(radial), angular)
        return grid

    def integrate(self, f: ClosedForm) -> float:
        """integral over D of f dA (polar measure r dr dtheta) by the grid's rule."""
        return self._radial_sum(f, self.radial_nodes, self.radial_nodes)

    def _radial_sum(self, f: ClosedForm, jacobian, radii) -> float:
        """The R x A rule on the rows radii_k e^{i theta_j}, term by term:
        sum_k w_k jacobian_k (2 pi / A) sum_j f(radii_k e^{i theta_j}).

        The angular sum of a term is exact, 2 pi when A divides a - b and 0
        otherwise, so each remaining term is one radial sum of c
        radii^(a+b) (log radii^2)^k.  A non-finite sum (f not integrable at
        these radii) raises ValueError."""
        weights = self.radial_weights * jacobian
        total = 0.0
        with np.errstate(all="ignore"):  # overflow and log(0) show up as a non-finite total
            for (a, b, k), c in f.terms:
                if (a - b) % self.angular_count == 0:
                    values = radii ** float(a + b)
                    if k:
                        values = values * (2.0 * np.log(radii)) ** k
                    total += float(c) * float(weights @ values)
        if not math.isfinite(total):
            raise ValueError("non-finite integral: the form is not integrable on the grid")
        return 2.0 * math.pi * total


def _validate_rule(nodes, weights, degree):
    if np.any(weights <= 0):
        raise ValueError("radial weights must be positive")
    if np.any((nodes <= 0) | (nodes >= 1)):
        raise ValueError("radial nodes must lie in (0, 1)")
    for k in (k for k in (0, 1, 2, 3, 7, degree // 2, degree) if k <= degree):
        exact = 1.0 / (k + 1)
        got = float(np.sum(weights * nodes ** k))
        if abs(got - exact) > 1e-11 * max(1.0, exact):
            raise ValueError(f"radial rule fails exactness at degree {k}")


@functools.cache
def _gauss_rule(radial: int):
    """Gauss-Legendre nodes and weights on (0, 1), read-only; built and
    validated once per radial count, on first use."""
    x, w = leggauss(radial)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    _validate_rule(nodes, weights, 2 * radial - 1)
    for a in (nodes, weights):
        a.flags.writeable = False
    return nodes, weights


def _require_count(count, what: str):
    # no bool or float: the report would name a grid it did not run
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"a grid needs at least one {what}, as an int; got {count!r}")


def _require_boundary_vanishing(f: ClosedForm):
    """On |z| = 1 only the log-free terms survive, each as c e^{i(a-b)theta};
    f vanishes there exactly when each Fourier mode a - b sums to 0."""
    modes = {}
    for (a, b, k), c in f.terms:
        if k == 0:
            modes[a - b] = modes.get(a - b, 0) + c
    bad = sorted(int(m) for m, c in modes.items() if c)
    if bad:
        raise BoundaryNonVanishing(f"f does not vanish on the boundary: its Fourier modes {bad} "
                                   "there are non-zero")


@dataclass(frozen=True)
class Check:
    """One checked quantity: its two sides and the residual between them.

    Equalities carry |lhs - rhs|; an inequality lhs <= rhs carries the
    one-sided excess max(0, lhs - rhs).  A check passes at tolerance tol
    when residual <= tol.
    """

    lhs: complex
    rhs: complex
    residual: float

    @staticmethod
    def equality(lhs, rhs) -> "Check":
        return Check(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))

    def entry(self, name: str, tol: float) -> dict:
        """The check as one JSON-ready line of the verification report."""
        lhs, rhs = complex(self.lhs), complex(self.rhs)
        return {
            "name": name,
            "lhs": {"re": lhs.real, "im": lhs.imag},
            "rhs": {"re": rhs.real, "im": rhs.imag},
            "residual": self.residual,
            "tolerance": tol,
            "passed": self.residual <= tol,
        }


def seminorm1(f: ClosedForm, grid: DiscGrid) -> float:
    """The Dirichlet seminorm ||f||_1^2 = i int df ^ conj(df) = 2 int |f_z|^2 dA.

    Exact up to round-off when |f_z|^2 is a polynomial within the grid's
    exactness (radial degree <= 2R - 1, angular degree < A).
    """
    return dirichlet_pairing(f, f, grid)


def dirichlet_pairing(f: ClosedForm, g: ClosedForm, grid: DiscGrid) -> float:
    """(f, g)_1 = i int df ^ conj(dg) = 2 int f_z conj(g_z) dA on the grid;
    real, as the coefficients are."""
    return 2.0 * grid.integrate(f.dz * g.dz.conj())


def pullback_pow(f: ClosedForm, n: int) -> ClosedForm:
    """phi^* f = f(z^n) for the covering phi(z) = z^n.

    By rule: (a, b, k) -> (na, nb, k) with c times n^k, as
    log|z^n|^2 = n log|z|^2.
    """
    _require_degree(n)
    return _collect(((n * a, n * b, k), c * n ** k) for (a, b, k), c in f.terms)


def pushforward_pow(g: ClosedForm, n: int) -> ClosedForm:
    """phi_* g (w) = sum over the n-th roots u of w of g(u).

    By rule: over the roots, e^{i(a-b) arg u} sums to n when n divides a - b
    and to 0 otherwise, and log|u|^2 = log|w|^2 / n; so a term is kept only
    when n | a - b, as (a/n, b/n, k) with c times n^(1-k).
    """
    _require_degree(n)
    return _collect(((Fraction(a, n), Fraction(b, n), k), c * Fraction(n) ** (1 - k))
                    for (a, b, k), c in g.terms if (a - b) % n == 0)


def _require_degree(n):
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"covering degree must be an int >= 1, got {n!r}")


def check_dbar_equality(f: ClosedForm, grid: DiscGrid) -> Check:
    """int |f_z|^2 versus int |f_zbar|^2 for f vanishing on the boundary."""
    _require_boundary_vanishing(f)
    fzbar = f.dzbar
    return Check.equality(seminorm1(f, grid), 2.0 * grid.integrate(fzbar * fzbar.conj()))


def check_hardy(f: ClosedForm, delta: float | Fraction, grid: DiscGrid) -> Check:
    """Weighted Poincare inequality with the explicit constant (4/delta)^2.

    lhs = i int |f|^2 / |z|^{2-delta} dz^dzbar, integrated on the grid after
    the substitution r = u^q for delta = p/q in lowest terms (which turns
    r^{delta-1} dr into q u^{p-1} du, keeping nodes off the singularity):
    the radial sum runs at the radii u^q; rhs = (4/delta)^2 i int |f_z|^2
    dz^dzbar; the residual is the excess max(0, lhs - rhs).  For f
    polynomial in z and zbar the substituted radial integrand is a
    polynomial in u, and an R-node rule is exact only up to degree 2R - 1:
    for 1 - |z|^2 the degree is 4q + p - 1, so the lhs is exact when
    4q + p - 1 <= 2R - 1 and carries a quadrature error beyond it
    (delta = 1/64 needs R >= 129).  delta is a Fraction or a float taken at
    its exact value: 0.25 is 1/4, but the float 0.1 has q = 2^55 and is
    refused, with any q > HARDY_MAX_DENOMINATOR, before grid work.
    """
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < 2:
        raise ValueError(f"delta must be a real number in (0, 2), got {delta!r}")
    p, q = Fraction(delta).as_integer_ratio()
    if q > HARDY_MAX_DENOMINATOR:
        raise ValueError(f"delta = {delta!r} = {p}/{q} has a denominator above "
                         f"HARDY_MAX_DENOMINATOR = {HARDY_MAX_DENOMINATOR}")
    _require_boundary_vanishing(f)
    u = grid.radial_nodes
    lhs = 2.0 * q * grid._radial_sum(f * f.conj(), u ** (p - 1), u ** q)
    rhs = 16 * q * q / (p * p) * seminorm1(f, grid)
    return Check(lhs=lhs, rhs=rhs, residual=max(0.0, lhs - rhs))


def check_adjoint(f: ClosedForm, g: ClosedForm, n: int, grid: DiscGrid) -> Check:
    """(phi^* f, g)_{1,D} versus (f, phi_* g)_{1,D} for phi(z) = z^n."""
    return Check.equality(dirichlet_pairing(pullback_pow(f, n), g, grid),
                          dirichlet_pairing(f, pushforward_pow(g, n), grid))


def check_ibp(f: ClosedForm, g: ClosedForm, grid: DiscGrid) -> Check:
    """2 pi int f dd^c conj(g) versus -(f, g)_1 for boundary-vanishing f.

    With dd^c = (i/2pi) d dbar the left side is i int f conj(g_zbar_z)
    dz^dzbar.
    """
    _require_boundary_vanishing(f)
    lhs = 2.0 * grid.integrate(f * g.dzbar.dz.conj())
    return Check.equality(lhs, -dirichlet_pairing(f, g, grid))


# -- canned closed forms and the certified report ---------------------------


def cf_one_minus_abs2() -> ClosedForm:
    """f(z) = 1 - |z|^2 (real, vanishes on the boundary)."""
    return ClosedForm({(0, 0, 0): 1, (1, 1, 0): -1})


def cf_coordinate() -> ClosedForm:
    """f(z) = z."""
    return ClosedForm({(1, 0, 0): 1})


def cf_abs2() -> ClosedForm:
    """f(z) = |z|^2."""
    return ClosedForm({(1, 1, 0): 1})


def cf_bump_times_z() -> ClosedForm:
    """f(z) = z (1 - |z|^2), complex valued, vanishes on the boundary."""
    return ClosedForm({(1, 0, 0): 1, (2, 1, 0): -1})


def cf_re() -> ClosedForm:
    """g(z) = Re z (harmonic)."""
    return ClosedForm({(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)})


def verification_report(radial: int = DEFAULT_RADIAL, angular: int = DEFAULT_ANGULAR) -> dict:
    """Run the certified identity suite on the given grid at DEFAULT_TOL.

    Returns a JSON-ready report with one entry per check (name, lhs, rhs,
    residual, tolerance, pass flag) plus the overall verdict.  Every
    quadrature value either faces its closed form or sits in an identity
    whose other side does, so each residual is a measured error; the two
    push-forward entries compare forms term by term, and their lhs is the
    largest coefficient of the difference.  Every integrand is a polynomial
    of radial degree <= 16, so every grid from 9 x 18 up passes at
    DEFAULT_TOL (read at each call).  This is the regression gate behind
    the verify-analysis command.
    """
    tol = DEFAULT_TOL
    grid = DiscGrid.gauss(radial, angular)
    bump, abs2 = cf_one_minus_abs2(), cf_abs2()
    checks = []

    def add(name, check):
        checks.append(check.entry(name, tol))

    s_bump = seminorm1(bump, grid)
    add("seminorm1(1-|z|^2) = pi", Check.equality(s_bump, math.pi))
    add("seminorm1(z) = 2 pi", Check.equality(seminorm1(cf_coordinate(), grid), 2 * math.pi))

    lifted = {n: pullback_pow(bump, n) for n in (2, 3)}
    for n, pulled in lifted.items():
        add(f"pullback degree identity n={n}",
            Check.equality(seminorm1(pulled, grid), n * s_bump))

    def push_error(g, target):
        diff = pushforward_pow(g, 2) + -1 * target
        return Check.equality(float(max((abs(c) for _, c in diff.terms), default=0)), 0.0)

    half = Fraction(1, 2)
    add("pushforward(|z|^2, 2) = 2|w| (term by term)",
        push_error(abs2, ClosedForm({(half, half, 0): 2})))
    minus_log = ClosedForm({(0, 0, 1): -1})  # -log|z|^2
    add("pushforward(-log|z|^2, 2) telescopes (term by term)", push_error(minus_log, minus_log))

    add("dbar equality, f=1-|z|^2", check_dbar_equality(bump, grid))
    dbar_z = check_dbar_equality(cf_bump_times_z(), grid)
    add("dbar equality, f=z(1-|z|^2)", dbar_z)
    add("dbar lhs for z(1-|z|^2) = 2 pi/3", Check.equality(dbar_z.lhs, 2 * math.pi / 3))

    # i int (1-|z|^2)^2 |z|^{delta-2} dz^dzbar = 4 pi int_0^1 (1-r^2)^2 r^{delta-1} dr
    hardy = {delta: check_hardy(bump, delta, grid) for delta in (0.25, 0.5, 1.0, 1.5)}
    for delta, h in hardy.items():
        exact = 4 * math.pi * (1 / delta - 2 / (delta + 2) + 1 / (delta + 4))
        add(f"hardy lhs at delta={delta} = 4 pi (1/delta - 2/(delta+2) + 1/(delta+4))",
            Check.equality(h.lhs, exact))
    add("hardy rhs at delta=1 = 16 pi", Check.equality(hardy[1.0].rhs, 16 * math.pi))
    for delta, h in hardy.items():
        add(f"hardy inequality holds at delta={delta}", h)

    adj = check_adjoint(abs2, abs2, 2, grid)
    add("adjoint lhs (|w|^2,|z|^2,n=2) = 4 pi/3", Check.equality(adj.lhs, 4 * math.pi / 3))
    add("adjoint residual (|w|^2,|z|^2,n=2)", adj)
    for n, pulled in lifted.items():
        add(f"(phi^*f, phi^*f)_1 = n (f,f)_1, n={n}",
            Check.equality(dirichlet_pairing(pulled, pulled, grid), n * s_bump))

    ibp = check_ibp(bump, abs2, grid)
    add("ibp f=1-|z|^2, g=|z|^2", ibp)
    add("ibp value = pi", Check.equality(ibp.lhs, math.pi))
    add("ibp harmonic g: both sides 0", check_ibp(bump, cf_re(), grid))

    return {
        "grid": {"radial": radial, "angular": angular},
        "tolerance": tol,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
