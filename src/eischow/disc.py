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
as twice a plain area integral.  Every function is a ``ClosedForm`` that
each check samples once on the Gauss grid it is given, so quadrature is the
only error source.  The grid evaluates every integrand one block of whole
node rows at a time (at most 2^14 nodes, 256 KiB of complex values, or a
single longer row), so no temporary spans the grid; this is why every
``ClosedForm`` callable must be elementwise.  Each radial Gauss rule is built and
validated once per process.  An R x A grid integrates exactly (up to
round-off) every integrand whose radial part is a polynomial of degree
<= 2R - 1 in r (Gauss-Legendre) and whose angular part is a trigonometric
polynomial of degree < A (equispaced angles); every integrand of
``verification_report`` is one.  The error is measured, not estimated:
the report anchors every value to a closed form, either directly or
through an identity whose other side is one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
# max |f| on the unit circle above which a boundary-vanishing check refuses f,
# and the number of equispaced circle points that estimate the maximum
BOUNDARY_TOL = 1e-9
BOUNDARY_SAMPLES = 1024
# nodes per block of whole grid rows (at least one row): 256 KiB of complex128
_BLOCK_NODES = 2 ** 14


@dataclass(frozen=True)
class ClosedForm:
    """Callable description of a smooth function on the closed disc.

    ``value``, ``dz`` and ``dzbar`` take a complex ndarray and return one;
    ``dzdzbar`` (the mixed second derivative, needed only by the
    integration-by-parts check) is optional.  Every callable must be
    elementwise: its value at a node depends on that node alone, since the
    grid hands it one block of node rows at a time.
    """

    value: Callable
    dz: Callable
    dzbar: Callable
    dzdzbar: Callable | None = None


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
        self.angles = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        self._circle = np.exp(1j * self.angles)[None, :]
        self.nodes = self.radial_nodes[:, None] * self._circle

    @staticmethod
    def gauss(radial: int = DEFAULT_RADIAL, angular: int = DEFAULT_ANGULAR) -> "DiscGrid":
        _require_count(radial, "radius")
        _require_count(angular, "angle")
        grid = DiscGrid.__new__(DiscGrid)
        grid._place(*_gauss_rule(radial), angular)
        return grid

    def integrate(self, integrand: Callable) -> complex:
        """integral over D of integrand dA (polar measure r dr dtheta).

        ``integrand`` maps a block of whole node rows (a view of ``nodes``)
        to its values there; each row is summed as if the grid were one block.
        """
        return complex(self._radial_sum(integrand, self.radial_nodes))

    def _radial_sum(self, integrand: Callable, jacobian, radii=None):
        """sum_k w_k jacobian_k (2 pi / A) sum_j integrand(z)_kj on the
        blocks of ``_blocks(radii)``."""
        row = np.concatenate([np.sum(integrand(z), axis=1) for z in self._blocks(radii)])
        row = row * (2.0 * np.pi / self.angular_count)
        return np.sum(self.radial_weights * jacobian * row)

    def _blocks(self, radii=None):
        """Whole node rows, _BLOCK_NODES nodes or one row at a time: views of
        ``nodes``, or with ``radii`` the rows radii_k e^{i theta_j} of the grid
        whose radial nodes are radii (the Hardy check's u^q)."""
        rows = max(1, _BLOCK_NODES // self.angular_count)
        for k in range(0, len(self.radial_nodes), rows):
            if radii is None:
                yield self.nodes[k:k + rows]
            else:
                yield radii[k:k + rows, None] * self._circle

    @staticmethod
    def sample(fn: Callable, z) -> np.ndarray:
        """fn at the node block z as a complex array; refuses a wrong shape or
        a non-finite value (closed forms come from the caller)."""
        values = np.asarray(fn(z), dtype=complex)
        if values.shape != z.shape:
            raise ValueError("values shape does not match the node block")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite function values")
        return values


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
    theta = 2.0 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    m = float(np.max(np.abs(f.value(np.exp(1j * theta)))))
    if m > BOUNDARY_TOL:
        raise BoundaryNonVanishing(f"max |f| on the boundary is {m:.3e} > {BOUNDARY_TOL:g}")


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

    One pass on the grid, exact up to round-off when |f_z|^2 is a
    polynomial within the grid's exactness (radial degree <= 2R - 1,
    angular degree < A).
    """
    return 2.0 * grid.integrate(lambda z: np.abs(grid.sample(f.dz, z)) ** 2).real


def dirichlet_pairing(f: ClosedForm, g: ClosedForm, grid: DiscGrid) -> complex:
    """(f, g)_1 = i int df ^ conj(dg) = 2 int f_z conj(g_z) dA on the grid."""
    if g is f:
        def integrand(z):
            fz = grid.sample(f.dz, z)
            return fz * np.conj(fz)
    else:
        def integrand(z):
            return grid.sample(f.dz, z) * np.conj(grid.sample(g.dz, z))
    return 2.0 * grid.integrate(integrand)


def pullback_pow(f: ClosedForm, n: int) -> ClosedForm:
    """phi^* f = f(z^n) for the covering phi(z) = z^n.

    The closed form composes analytically (chain rule for both
    derivatives).
    """
    if n < 1:
        raise ValueError("covering degree must be >= 1")

    def value(z):
        return f.value(z ** n)

    def dz(z):
        return n * z ** (n - 1) * f.dz(z ** n)

    def dzbar(z):
        return n * np.conj(z) ** (n - 1) * f.dzbar(z ** n)

    dzdzbar = None
    if f.dzdzbar is not None:
        def dzdzbar(z):
            return n ** 2 * np.abs(z) ** (2 * (n - 1)) * f.dzdzbar(z ** n)

    return ClosedForm(value=value, dz=dz, dzbar=dzbar, dzdzbar=dzdzbar)


def pushforward_pow(g: ClosedForm, n: int) -> ClosedForm:
    """phi_* g (w) = sum over the n-th roots u of w of g(u).

    The root sum (fixed principal branch; the sum is branch-independent)
    is formed analytically together with its derivatives.
    """
    if n < 1:
        raise ValueError("covering degree must be >= 1")
    roots = np.exp(2j * np.pi * np.arange(n) / n)

    def value(w):
        u = w ** (1.0 / n)
        return sum(g.value(rho * u) for rho in roots)

    # du/dw = u / (n w) on the same principal branch; the grid nodes exclude w = 0
    def dz(w):
        u = w ** (1.0 / n)
        du = u / (n * w)
        return sum(g.dz(rho * u) * rho * du for rho in roots)

    def dzbar(w):
        u = w ** (1.0 / n)
        du = u / (n * w)
        return sum(g.dzbar(rho * u) * np.conj(rho * du) for rho in roots)

    return ClosedForm(value=value, dz=dz, dzbar=dzbar)


def check_dbar_equality(f: ClosedForm, grid: DiscGrid) -> Check:
    """int |f_z|^2 versus int |f_zbar|^2 for f vanishing on the boundary."""
    _require_boundary_vanishing(f)
    lhs = seminorm1(f, grid)
    rhs = 2.0 * grid.integrate(lambda z: np.abs(grid.sample(f.dzbar, z)) ** 2).real
    return Check.equality(lhs, rhs)


def check_hardy(f: ClosedForm, delta: float | Fraction, grid: DiscGrid) -> Check:
    """Weighted Poincare inequality with the explicit constant (4/delta)^2.

    lhs = i int |f|^2 / |z|^{2-delta} dz^dzbar, integrated in one pass on
    the grid after the substitution r = u^q for delta = p/q in lowest terms
    (which turns r^{delta-1} dr into q u^{p-1} du, keeping nodes off the
    singularity); rhs = (4/delta)^2 i int |f_z|^2 dz^dzbar; the residual is
    the excess max(0, lhs - rhs).  For f polynomial in z and zbar the
    substituted radial integrand is a polynomial in u, and an R-node rule
    is exact only up to degree 2R - 1: for 1 - |z|^2 the degree is
    4q + p - 1, so the lhs is exact when 4q + p - 1 <= 2R - 1 and carries a
    quadrature error beyond it (delta = 1/64 needs R >= 129).  delta is a
    Fraction or a float taken at its exact value: 0.25 is 1/4, but the float
    0.1 has q = 2^55 and is refused, with any q > HARDY_MAX_DENOMINATOR,
    before grid work.
    """
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < 2:
        raise ValueError(f"delta must be a real number in (0, 2), got {delta!r}")
    p, q = Fraction(delta).as_integer_ratio()
    if q > HARDY_MAX_DENOMINATOR:
        raise ValueError(f"delta = {delta!r} = {p}/{q} has a denominator above "
                         f"HARDY_MAX_DENOMINATOR = {HARDY_MAX_DENOMINATOR}")
    _require_boundary_vanishing(f)
    u = grid.radial_nodes
    # f at the substituted nodes, block by block through the grid's shape and finiteness checks
    lhs = 2.0 * q * float(grid._radial_sum(lambda z: np.abs(grid.sample(f.value, z)) ** 2,
                                           u ** (p - 1), radii=u ** q))
    rhs = 16 * q * q / (p * p) * seminorm1(f, grid)
    return Check(lhs=lhs, rhs=rhs, residual=max(0.0, lhs - rhs))


def check_adjoint(f: ClosedForm, g: ClosedForm, n: int, grid: DiscGrid) -> Check:
    """(phi^* f, g)_{1,D} versus (f, phi_* g)_{1,D} for phi(z) = z^n."""
    return Check.equality(dirichlet_pairing(pullback_pow(f, n), g, grid),
                          dirichlet_pairing(f, pushforward_pow(g, n), grid))


def check_ibp(f: ClosedForm, g: ClosedForm, grid: DiscGrid) -> Check:
    """2 pi int f dd^c conj(g) versus -(f, g)_1 for boundary-vanishing f.

    With dd^c = (i/2pi) d dbar the left side is i int f conj(g_zbar_z)
    dz^dzbar, which needs the mixed second derivative of g in closed form.
    """
    _require_boundary_vanishing(f)
    if g.dzdzbar is None:
        raise ValueError("check_ibp needs the mixed second derivative of g")
    lhs = 2.0 * grid.integrate(
        lambda z: grid.sample(f.value, z) * np.conj(grid.sample(g.dzdzbar, z)))
    return Check.equality(lhs, -dirichlet_pairing(f, g, grid))


# -- canned closed forms and the certified report ---------------------------


def cf_one_minus_abs2() -> ClosedForm:
    """f(z) = 1 - |z|^2 (real, vanishes on the boundary)."""
    return ClosedForm(
        value=lambda z: 1.0 - np.abs(z) ** 2,
        dz=lambda z: -np.conj(z),
        dzbar=lambda z: -z,
        dzdzbar=lambda z: -np.ones_like(z),
    )


def cf_coordinate() -> ClosedForm:
    """f(z) = z."""
    return ClosedForm(
        value=lambda z: z,
        dz=lambda z: np.ones_like(z),
        dzbar=lambda z: np.zeros_like(z),
        dzdzbar=lambda z: np.zeros_like(z),
    )


def cf_abs2() -> ClosedForm:
    """f(z) = |z|^2."""
    return ClosedForm(
        value=lambda z: (np.abs(z) ** 2).astype(complex),
        dz=lambda z: np.conj(z),
        dzbar=lambda z: z,
        dzdzbar=lambda z: np.ones_like(z),
    )


def cf_bump_times_z() -> ClosedForm:
    """f(z) = z (1 - |z|^2), complex valued, vanishes on the boundary."""
    return ClosedForm(
        value=lambda z: z * (1.0 - np.abs(z) ** 2),
        dz=lambda z: 1.0 - 2.0 * z * np.conj(z),
        dzbar=lambda z: -(z ** 2),
        dzdzbar=lambda z: -2.0 * z,
    )


def cf_re() -> ClosedForm:
    """g(z) = Re z (harmonic)."""
    return ClosedForm(
        value=lambda z: (z + np.conj(z)) / 2.0,
        dz=lambda z: np.full_like(z, 0.5),
        dzbar=lambda z: np.full_like(z, 0.5),
        dzdzbar=lambda z: np.zeros_like(z),
    )


def verification_report(radial: int = DEFAULT_RADIAL, angular: int = DEFAULT_ANGULAR) -> dict:
    """Run the certified identity suite on the given grid at DEFAULT_TOL.

    Returns a JSON-ready report with one entry per check (name, lhs, rhs,
    residual, tolerance, pass flag) plus the overall verdict.  Every
    quadrature value either faces its closed form or sits in an identity
    whose other side does, so each residual is a measured error.  Every
    integrand is a polynomial of radial degree <= 16, so every grid from
    9 x 18 up passes at DEFAULT_TOL (read at each call).  This is the
    regression gate behind the verify-analysis command.
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
        pushed = pushforward_pow(g, 2).value
        return Check.equality(max(float(np.max(np.abs(grid.sample(pushed, z) - target(z))))
                                  for z in grid._blocks()), 0.0)

    add("pushforward(|z|^2, 2) = 2|w| (max node error)",
        push_error(abs2, lambda z: 2.0 * np.abs(z)))
    log_cf = ClosedForm(
        value=lambda z: -np.log(np.abs(z) ** 2).astype(complex),
        dz=lambda z: -1.0 / z,
        dzbar=lambda z: -1.0 / np.conj(z),
    )
    add("pushforward(-log|z|^2, 2) telescopes (max node error)",
        push_error(log_cf, lambda z: -np.log(np.abs(z) ** 2)))

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
