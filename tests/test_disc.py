"""Disc verification kernel: closed-form oracles, grid sweeps, error paths."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from eischow import disc
from eischow.disc import (
    DEFAULT_TOL,
    ClosedForm,
    DiscGrid,
    cf_abs2,
    cf_bump_times_z,
    cf_coordinate,
    cf_one_minus_abs2,
    cf_re,
    check_adjoint,
    check_dbar_equality,
    check_hardy,
    check_ibp,
    dirichlet_pairing,
    pullback_pow,
    pushforward_pow,
    seminorm1,
    verification_report,
)
from eischow.errors import BoundaryNonVanishing

GRID = DiscGrid.gauss(128, 256)
TOL = 1e-6
BUMP = cf_one_minus_abs2()  # 1 - |z|^2


def test_grid_validates_radial_exactness():
    DiscGrid.gauss(16, 32)  # passes validation
    with pytest.raises(ValueError):
        DiscGrid(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 8, exact_degree=5)


@pytest.mark.parametrize("radial", [1, 2, 3])
def test_grid_probes_only_degrees_the_rule_integrates(radial):
    # an R-point Gauss rule is exact up to degree 2R - 1, and no further
    grid = DiscGrid.gauss(radial, 4)
    nodes, weights = grid.radial_nodes, grid.radial_weights
    with pytest.raises(ValueError, match=f"degree {2 * radial}"):
        DiscGrid(nodes, weights, 4, exact_degree=2 * radial)


def test_grid_builds_each_gauss_rule_once(count_calls):
    disc._gauss_rule.cache_clear()
    calls = count_calls(leggauss)
    first, second = DiscGrid.gauss(40, 8), DiscGrid.gauss(40, 12)
    assert calls == [(40,)]
    assert second.radial_nodes is first.radial_nodes
    for a in (first.radial_nodes, first.radial_weights):
        assert not a.flags.writeable


@pytest.mark.parametrize("radial, angular, what", [
    pytest.param(8, 0, "angle", id="0"),
    pytest.param(8, -3, "angle", id="-3"),
    # a count must be a true int: int() would truncate 2.5 and read True as 1,
    # and the report would then name a grid it did not run
    pytest.param(8, 2.5, "angle", id="8-2.5"),
    pytest.param(True, 2, "radius", id="True-2"),
    pytest.param(0, 4, "radius", id="0-4"),
])
def test_grid_refuses_fewer_than_one_angle(radial, angular, what):
    with pytest.raises(ValueError, match=f"at least one {what}"):
        DiscGrid.gauss(radial, angular)
    with pytest.raises(ValueError, match=f"at least one {what}"):
        verification_report(radial, angular)


def test_grid_sample_refuses_wrong_shape_and_non_finite_values():
    # a malformed term is refused when the form is built
    for terms in ({(Fraction(1, 3), Fraction(2, 3), 0): 1},  # a - b not an integer
                  {(1, 0, -1): 1},                           # negative power of log|z|^2
                  {(1, 0, 1.0): 1},                          # k not an int
                  {(1, 0, 0): 0.5},                          # float coefficient
                  {(0.5, 0.5, 0): 1}):                       # float exponents
        with pytest.raises(ValueError, match="term"):
            ClosedForm(terms)
    # |z|^-800 overflows at the innermost radii, so the radial sum is not finite
    spike = ClosedForm({(-400, -400, 0): 1, (0, 0, 0): -1})
    with pytest.raises(ValueError, match="non-finite"):
        seminorm1(spike, GRID)
    # and so does the Hardy check's sum at the substituted radii: spike vanishes
    # on the boundary, and a NaN lhs must not pass as max(0, nan - rhs) = 0
    with pytest.raises(ValueError, match="non-finite"):
        check_hardy(spike, 1.0, GRID)
    # at delta = 1/64 on 129 radii the innermost radius u^64 is about 1e-246,
    # so powers of it underflow to 0: harmless, and without a warning (pytest
    # turns warnings into errors); its log is taken as 2 log r, since r^2 underflows
    fine = DiscGrid.gauss(129, 32)
    assert check_hardy(BUMP, Fraction(1, 64), fine).residual == 0.0
    # i int |z|^4 (log|z|^2)^2 |z|^{delta-2} dz^dzbar = 32 pi / (4 + delta)^3
    lhs = check_hardy(ClosedForm({(1, 1, 1): 1}), Fraction(1, 64), fine).lhs
    assert abs(lhs - 32 * math.pi / (4 + 1 / 64) ** 3) < 1e-12 * lhs


def test_seminorm_constant_zero():
    const = ClosedForm({(0, 0, 0): Fraction(5, 2)})
    assert const.dz == const.dzbar == ClosedForm({})
    assert seminorm1(const, GRID) == 0.0


def test_seminorm_bump_equals_pi():
    assert abs(seminorm1(BUMP, GRID) - math.pi) < TOL


def test_seminorm_coordinate_equals_two_pi():
    assert abs(seminorm1(cf_coordinate(), GRID) - 2 * math.pi) < TOL


@pytest.mark.parametrize(
    "radial, angular, passes",
    [(1, 2, False), (2, 4, False), (3, 6, False), (4, 8, False), (5, 10, False), (6, 12, False),
     (7, 14, False), (8, 16, False), (9, 18, True), (16, 32, True), (32, 64, True),
     (64, 128, True), (128, 256, True), (256, 512, True)],
)
def test_verification_report_grid_sweep(radial, angular, passes):
    # every integrand is a polynomial of radial degree <= 16 (the Hardy entry
    # at delta = 1/4), so at the round-off tolerance every grid from 9 nodes up
    # passes, and every smaller one fails and names what failed; even the
    # one-node grid ends in a failed report, not an exception
    rep = verification_report(radial=radial, angular=angular)
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert rep["grid"] == {"radial": radial, "angular": angular}
    assert rep["tolerance"] == DEFAULT_TOL == 1e-12
    assert rep["passed"] is passes
    assert bool(failing) is not passes
    if radial == 8:
        assert any(name.startswith("hardy lhs at delta=0.25") for name in failing)


def test_report_memory_stays_below_three_grid_arrays():
    # one 256 x 512 complex array is 2 MiB; term by term no array spans the grid
    tracemalloc.start()
    try:
        verification_report(256, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 256 * 512 * 16


def test_pullback_trivial_values():
    f = cf_coordinate()
    for n in (1, 2, 5):
        assert pullback_pow(f, n) == ClosedForm({(n, 0, 0): 1})
    # log|z^n|^2 = n log|z|^2
    assert pullback_pow(ClosedForm({(1, 1, 2): 1}), 3) == ClosedForm({(3, 3, 2): 9})


def test_pullback_degree_identity():
    base = seminorm1(BUMP, GRID)
    for n in (2, 3):
        assert abs(seminorm1(pullback_pow(BUMP, n), GRID) - n * base) < TOL


def test_pushforward_abs2():
    # sum over u^2 = w of |u|^2 is 2 |w| = 2 (w wbar)^(1/2)
    half = Fraction(1, 2)
    assert pushforward_pow(cf_abs2(), 2) == ClosedForm({(half, half, 0): 2})
    # the odd modes of z (1 - |z|^2) cancel over the square roots
    assert pushforward_pow(cf_bump_times_z(), 2) == ClosedForm({})


def test_pushforward_log_telescopes():
    minus_log = ClosedForm({(0, 0, 1): -1})  # -log|z|^2
    for n in (2, 3):
        assert pushforward_pow(minus_log, n) == minus_log


def test_dbar_equality_real_function():
    r = check_dbar_equality(BUMP, GRID)
    assert r.residual < 1e-12  # |f_z| = |f_zbar| pointwise for real f


def test_dbar_equality_complex_function():
    r = check_dbar_equality(cf_bump_times_z(), GRID)
    assert r.residual < TOL
    assert abs(r.lhs - 2 * math.pi / 3) < TOL


def test_dbar_boundary_enforced():
    with pytest.raises(BoundaryNonVanishing):
        check_dbar_equality(ClosedForm({(0, 0, 0): 1}), GRID)
    # each Fourier mode must cancel on |z| = 1: z - |z|^2 has modes 1 and 0
    with pytest.raises(BoundaryNonVanishing, match=r"\[0, 1\]"):
        check_dbar_equality(ClosedForm({(1, 0, 0): 1, (1, 1, 0): -1}), GRID)
    # |z|^2 log|z|^2 vanishes on the circle, and so does |z|^4 - |z|: one mode, summing to 0
    check_dbar_equality(ClosedForm({(1, 1, 1): 1}), GRID)
    check_dbar_equality(ClosedForm({(2, 2, 0): 1, (Fraction(1, 2), Fraction(1, 2), 0): -1}), GRID)


def test_hardy_closed_form_delta_one():
    h = check_hardy(BUMP, 1.0, GRID)
    assert abs(h.lhs - 32 * math.pi / 15) < TOL
    assert abs(h.rhs - 16 * math.pi) < TOL
    assert h.residual <= TOL


def test_hardy_small_delta_rescales_constant():
    tenth = Fraction(1, 10)
    h1 = check_hardy(BUMP, 1.0, GRID)
    h2 = check_hardy(BUMP, tenth, GRID)
    assert h2.residual <= TOL
    # rhs carries (4/delta)^2 against the unchanged Dirichlet integral
    assert abs(h2.rhs / h1.rhs - 100.0) < 1e-9
    assert abs(h2.rhs - 1600.0 * math.pi) < 1e-8
    # closed-form lhs: 4 pi (1/delta - 2/(delta+2) + 1/(delta+4)); after r = u^q the
    # integrand is a polynomial of degree 4q + p - 1 <= 40 here, so every delta is
    # exact up to round-off on the 128-node rule
    for delta in (tenth, 0.25, 0.5, 1.5, Fraction(2, 3), Fraction(7, 4)):
        d = float(delta)
        exact = 4.0 * math.pi * (1.0 / d - 2.0 / (d + 2.0) + 1.0 / (d + 4.0))
        assert abs(check_hardy(BUMP, delta, GRID).lhs - exact) < 1e-12


def test_hardy_is_exact_only_within_the_radial_degree():
    # at delta = 1/64 the radial integrand of 1 - |z|^2 has degree 4q + p - 1 = 256
    delta = Fraction(1, 64)
    d = float(delta)
    exact = 4.0 * math.pi * (1.0 / d - 2.0 / (d + 2.0) + 1.0 / (d + 4.0))
    coarse = check_hardy(BUMP, delta, DiscGrid.gauss(16, 32)).lhs
    fine = check_hardy(BUMP, delta, DiscGrid.gauss(129, 32)).lhs
    assert abs(coarse - exact) > 1e-6 * exact
    assert abs(fine - exact) < 1e-12 * exact


def test_hardy_randomized_polynomial_family():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        a, b = (int(e) for e in rng.integers(0, 3, size=2))
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        # coeff z^a zbar^b (1 - |z|^2)
        f = ClosedForm({(a, b, 0): coeff, (a + 1, b + 1, 0): -coeff})
        for delta in (0.25, 0.5, 1.0, 1.5):
            assert check_hardy(f, delta, GRID).residual <= TOL


def test_hardy_rejects_bad_delta():
    # refused before any grid work, so no grid is needed to see it; the float
    # 0.1 is 3602879701896397/2^55, with no small exact form
    for delta in (2.5, 0, 2, -0.5, 0.1, math.nan, math.inf, "1/4", True, Fraction(1, 1025)):
        for grid in (None, GRID):
            with pytest.raises(ValueError, match="delta"):
                check_hardy(BUMP, delta, grid)


def test_adjoint_example():
    r = check_adjoint(cf_abs2(), cf_abs2(), 2, GRID)
    assert abs(r.lhs - 4 * math.pi / 3) < TOL
    assert abs(r.rhs - 4 * math.pi / 3) < TOL
    assert r.residual < TOL


def test_adjoint_pullback_energy():
    base = dirichlet_pairing(BUMP, BUMP, GRID)
    for n in (2, 3):
        lifted = pullback_pow(BUMP, n)
        assert abs(dirichlet_pairing(lifted, lifted, GRID) - n * base) < TOL


def test_adjoint_constant_gives_zero():
    const = ClosedForm({(0, 0, 0): 3})
    r = check_adjoint(const, cf_abs2(), 2, GRID)
    assert abs(r.lhs) < 1e-14 and abs(r.rhs) < 1e-14


def test_ibp_example():
    r = check_ibp(BUMP, cf_abs2(), GRID)
    assert r.residual < TOL
    assert abs(r.lhs - math.pi) < TOL


def test_ibp_harmonic():
    r = check_ibp(BUMP, cf_re(), GRID)
    assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12


def test_ibp_zero_function():
    zero = ClosedForm({(0, 0, 0): 0})
    assert zero == ClosedForm({})
    r = check_ibp(zero, cf_abs2(), GRID)
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_linearity_of_seminorm_pairing():
    # (1-|z|^2, |z|^2)_1 = 2 int (-conj z) z dA = -pi
    assert abs(dirichlet_pairing(BUMP, cf_abs2(), GRID) + math.pi) < 1e-12
    g = cf_bump_times_z()
    lhs = dirichlet_pairing(BUMP, g, GRID)
    two_f = 2 * BUMP
    assert two_f == BUMP + BUMP == ClosedForm({(0, 0, 0): 2, (1, 1, 0): -2})
    assert abs(dirichlet_pairing(two_f, g, GRID) - 2 * lhs) < 1e-12


def test_refinement_convergence_order():
    # adjoint-identity residual under simultaneous refinement; polynomial
    # families are quadrature-exact, so use g = |z|^2 log|z|^2, whose push-forward
    # |w| log|w|^2 has a radial integrand no Gauss rule integrates exactly
    abs2_log = ClosedForm({(1, 1, 1): 1})
    res = []
    for radial, angular in ((4, 8), (8, 16), (16, 32), (32, 64)):
        grid = DiscGrid.gauss(radial, angular)
        r = check_adjoint(cf_abs2(), abs2_log, 2, grid)
        res.append(max(r.residual, 1e-16))
    # empirical order >= 1: each refinement at least halves the residual
    for coarse, fine in zip(res, res[1:]):
        assert fine <= coarse / 2


def test_verification_report_passes():
    rep = verification_report(radial=128, angular=256)
    assert rep["tolerance"] == DEFAULT_TOL
    assert rep["passed"]
    assert all(c["passed"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert any("hardy" in n for n in names)
    assert any("adjoint" in n for n in names)
