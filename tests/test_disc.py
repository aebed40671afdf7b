"""Disc verification kernel: closed-form oracles, grid sweeps, error paths."""

import math

import numpy as np
import pytest

from eischow.disc import (
    ClosedForm,
    DiscFunction,
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


def bump(grid=GRID):
    return DiscFunction.sample(cf_one_minus_abs2(), grid)


def test_grid_validates_radial_exactness():
    DiscGrid.gauss(16, 32)  # passes validation
    with pytest.raises(ValueError):
        DiscGrid(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 8, exact_degree=5)


def test_seminorm_constant_zero():
    const = ClosedForm(
        value=lambda z: np.full_like(z, 2.5),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    assert seminorm1(DiscFunction.sample(const, GRID)) == 0.0


def test_seminorm_bump_equals_pi():
    assert abs(seminorm1(bump()) - math.pi) < TOL


def test_seminorm_coordinate_equals_two_pi():
    assert abs(seminorm1(DiscFunction.sample(cf_coordinate(), GRID)) - 2 * math.pi) < TOL


@pytest.mark.parametrize(
    "radial, angular, passes",
    [(4, 8, False), (8, 16, False), (16, 32, False), (32, 64, False), (64, 128, False),
     (128, 256, True), (256, 512, True)],
)
def test_verification_report_grid_sweep(radial, angular, passes):
    # at the default tolerance every grid below 128x256 fails, and names what failed
    rep = verification_report(radial=radial, angular=angular)
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert rep["passed"] is passes
    assert bool(failing) is not passes
    if not passes:
        assert any(name.startswith("hardy lhs at delta=1.5") for name in failing)


def test_pullback_trivial_values():
    f = DiscFunction.sample(cf_coordinate(), GRID)
    for n in (1, 2, 5):
        pulled = pullback_pow(f, n)
        assert np.allclose(pulled.values, GRID.nodes ** n)


def test_pullback_degree_identity():
    base = seminorm1(bump())
    for n in (2, 3):
        assert abs(seminorm1(pullback_pow(bump(), n)) - n * base) < TOL


def test_pushforward_abs2():
    push = pushforward_pow(DiscFunction.sample(cf_abs2(), GRID), 2)
    assert np.max(np.abs(push.values - 2.0 * np.abs(GRID.nodes))) < 1e-12


def test_pushforward_log_telescopes():
    log_cf = ClosedForm(
        value=lambda z: -np.log(np.abs(z) ** 2).astype(complex),
        dz=lambda z: -1.0 / z,
        dzbar=lambda z: -1.0 / np.conj(z),
    )
    for n in (2, 3):
        push = pushforward_pow(DiscFunction.sample(log_cf, GRID), n)
        assert np.max(np.abs(push.values + np.log(np.abs(GRID.nodes) ** 2))) < 1e-12


def test_dbar_equality_real_function():
    r = check_dbar_equality(bump())
    assert r.residual < 1e-12  # |f_z| = |f_zbar| pointwise for real f


def test_dbar_equality_complex_function():
    r = check_dbar_equality(DiscFunction.sample(cf_bump_times_z(), GRID))
    assert r.residual < TOL
    assert abs(r.lhs - 2 * math.pi / 3) < TOL


def test_dbar_boundary_enforced():
    one = ClosedForm(
        value=lambda z: np.ones_like(z),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    with pytest.raises(BoundaryNonVanishing):
        check_dbar_equality(DiscFunction.sample(one, GRID))


def test_hardy_closed_form_delta_one():
    h = check_hardy(bump(), 1.0)
    assert abs(h.lhs - 32 * math.pi / 15) < TOL
    assert abs(h.rhs - 16 * math.pi) < TOL
    assert h.residual <= TOL


def test_hardy_small_delta_rescales_constant():
    h1 = check_hardy(bump(), 1.0)
    h2 = check_hardy(bump(), 0.1)
    assert h2.residual <= TOL
    # rhs carries (4/delta)^2 against the unchanged Dirichlet integral
    assert abs(h2.rhs / h1.rhs - 100.0) < 1e-9
    assert abs(h2.rhs - 1600.0 * math.pi) < 1e-8
    # closed-form lhs: 4 pi (1/delta - 2/(delta+2) + 1/(delta+4)); the Gauss rule
    # is exact where 2/delta is an integer, so delta = 1.5 gets the loosest bound
    for delta, bound in ((0.1, 1e-6), (0.25, 1e-12), (0.5, 1e-12), (1.5, 1e-9)):
        exact = 4.0 * math.pi * (1.0 / delta - 2.0 / (delta + 2.0) + 1.0 / (delta + 4.0))
        assert abs(check_hardy(bump(), delta).lhs - exact) < bound


def test_hardy_randomized_polynomial_family():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        a, b = rng.integers(0, 3, size=2)
        coeff = complex(rng.normal(), rng.normal())

        def value(z, a=a, b=b, coeff=coeff):
            return coeff * z ** a * np.conj(z) ** b * (1.0 - np.abs(z) ** 2)

        def dz(z, a=a, b=b, coeff=coeff):
            zb = np.conj(z)
            base = z ** a * zb ** b
            da = np.where(a > 0, a * z ** max(a - 1, 0) * zb ** b, 0.0)
            return coeff * (da * (1 - z * zb) - base * zb)

        def dzbar(z, a=a, b=b, coeff=coeff):
            zb = np.conj(z)
            base = z ** a * zb ** b
            db = np.where(b > 0, b * z ** a * zb ** max(b - 1, 0), 0.0)
            return coeff * (db * (1 - z * zb) - base * z)

        f = DiscFunction.sample(ClosedForm(value=value, dz=dz, dzbar=dzbar), GRID)
        for delta in (0.25, 0.5, 1.0, 1.5):
            assert check_hardy(f, delta).residual <= TOL


def test_hardy_rejects_bad_delta():
    with pytest.raises(ValueError):
        check_hardy(bump(), 2.5)


def test_adjoint_example():
    r = check_adjoint(DiscFunction.sample(cf_abs2(), GRID),
                      DiscFunction.sample(cf_abs2(), GRID), 2)
    assert abs(r.lhs - 4 * math.pi / 3) < TOL
    assert abs(r.rhs - 4 * math.pi / 3) < TOL
    assert r.residual < TOL


def test_adjoint_pullback_energy():
    f = bump()
    base = dirichlet_pairing(f, f)
    for n in (2, 3):
        lifted = pullback_pow(f, n)
        assert abs(dirichlet_pairing(lifted, lifted) - n * base) < TOL


def test_adjoint_constant_gives_zero():
    const = ClosedForm(
        value=lambda z: np.full_like(z, 3.0),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    r = check_adjoint(DiscFunction.sample(const, GRID),
                      DiscFunction.sample(cf_abs2(), GRID), 2)
    assert abs(r.lhs) < 1e-14 and abs(r.rhs) < 1e-14


def test_ibp_example():
    r = check_ibp(bump(), DiscFunction.sample(cf_abs2(), GRID))
    assert r.residual < TOL
    assert abs(r.lhs - math.pi) < TOL


def test_ibp_harmonic():
    r = check_ibp(bump(), DiscFunction.sample(cf_re(), GRID))
    assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12


def test_ibp_zero_function():
    zero = ClosedForm(
        value=lambda z: np.zeros_like(z),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    r = check_ibp(DiscFunction.sample(zero, GRID), DiscFunction.sample(cf_abs2(), GRID))
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_pairing_resamples_onto_first_grid():
    # (1-|z|^2, |z|^2)_1 = 2 int (-conj z) z dA = -pi; g lives on another grid
    f = bump()
    g = DiscFunction.sample(cf_abs2(), DiscGrid.gauss(96, 200))
    cross = dirichlet_pairing(f, g)
    same = dirichlet_pairing(f, DiscFunction.sample(cf_abs2(), GRID))
    assert abs(cross - same) < 1e-12
    assert abs(cross + math.pi) < 1e-12


def test_linearity_of_seminorm_pairing():
    f, g = bump(), DiscFunction.sample(cf_bump_times_z(), GRID)
    lhs = dirichlet_pairing(f, g)
    two_f = DiscFunction.sample(
        ClosedForm(
            value=lambda z: 2 * cf_one_minus_abs2().value(z),
            dz=lambda z: 2 * cf_one_minus_abs2().dz(z),
            dzbar=lambda z: 2 * cf_one_minus_abs2().dzbar(z),
        ),
        GRID,
    )
    assert abs(dirichlet_pairing(two_f, g) - 2 * lhs) < 1e-12


def test_refinement_convergence_order():
    # adjoint-identity residual under simultaneous refinement; polynomial
    # families are quadrature-exact, so use a genuinely non-polynomial g
    exp_cf = ClosedForm(
        value=lambda z: np.exp(4.0 * np.abs(z) ** 2),
        dz=lambda z: 4.0 * np.conj(z) * np.exp(4.0 * np.abs(z) ** 2),
        dzbar=lambda z: 4.0 * z * np.exp(4.0 * np.abs(z) ** 2),
    )
    res = []
    for radial, angular in ((4, 8), (8, 16), (16, 32)):
        grid = DiscGrid.gauss(radial, angular)
        r = check_adjoint(DiscFunction.sample(cf_abs2(), grid),
                          DiscFunction.sample(exp_cf, grid), 2)
        res.append(max(r.residual, 1e-16))
    # empirical order >= 1: each refinement at least halves the residual
    assert res[1] <= res[0] / 2
    assert res[2] <= res[1] / 2


def test_verification_report_passes():
    rep = verification_report(radial=128, angular=256, tol=1e-6)
    assert rep["passed"]
    assert all(c["passed"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert any("hardy" in n for n in names)
    assert any("adjoint" in n for n in names)
