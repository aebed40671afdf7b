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
    assert grid.nodes.shape == (radial, 4)
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
    with pytest.raises(ValueError, match="shape"):
        GRID.sample(lambda z: z[0], GRID.nodes)
    # the closed form is elementwise: it names the bad node, not an index into its block
    hole = GRID.nodes[3, 5]
    with pytest.raises(ValueError, match="non-finite"):
        GRID.sample(lambda z: np.where(z == hole, np.inf, z), GRID.nodes)
    # derivatives go through the same check
    bad_dz = ClosedForm(value=lambda z: z, dz=lambda z: np.full_like(z, np.nan),
                        dzbar=lambda z: np.zeros_like(z))
    with pytest.raises(ValueError, match="non-finite"):
        seminorm1(bad_dz, GRID)
    # on every block of rows, the last one too (128 x 256 runs as two blocks of 64 rows)
    last = GRID.nodes[127, 200]
    late_dz = ClosedForm(value=lambda z: z, dz=lambda z: np.where(z == last, np.nan, z),
                         dzbar=lambda z: np.zeros_like(z))
    with pytest.raises(ValueError, match="non-finite"):
        seminorm1(late_dz, GRID)
    # and so do the Hardy check's substituted nodes: a NaN lhs must not pass as
    # max(0, nan - rhs) = 0
    holed = ClosedForm(value=lambda z: np.where(np.abs(z) < 0.3, np.nan, BUMP.value(z)),
                       dz=BUMP.dz, dzbar=BUMP.dzbar)
    with pytest.raises(ValueError, match="non-finite"):
        check_hardy(holed, 1.0, GRID)


def test_seminorm_constant_zero():
    const = ClosedForm(
        value=lambda z: np.full_like(z, 2.5),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
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


def _hexed(report):
    return [(c["name"], c["lhs"]["re"].hex(), c["rhs"]["re"].hex(), c["rhs"]["im"].hex(),
             c["residual"].hex()) for c in report["checks"]]


def test_report_in_blocks_matches_the_whole_grid(monkeypatch):
    # 100 x 300 runs as row blocks of 54 and 46; the lhs imaginary parts may
    # differ only in the sign of their rounding residue (numpy's temporary
    # elision swaps a product's operands from 256 KiB up)
    blocked = verification_report(100, 300)
    monkeypatch.setattr(disc, "_BLOCK_NODES", 100 * 300)
    whole = verification_report(100, 300)
    assert _hexed(blocked) == _hexed(whole)
    for b, w in zip(blocked["checks"], whole["checks"]):
        assert abs(b["lhs"]["im"]) == abs(w["lhs"]["im"]) < 1e-17


def test_report_passes_with_rows_longer_than_a_block():
    assert 20000 > disc._BLOCK_NODES
    assert verification_report(9, 20000)["passed"]


def test_report_memory_stays_below_three_grid_arrays():
    # one 256 x 512 complex array is 2 MiB; blocks keep the peak near the nodes alone
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
        pulled = pullback_pow(f, n)
        assert isinstance(pulled, ClosedForm)
        assert np.allclose(GRID.sample(pulled.value, GRID.nodes), GRID.nodes ** n)


def test_pullback_degree_identity():
    base = seminorm1(BUMP, GRID)
    for n in (2, 3):
        assert abs(seminorm1(pullback_pow(BUMP, n), GRID) - n * base) < TOL


def test_pushforward_abs2():
    push = pushforward_pow(cf_abs2(), 2)
    assert isinstance(push, ClosedForm)
    assert np.max(np.abs(GRID.sample(push.value, GRID.nodes) - 2.0 * np.abs(GRID.nodes))) < 1e-12


def test_pushforward_log_telescopes():
    log_cf = ClosedForm(
        value=lambda z: -np.log(np.abs(z) ** 2).astype(complex),
        dz=lambda z: -1.0 / z,
        dzbar=lambda z: -1.0 / np.conj(z),
    )
    for n in (2, 3):
        push = GRID.sample(pushforward_pow(log_cf, n).value, GRID.nodes)
        assert np.max(np.abs(push + np.log(np.abs(GRID.nodes) ** 2))) < 1e-12


def test_dbar_equality_real_function():
    r = check_dbar_equality(BUMP, GRID)
    assert r.residual < 1e-12  # |f_z| = |f_zbar| pointwise for real f


def test_dbar_equality_complex_function():
    r = check_dbar_equality(cf_bump_times_z(), GRID)
    assert r.residual < TOL
    assert abs(r.lhs - 2 * math.pi / 3) < TOL


def test_dbar_boundary_enforced():
    one = ClosedForm(
        value=lambda z: np.ones_like(z),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    with pytest.raises(BoundaryNonVanishing):
        check_dbar_equality(one, GRID)


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

        f = ClosedForm(value=value, dz=dz, dzbar=dzbar)
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
    const = ClosedForm(
        value=lambda z: np.full_like(z, 3.0),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
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
    zero = ClosedForm(
        value=lambda z: np.zeros_like(z),
        dz=lambda z: np.zeros_like(z),
        dzbar=lambda z: np.zeros_like(z),
    )
    r = check_ibp(zero, cf_abs2(), GRID)
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_linearity_of_seminorm_pairing():
    # (1-|z|^2, |z|^2)_1 = 2 int (-conj z) z dA = -pi
    assert abs(dirichlet_pairing(BUMP, cf_abs2(), GRID) + math.pi) < 1e-12
    g = cf_bump_times_z()
    lhs = dirichlet_pairing(BUMP, g, GRID)
    two_f = ClosedForm(
        value=lambda z: 2 * BUMP.value(z),
        dz=lambda z: 2 * BUMP.dz(z),
        dzbar=lambda z: 2 * BUMP.dzbar(z),
    )
    assert abs(dirichlet_pairing(two_f, g, GRID) - 2 * lhs) < 1e-12


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
        r = check_adjoint(cf_abs2(), exp_cf, 2, grid)
        res.append(max(r.residual, 1e-16))
    # empirical order >= 1: each refinement at least halves the residual
    assert res[1] <= res[0] / 2
    assert res[2] <= res[1] / 2


def test_verification_report_passes():
    rep = verification_report(radial=128, angular=256)
    assert rep["tolerance"] == DEFAULT_TOL
    assert rep["passed"]
    assert all(c["passed"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert any("hardy" in n for n in names)
    assert any("adjoint" in n for n in names)
