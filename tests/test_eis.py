"""Eisenstein Gram matrix, W-hat, and the omega_Eis^2 identities."""

from fractions import Fraction

import pytest

from eischow.eis import (
    EisBasis,
    EisVector,
    degenerate_denominators,
    dinf_gp_discrepancy,
    gram,
    omega_eis_sq,
    omega_eis_vector,
    pair,
    w_square,
    w_vector,
    x_hat_infinity,
    x_hat_zero,
)
from eischow.errors import BasisMismatch, DegenerateGenus, NonSquarefree
from eischow.gamma0 import invariants
from eischow.symbolic import KAPPA, LOG, ONE, SymbolicReal

SQUAREFREE_300 = [
    n for n in range(1, 301) if all(n % (p * p) for p in range(2, int(n ** 0.5) + 1))
]


def test_gram_level_one():
    g = gram(1)
    assert g.entry("F", "F").is_zero()
    assert g.entry("F", "DINF") == Fraction(1, 2) * ONE
    assert g.entry("DINF", "DINF") == 144 * KAPPA


def test_gram_37_fiber_entry():
    # g = 2, g_{N/p} = 0: -4 (2 - 0 + 1) log 37
    assert gram(37).entry("G(37)", "G(37)") == -12 * LOG(37)


def test_gram_35_cross_fiber_zero():
    g = gram(35)
    assert g.entry("G(5)", "G(7)").is_zero()
    assert g.entry("DINF", "G(5)") == LOG(5)
    assert gram(35, "zero").entry("DINF", "G(5)").is_zero()


def test_gram_rejects():
    with pytest.raises(NonSquarefree):
        gram(12)
    with pytest.raises(ValueError):
        gram(37, "maybe")


def test_gram_symmetry_up_to_300():
    # symmetry is asserted at construction; building them all is the test
    for n in SQUAREFREE_300:
        gram(n)
        gram(n, "zero")


def test_pair_examples():
    basis = EisBasis.for_level(37)
    f = EisVector.unit(basis, "F")
    dinf = EisVector.unit(basis, "DINF")
    assert pair(f, f).is_zero()
    assert pair(3 * f, dinf) == Fraction(3, 2) * ONE
    assert pair(dinf, EisVector.unit(basis, "G(37)")) == LOG(37)


def test_pair_basis_mismatch():
    with pytest.raises(BasisMismatch):
        pair(
            EisVector.unit(EisBasis.for_level(37), "F"),
            EisVector.unit(EisBasis.for_level(35), "F"),
        )


def test_w_vector_examples():
    # genus 1 kills the fiber coefficients
    w11 = w_vector(11)
    assert w11.coordinate("G(11)").is_zero()
    assert w11.coordinate("F").is_zero()

    w37 = w_vector(37)
    assert w37.coordinate("G(37)") == SymbolicReal.rational(Fraction(-1, 6))
    assert w37.coordinate("DINF").is_zero()
    # the imposed normalization, and the F coefficient it forces
    assert pair(w37, EisVector.unit(w37.basis, "DINF")).is_zero()
    assert w37.coordinate("F") == Fraction(1, 3) * LOG(37)


@pytest.mark.parametrize("fn", [w_vector, w_square, omega_eis_vector, omega_eis_sq])
def test_gram_matrix_of_another_level_rejected(fn):
    with pytest.raises(BasisMismatch):
        fn(37, gram(43))
    with pytest.raises(BasisMismatch):
        fn(35, gram(37, "zero"))


def test_w_vector_zero_convention_also_normalized():
    g = gram(37, "zero")
    w = w_vector(37, g)
    assert pair(w, EisVector.unit(g.basis, "DINF"), g).is_zero()
    assert w.coordinate("F").is_zero()


def test_w_square_examples():
    assert w_square(11).is_zero()
    assert w_square(37) == Fraction(-1, 3) * LOG(37)
    # g = 3, both quotient genera 0, denominator 4, coefficient (g-1)^2 = 4
    assert w_square(35) == -1 * LOG(5) - 1 * LOG(7)


def test_omega_eis_sq_examples():
    assert omega_eis_sq(11).is_zero()
    assert omega_eis_sq(37) == Fraction(288, 19) * KAPPA - Fraction(1, 3) * LOG(37)
    assert omega_eis_sq(35) == 48 * KAPPA - 1 * LOG(5) - 1 * LOG(7)


def test_omega_eis_sq_numeric():
    assert abs(omega_eis_sq(37).evaluate(8) - (-4.3426545350)) < 1e-8


def test_omega_refuses_genus_zero():
    with pytest.raises(DegenerateGenus):
        omega_eis_sq(1)
    with pytest.raises(DegenerateGenus):
        w_vector(10)


def test_cross_term_vanishes_both_conventions():
    for conv in ("log", "zero"):
        g = gram(37, conv)
        inv = invariants(37)
        dinf = EisVector.unit(g.basis, "DINF")
        assert pair((2 * inv.genus - 2) * dinf, w_vector(37, g), g).is_zero()


def test_omega_equals_pairing_both_conventions():
    for conv in ("log", "zero"):
        g = gram(37, conv)
        v = omega_eis_vector(37, g)
        assert pair(v, v, g) == omega_eis_sq(37, g)
    assert omega_eis_sq(37, gram(37, "log")) == omega_eis_sq(37, gram(37, "zero"))


def test_x_hat_reconstruction():
    # div p principal forces <X_inf, X_0> = (g - 2 g_p + 1) log p
    for n, p, denom in ((37, 37, 3), (35, 5, 4), (35, 7, 4)):
        g = gram(n)
        xi = x_hat_infinity(n, p)
        x0 = x_hat_zero(n, p)
        assert pair(xi, x0, g) == denom * LOG(p)
        assert xi - x0 == EisVector.unit(g.basis, f"G({p})")
        # the class X_inf + X_0 is 2 log(p) F, so (X_inf)^2 = -<X_inf, X_0>
        coords = [2 * LOG(p)] + [0] * (g.basis.dimension - 1)
        assert xi + x0 == EisVector(g.basis, coords)
        assert pair(xi, xi, g) == -denom * LOG(p)


def test_no_degenerate_denominators_up_to_300():
    for n in SQUAREFREE_300:
        assert degenerate_denominators(n) == []


def test_discrepancy_diagnostic():
    d = dinf_gp_discrepancy(35)
    assert d["entries"]["G(5)"]["from_fiber_intersections"] == "LOG(5)"
    assert d["entries"]["G(5)"]["from_orthogonality"] == "0"
    assert d["affects_omega_eis_sq"] is False
    assert d["affects_self_adjointness"] is False
    # genus 0: omega_Eis^2 is undefined, so there is nothing to compare
    assert dinf_gp_discrepancy(10)["affects_omega_eis_sq"] is None
