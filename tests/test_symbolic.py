"""SymbolicReal: vector-space axioms, serialization, certified evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eischow import gamma0
from eischow.errors import PrecisionUnreachable
from eischow.gamma0 import MAX_LEVEL, is_prime
from eischow.symbolic import KAPPA, LOG, ONE, SymbolicReal, linear_product
from eischow.zetavalues import (
    zeta_prime_at_minus1,
    zeta_prime_at_minus1_functional_equation,
)

# frozen from the two independent oracles below; they agree to ~5e-15
KAPPA_REFERENCE = -0.2070878103671176

rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
symbols = st.sampled_from([ONE, KAPPA, LOG(2), LOG(3), LOG(5), LOG(37)])
symbolic_reals = st.lists(st.tuples(rationals, symbols), max_size=4).map(
    lambda pairs: sum((q * s for q, s in pairs), SymbolicReal.zero())
)


def test_additive_inverse_example():
    assert (2 * LOG(3) + (-2) * LOG(3)).is_zero()


def test_scale_example():
    assert Fraction(1, 2) * (144 * KAPPA) == 72 * KAPPA


def test_disjoint_symbols_example():
    v = KAPPA + LOG(2)
    assert v.coefficient("KAPPA") == 1
    assert v.coefficient("LOG(2)") == 1
    assert v.coefficient("ONE") == 0


@given(a=symbolic_reals, b=symbolic_reals, c=symbolic_reals, p=rationals, q=rationals)
@settings(max_examples=150, deadline=None)
def test_vector_space_axioms(a, b, c, p, q):
    zero = SymbolicReal.zero()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (-a) == zero
    assert p * (a + b) == p * a + p * b
    assert (p + q) * a == p * a + q * a
    assert (p * q) * a == p * (q * a)
    assert 1 * a == a


@given(a=symbolic_reals)
@settings(max_examples=80, deadline=None)
def test_text_and_json_roundtrip(a):
    assert SymbolicReal.from_text(a.to_text()) == a
    assert SymbolicReal.from_json_obj(a.to_json_obj()) == a


def test_canonical_text_example():
    v = Fraction(288, 19) * KAPPA - Fraction(1, 3) * LOG(37)
    assert v.to_text() == "288/19*KAPPA - 1/3*LOG(37)"
    assert v.to_json_obj() == {"KAPPA": "288/19", "LOG(37)": "-1/3"}


def test_evaluate_zero():
    assert SymbolicReal.zero().evaluate(10) == 0.0


def test_evaluate_kappa():
    assert abs(KAPPA.evaluate(8) - KAPPA_REFERENCE) < 1e-8


def test_evaluate_log_with_exp_inversion():
    v = LOG(37).evaluate(10)
    assert abs(v - 3.6109179126) < 1e-9
    assert abs(math.exp(v) - 37.0) < 1e-8


def test_zeta_prime_two_oracles_agree():
    glaisher, bound1 = zeta_prime_at_minus1()
    funceq, bound2 = zeta_prime_at_minus1_functional_equation()
    assert abs(glaisher - funceq) < 1e-10
    assert abs(glaisher - funceq) < bound1 + bound2


@given(a=symbolic_reals, b=symbolic_reals)
@settings(max_examples=40, deadline=None)
def test_evaluate_is_linear_within_bounds(a, b):
    try:
        lhs = (a + b).evaluate(9)
        ra = a.evaluate(9)
        rb = b.evaluate(9)
    except PrecisionUnreachable:
        return
    assert abs(lhs - ra - rb) <= 3e-9


def test_precision_unreachable():
    with pytest.raises(PrecisionUnreachable):
        KAPPA.evaluate(15)
    with pytest.raises(ValueError):
        KAPPA.evaluate(0)


def test_log_beyond_level_cap_is_not_a_symbol(count_calls):
    p = 10 ** 18 + 3
    assert p > MAX_LEVEL and is_prime(p)
    calls = count_calls(gamma0.is_prime)
    with pytest.raises(ValueError, match="LOG expects a prime"):
        LOG(p)
    with pytest.raises(ValueError, match="unknown basis symbol"):
        SymbolicReal.from_json_obj({f"LOG({10 ** 30 + 57})": "1"})
    assert calls == []


def test_linear_product_rules():
    half = SymbolicReal.rational(Fraction(1, 2))
    assert linear_product(half, KAPPA) == Fraction(1, 2) * KAPPA
    assert linear_product(LOG(2), SymbolicReal.zero()).is_zero()
    with pytest.raises(ValueError):
        linear_product(KAPPA, LOG(2))


def test_bad_symbols_rejected():
    with pytest.raises(ValueError):
        SymbolicReal({"LOG(4)": 1})
    # LOG(p) has one spelling: ASCII digits without a leading zero
    for sym in ("LOG(0037)", "LOG(\uff13\uff17)", "LOG(\u00b2)", "LOG(+37)", "LOG( 37)"):
        with pytest.raises(ValueError, match="unknown basis symbol"):
            SymbolicReal.from_json_obj({sym: "1"})
    with pytest.raises(ValueError):
        SymbolicReal({"PI": 1})
    with pytest.raises(ValueError):
        LOG(6)
