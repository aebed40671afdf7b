"""Eta quotients against a naive product oracle; Hecke action; Heegner roots
against an exhaustive scan."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eischow.errors import (
    BadHeckePrime,
    FractionalLeadingPower,
    LevelNotCoprimeTo6,
    NonSquarefree,
    PrecisionTooSmall,
)
from eischow.gamma0 import invariants, squarefree_factorization
from eischow.qexp import (
    EtaQuotient,
    QExpansion,
    canonical_decomposition,
    eta_expand,
    hecke_q,
    heegner_points,
)

from conftest import _ap_weierstrass, _primes_upto, extend_an


def eta_product_oracle(factors, M):
    """Naive truncated expansion of prod_d (q^{d/24} prod_n (1 - q^{dn}))^{r_d}.

    Multiplies out (r_d > 0) or divides out (r_d < 0) every binomial factor
    one by one; independent of the pentagonal-number fast path.  Dividing by
    (1 - q^{dn}) is the in-place ascending step poly[i] += poly[i - dn].
    """
    shift = sum(d * r for d, r in factors)
    assert shift % 24 == 0
    shift //= 24
    poly = [0] * (M + 1)
    poly[0] = 1
    for d, r in factors:
        for _ in range(abs(r)):
            for n in range(1, M // d + 1):
                if r < 0:
                    # divide by (1 - q^{dn})
                    for i in range(d * n, M + 1):
                        poly[i] += poly[i - d * n]
                else:
                    # multiply by (1 - q^{dn})
                    new = poly[:]
                    for i in range(M + 1 - d * n):
                        new[i + d * n] -= poly[i]
                    poly = new
    return [poly[n - shift] if n >= shift else 0 for n in range(1, M + 1)]


def test_delta_expansion_against_oracle():
    delta = eta_expand(EtaQuotient(factors=((1, 24),)), 30)
    assert list(delta.coeffs) == eta_product_oracle([(1, 24)], 30)
    assert delta.coeffs[:7] == (1, -24, 252, -1472, 4830, -6048, -16744)
    assert delta.weight == 12 and delta.level == 1


def test_level11_expansion_against_oracle():
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 40)
    assert list(f.coeffs) == eta_product_oracle([(1, 2), (11, 2)], 40)
    assert f.coeffs[:10] == (1, -2, -1, 2, 1, 2, -2, 0, -2, -2)
    assert f.weight == 2 and f.level == 11


def test_level11_expansion_matches_point_count():
    # eta(z)^2 eta(11z)^2 is the newform of 11a: y^2 + y = x^3 - x^2 - 10x - 20,
    # at the size the benchmark's rank1-forms workload expands it to
    M = 2400
    ap = {p: _ap_weierstrass((0, -1, 1, -10, -20), p) for p in _primes_upto(M)}
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), M)
    assert list(f.coeffs) == extend_an(ap, M, 11)


_FACTOR_CHOICES = [(d, r) for d in range(1, 13) for r in range(-6, 9) if r]


@st.composite
def eta_factor_sets(draw):
    """1 to 4 factors (d <= 12, r in [-6, 8] minus 0) with sum(d r)/24 a positive
    integer and weight sum(r)/2 positive and even; the last factor is drawn
    among the ones that satisfy both congruences."""
    head = draw(st.lists(st.sampled_from(_FACTOR_CHOICES), max_size=3))
    shift, weight = sum(d * r for d, r in head), sum(r for _, r in head)
    last = [(d, r) for d, r in _FACTOR_CHOICES
            if (shift + d * r) % 24 == 0 and shift + d * r > 0
            and (weight + r) % 4 == 0 and weight + r > 0]
    assume(last)
    return tuple(head) + (draw(st.sampled_from(last)),)


@settings(max_examples=120, deadline=None, database=None)
@given(factors=eta_factor_sets(), M=st.integers(1, 120))
@example(factors=((12, 8),), M=3)  # M below the leading power 4: every coefficient is 0
# 23 pentagonal terms to the 48th power: 224-bit slots (23^48 < 2^218), so the decode
# of slots wider than 8 bytes, for coefficients below 2^76
@example(factors=((1, 48),), M=200)
def test_eta_expand_matches_oracle(factors, M):
    f = eta_expand(EtaQuotient(factors=factors), M)
    assert list(f.coeffs) == eta_product_oracle(factors, M)
    assert f.precision == M


def test_negative_exponent_quotient():
    # eta(1)^48 / eta(1)^24 must reproduce Delta
    delta = eta_expand(EtaQuotient(factors=((1, 24),)), 400)
    quot = eta_expand(EtaQuotient(factors=((1, 48), (1, -24))), 400)
    assert quot.coeffs == delta.coeffs


def test_negative_exponent_against_oracle():
    # eta(2z)^16 / eta(z)^8: weight 4, level 2, leading power q^1
    factors = ((2, 16), (1, -8))
    f = eta_expand(EtaQuotient(factors=factors), 120)
    assert list(f.coeffs) == eta_product_oracle(factors, 120)
    assert f.coeffs[:4] == (1, 8, 28, 64)
    assert f.weight == 4 and f.level == 2


def test_eta_rejections():
    with pytest.raises(FractionalLeadingPower):
        eta_expand(EtaQuotient(factors=((1, 26),)), 10)  # 26/24 fractional
    with pytest.raises(ValueError):
        eta_expand(EtaQuotient(factors=((1, 1), (23, 1))), 10)  # odd weight 1
    with pytest.raises(FractionalLeadingPower):
        eta_expand(EtaQuotient(factors=((1, 24), (1, -48))), 10)  # negative power


def test_eta_text_roundtrip():
    q = EtaQuotient(factors=((1, 2), (11, 2)))
    assert q.to_text() == "eta(1)^2*eta(11)^2"
    assert EtaQuotient.from_text(q.to_text()) == q


def test_hecke_q_delta_eigenvalue():
    delta = eta_expand(EtaQuotient(factors=((1, 24),)), 40)
    t2 = hecke_q(2, delta)
    assert t2.coeffs == tuple(-24 * c for c in delta.coeffs[: t2.precision])


def test_hecke_q_level11_eigenvalue():
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 40)
    t2 = hecke_q(2, f)
    assert t2.coeffs == tuple(-2 * c for c in f.coeffs[: t2.precision])


def test_hecke_q_first_coefficient_is_al():
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 60)
    for l in (2, 3, 5, 7, 13):
        assert hecke_q(l, f).a(1) == f.a(l)


def test_hecke_q_errors():
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 12)
    with pytest.raises(BadHeckePrime):
        hecke_q(11, f)
    with pytest.raises(BadHeckePrime):
        hecke_q(6, f)
    with pytest.raises(PrecisionTooSmall):
        hecke_q(13, f)


def test_tau_multiplicativity_small():
    delta = eta_expand(EtaQuotient(factors=((1, 24),)), 120)
    for m in range(2, 11):
        for n in range(2, 121 // m):
            if math.gcd(m, n) == 1:
                assert delta.a(m * n) == delta.a(m) * delta.a(n)


def test_heegner_examples():
    assert heegner_points(11, -4).roots == ()
    assert heegner_points(37, -4).roots == (12, 62)
    assert (12 * 12 + 4) % 148 == 0
    h3 = heegner_points(37, -3)
    assert h3.count == 2 == invariants(37).nu3
    assert h3.weight_per_point == Fraction(1, 3)
    assert heegner_points(37, -4).weight_per_point == Fraction(1, 2)


def heegner_scan(N, disc):
    """Every b in [0, 2N) with b^2 = disc (mod 4N), by exhaustive search."""
    b = np.arange(2 * N, dtype=np.int64)
    return tuple(int(x) for x in b[(b * b - disc) % (4 * N) == 0])


def test_heegner_roots_against_scan():
    checked = 0
    for N in range(1, 10 ** 4 + 1):
        if math.gcd(N, 6) != 1:
            continue
        try:
            squarefree_factorization(N)
        except NonSquarefree:
            continue
        for disc in (-3, -4):
            assert heegner_points(N, disc).roots == heegner_scan(N, disc), (N, disc)
            checked += 1
    assert checked == 2 * 3043


# the 4-prime level has every prime = 1 (mod 12), so nu2 = nu3 = 16
@pytest.mark.parametrize("N", [1000003, 1000003 * 1000033, 13 * 37 * 61 * 1000033])
def test_heegner_roots_at_large_levels(N):
    inv = invariants(N)
    for disc, count in ((-4, inv.nu2), (-3, inv.nu3)):
        roots = heegner_points(N, disc).roots
        assert list(roots) == sorted(set(roots))
        assert all(0 <= b < 2 * N and (b * b - disc) % (4 * N) == 0 for b in roots)
        assert len(roots) == count
        if N < 10 ** 7:
            assert roots == heegner_scan(N, disc)


def test_heegner_errors():
    with pytest.raises(LevelNotCoprimeTo6):
        heegner_points(35 * 2, -4)
    with pytest.raises(LevelNotCoprimeTo6):
        heegner_points(15, -3)
    with pytest.raises(NonSquarefree):
        heegner_points(49, -4)
    with pytest.raises(ValueError):
        heegner_points(37, -7)


def test_canonical_decomposition_37():
    cd = canonical_decomposition(37)
    assert cd.mult_infty == 2
    assert cd.h_i.count == 2
    assert cd.h_j.count == 2


def test_canonical_decomposition_empty_case():
    # search oracle: smallest squarefree N coprime to 6 with nu2 = nu3 = 0
    found = next(
        n
        for n in range(2, 200)
        if math.gcd(n, 6) == 1
        and all(n % (p * p) for p in range(2, int(n ** 0.5) + 1))
        and invariants(n).nu2 == 0
        and invariants(n).nu3 == 0
    )
    assert found == 11
    for n in (11, 35):
        cd = canonical_decomposition(n)
        assert cd.h_i.count == 0 and cd.h_j.count == 0


def test_qexpansion_json():
    f = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 5)
    assert f.to_json_obj() == {"weight": 2, "level": 11, "an": [1, -2, -1, 2, 1]}
    assert isinstance(f, QExpansion)
