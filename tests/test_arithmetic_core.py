"""The exact layer's arithmetic core: one primality test, one factorization
of N per public call, and LOG(p) symbols checked only where they enter."""

import math
from fractions import Fraction

import pytest

from eischow import eis, gamma0, hecke, qexp
from eischow.errors import LevelNotCoprimeTo6, NonSquarefree
from eischow.gamma0 import is_prime, primes_upto, squarefree_factorization
from eischow.symbolic import KAPPA, LOG, SymbolicReal


def prime_by_definition(n):
    return n > 1 and all(n % d for d in range(2, n))


def test_is_prime_against_definition():
    for n in range(-3, 2000):
        assert is_prime(n) == prime_by_definition(n), n
    assert is_prime(1000003) and is_prime(10 ** 12 + 39)
    assert not is_prime(999983 * 1000003)


def test_factorization_against_definition():
    for n in range(1, 2000):
        divisors = [p for p in range(2, n + 1) if n % p == 0 and prime_by_definition(p)]
        if any(n % (p * p) == 0 for p in divisors):
            with pytest.raises(NonSquarefree):
                squarefree_factorization(n)
        else:
            assert squarefree_factorization(n) == tuple(divisors)
            assert math.prod(divisors) == n


# (N, a Hecke prime l not dividing N, a prime p dividing N)
LEVELS = [(37, 2, 37), (30030, 17, 13)]

ENTRY_POINTS = {
    "invariants": lambda N, l, p: gamma0.invariants(N),
    "genus_quotient": lambda N, l, p: gamma0.genus_quotient(N, p),
    "gram": lambda N, l, p: eis.gram(N),
    "gram_zero": lambda N, l, p: eis.gram(N, "zero"),
    "degenerate_denominators": lambda N, l, p: eis.degenerate_denominators(N),
    "w_vector": lambda N, l, p: eis.w_vector(N),
    "w_square": lambda N, l, p: eis.w_square(N),
    "omega_eis_vector": lambda N, l, p: eis.omega_eis_vector(N),
    "omega_eis_sq": lambda N, l, p: eis.omega_eis_sq(N),
    "t_hat": lambda N, l, p: hecke.t_hat(l, N),
    "hecke_shift": lambda N, l, p: hecke.hecke_shift(l, N),
    "w_hat": lambda N, l, p: hecke.w_hat(N, N),
}


@pytest.mark.parametrize("N, l, p", LEVELS)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_entry_point_factors_once(count_calls, name, N, l, p):
    calls = count_calls(gamma0.squarefree_factorization)
    ENTRY_POINTS[name](N, l, p)
    assert calls == [(N,)]


@pytest.mark.parametrize("N, l, p", LEVELS)
def test_given_gram_matrix_factors_once(count_calls, N, l, p):
    G = eis.gram(N, "zero")
    calls = count_calls(gamma0.squarefree_factorization)
    for fn in (eis.w_vector, eis.w_square, eis.omega_eis_vector, eis.omega_eis_sq):
        calls.clear()
        fn(N, G)
        assert calls == [(N,)], fn.__name__


def test_canonical_decomposition_factors_once(count_calls):
    calls = count_calls(gamma0.squarefree_factorization)
    qexp.canonical_decomposition(37)
    assert calls == [(37,)]
    calls.clear()
    with pytest.raises(LevelNotCoprimeTo6):
        qexp.canonical_decomposition(30030)
    assert calls == [(30030,)]


def test_arithmetic_and_rendering_never_test_primality(count_calls):
    v = 3 * KAPPA + LOG(37) - Fraction(1, 2) * LOG(5)
    calls = count_calls(gamma0.is_prime)
    w = Fraction(2, 3) * (v + v) - v * 4 + (-v)
    w.to_text()
    w.to_json_obj()
    w.items()
    hash(w)
    assert w != v
    assert calls == []
    LOG(37)
    assert calls == [(37,)]


def test_symbols_checked_once_where_they_enter(count_calls):
    text = "3*KAPPA + LOG(37) - 1/2*LOG(5)"
    calls = count_calls(gamma0.is_prime)
    v = SymbolicReal.from_text(text)
    assert sorted(calls) == [(5,), (37,)]
    calls.clear()
    SymbolicReal.from_json_obj(v.to_json_obj())
    assert sorted(calls) == [(5,), (37,)]
    calls.clear()
    v.coefficient("LOG(37)")
    assert calls == [(37,)]


def test_primes_upto_against_is_prime():
    expected = []
    for m in range(-1, 3001):
        if is_prime(m):
            expected.append(m)
        assert primes_upto(m) == expected, m
