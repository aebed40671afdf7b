"""The exact layer's arithmetic core: one primality test, one factorization
of N per public call, and LOG(p) symbols checked only where they enter."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

from eischow import eis, gamma0, hecke, qexp
from eischow.cli import run
from eischow.errors import LevelNotCoprimeTo6, LevelTooLarge, NonSquarefree
from eischow.gamma0 import MAX_LEVEL, is_prime, primes_upto, squarefree_factorization
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


def test_is_prime_against_sieve():
    primes = set(primes_upto(10 ** 5))
    for n in range(10 ** 5 + 1):
        assert is_prime(n) == (n in primes), n


# strong pseudoprimes to the bases 2..7, 2..23 and 2..37, then Carmichael numbers
@pytest.mark.parametrize("n, factors", [
    (3215031751, (151, 751, 28351)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (561, (3, 11, 17)),
    (41041, (7, 11, 13, 41)),
    (825265, (5, 7, 17, 19, 73)),
])
def test_pseudoprimes_are_composite(n, factors):
    assert math.prod(factors) == n and all(is_prime(p) for p in factors)
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_exact_range():
    assert not is_prime(3317044064679887385961981 - 1)
    for n in (3317044064679887385961981, 2 * 10 ** 30):
        with pytest.raises(ValueError):
            is_prime(n)


def test_factorization_of_large_levels():
    for p, q in [(999999937, 999999929), (1000000007, 999999893), (1000003, 1000033)]:
        assert p * q <= MAX_LEVEL
        assert squarefree_factorization(p * q) == tuple(sorted((p, q)))
    N = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    assert squarefree_factorization(N) == tuple(primes_upto(47))
    assert squarefree_factorization(10 ** 12 + 39) == (10 ** 12 + 39,)


@pytest.mark.parametrize("N, p", [
    (1000003 ** 2, 1000003),
    (1000003 ** 2 * 37, 1000003),
    (999999937 ** 2, 999999937),
    (43 ** 2 * 1000003 ** 2, 43),
])
def test_large_square_factors_are_found(N, p):
    with pytest.raises(NonSquarefree, match=f"divisible by {p}\\^2"):
        squarefree_factorization(N)


def test_level_cap():
    primes = squarefree_factorization(MAX_LEVEL - 9)
    assert math.prod(primes) == MAX_LEVEL - 9 and all(map(is_prime, primes))
    assert list(primes) == sorted(set(primes))
    with pytest.raises(NonSquarefree):
        squarefree_factorization(MAX_LEVEL)
    with pytest.raises(LevelTooLarge):
        squarefree_factorization(MAX_LEVEL + 1)


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
    "heegner_points": lambda N, l, p: _heegner_points_or_not_coprime(N),
}


def _heegner_points_or_not_coprime(N):
    # a level sharing a factor with 6 is factored, then refused
    try:
        qexp.heegner_points(N, -4)
    except LevelNotCoprimeTo6:
        assert math.gcd(N, 6) != 1


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


@pytest.mark.parametrize("N, error", [(37, None), (30030, "LevelNotCoprimeTo6"),
                                      (49, "NonSquarefree")])
def test_heegner_command_factors_once(count_calls, N, error):
    calls = count_calls(gamma0.squarefree_factorization)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["heegner", str(N), "--disc", "-4", "--format", "json"])
    assert calls == [(N,)]
    assert code == (0 if error is None else 1)
    assert json.loads(out.getvalue()).get("error") == error


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
