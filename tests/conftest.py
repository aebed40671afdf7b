"""Shared fixtures: the internal level-11 form and generated level-37,
level-53 and level-131 rank-one datasets.

The level-37 coefficients are produced by counting points on the rank-one
optimal quotient of J_0(37), the curve y^2 + y = x^3 - x of conductor 37,
and extending multiplicatively; the level-53 form comes from
y^2 + xy + y = x^3 - x^2 and the level-131 form from
y^2 + y = x^3 - x^2 + x the same way.  The generator is the test suite's
oracle for an "ingested" dataset: the package itself never fabricates
eigenforms, and the ingest path re-validates every structural invariant
(a_1 = 1, multiplicativity, Hecke recursion) before the data is used.  A handful of
point-counted a_p are additionally frozen here as literals so that a bug in
the generator cannot silently propagate.
"""

import importlib
import json
import pkgutil
import sys

import pytest

import eischow
from eischow import EtaQuotient, eta_expand
from eischow.lseries import EigenformData, from_qexpansion, ingest

COEFF_COUNT = 2400

# Weierstrass models [a1, a2, a3, a4, a6] of discriminant +-N
CURVE_37A = (0, 0, 1, -1, 0)  # y^2 + y = x^3 - x
CURVE_53A = (1, -1, 1, 0, 0)  # y^2 + xy + y = x^3 - x^2
CURVE_131A = (0, -1, 1, 1, 0)  # y^2 + y = x^3 - x^2 + x

# frozen by the point-count oracle below (and the Hecke recursion)
FROZEN_37A_AP = {2: -2, 3: -3, 5: -2, 7: -1, 11: -5, 13: -2, 17: 0, 19: 0, 23: 2, 29: 6}


def _primes_upto(m):
    sieve = [True] * (m + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(m ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, flag in enumerate(sieve) if flag]


def _ap_weierstrass(a, p):
    """a_p = p - #{affine points} of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6
    over F_p, counting every affine point (at the bad prime the node once,
    which gives a_p = +1 or -1)."""
    a1, a2, a3, a4, a6 = a
    if p == 2:
        cnt = sum(
            1 for x in range(2) for y in range(2)
            if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0
        )
        return p - cnt
    cnt = 0
    for x in range(p):
        # (2y + a1 x + a3)^2 = d has 1 + (d / p) solutions
        d = ((a1 * x + a3) ** 2 + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % p
        sym = pow(d, (p - 1) // 2, p) if d else 0
        cnt += 1 + (1 if sym == 1 else (-1 if sym == p - 1 else 0))
    return p - cnt


def extend_an(ap, count, level):
    """a_1..a_count from the a_p (p <= count) by multiplicativity and the
    Hecke recursion at prime powers (a_{p^k} = a_p a_{p^(k-1)} at p = level)."""
    a = [0] * (count + 1)
    a[1] = 1
    primes = sorted(ap)
    for n in range(2, count + 1):
        p = next(q for q in primes if n % q == 0)
        m = n // p
        if m % p or p == level:
            a[n] = ap[p] * a[m]
        else:
            a[n] = ap[p] * a[m] - p * a[m // p]
    return a[1:]


def make_37a_an(count=COEFF_COUNT):
    ap = {p: _ap_weierstrass(CURVE_37A, p) for p in _primes_upto(count)}
    for p, expected in FROZEN_37A_AP.items():
        assert ap[p] == expected, f"point count disagrees with frozen a_{p}"
    return extend_an(ap, count, 37)


@pytest.fixture(scope="session")
def eigenform_37_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "eigenform_37a.jsonl"
    record = {
        "label": "37a",
        "level": 37,
        "weight": 2,
        "al_sign": 1,
        "an": make_37a_an(),
    }
    path.write_text(json.dumps(record) + "\n")
    return path


@pytest.fixture(scope="session")
def f37(eigenform_37_path) -> EigenformData:
    return ingest(eigenform_37_path)


@pytest.fixture(scope="session")
def f53() -> EigenformData:
    """The rank-one form of level 53, with enough coefficients for its
    Petersson cutoff (448)."""
    count = 600
    ap = {p: _ap_weierstrass(CURVE_53A, p) for p in _primes_upto(count)}
    return EigenformData(label="53a", level=53, weight=2, al_sign=1,
                         an=tuple(extend_an(ap, count, 53)), source="ingested")


@pytest.fixture(scope="session")
def f131() -> EigenformData:
    """The rank-one form of level 131, with enough coefficients for its
    Petersson cutoff (1151)."""
    count = 1200
    ap = {p: _ap_weierstrass(CURVE_131A, p) for p in _primes_upto(count)}
    return EigenformData(label="131a", level=131, weight=2, al_sign=1,
                         an=tuple(extend_an(ap, count, 131)), source="ingested")


@pytest.fixture(scope="session")
def f11() -> EigenformData:
    q = eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 400)
    return from_qexpansion(q, label="11a", al_sign=-1)


@pytest.fixture
def count_calls(monkeypatch):
    """Replace a package function, wherever a module binds it, by a counting
    wrapper; returns the list of argument tuples it was called with.

    Every submodule is imported first: the numpy layers load lazily, and one
    first imported while the wrapper is installed would keep it for good.
    """
    for info in pkgutil.iter_modules(eischow.__path__):
        importlib.import_module(f"eischow.{info.name}")

    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "eischow" or name.startswith("eischow.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
