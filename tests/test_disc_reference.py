"""Disc closed forms against a second route: the hand-written callables.

The term-sum rules of ``eischow.disc`` (derivatives, pull-back along
z -> z^n, push-forward as the root sum) are compared, at random points of
the punctured disc, with callables that spell each function and its
derivatives out by hand and compose them by the chain rule and the sum
over the n-th roots.  A float evaluator of term sums makes the two
comparable; derivatives of random term sums are also checked against
central differences.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eischow.disc import (
    ClosedForm,
    cf_abs2,
    cf_bump_times_z,
    cf_coordinate,
    cf_one_minus_abs2,
    cf_re,
    pullback_pow,
    pushforward_pow,
)


def evaluate(f: ClosedForm, z):
    """f at the points z (none at 0): each term is c r^(a+b) (log r^2)^k e^{i(a-b)theta}."""
    z = np.asarray(z, dtype=complex)
    r, theta = np.abs(z), np.angle(z)
    value = np.zeros_like(z)
    for (a, b, k), c in f.terms:
        value += float(c) * r ** float(a + b) * np.log(r * r) ** k * np.exp(1j * float(a - b) * theta)
    return value


# value, d/dz, d/dzbar and d^2/dz dzbar, each an elementwise callable
Reference = namedtuple("Reference", "value dz dzbar dzdzbar")

REFERENCES = {
    "1-|z|^2": (cf_one_minus_abs2(), Reference(
        value=lambda z: 1.0 - np.abs(z) ** 2,
        dz=lambda z: -np.conj(z),
        dzbar=lambda z: -z,
        dzdzbar=lambda z: -np.ones_like(z),
    )),
    "z": (cf_coordinate(), Reference(
        value=lambda z: z,
        dz=lambda z: np.ones_like(z),
        dzbar=lambda z: np.zeros_like(z),
        dzdzbar=lambda z: np.zeros_like(z),
    )),
    "|z|^2": (cf_abs2(), Reference(
        value=lambda z: (np.abs(z) ** 2).astype(complex),
        dz=lambda z: np.conj(z),
        dzbar=lambda z: z,
        dzdzbar=lambda z: np.ones_like(z),
    )),
    "z(1-|z|^2)": (cf_bump_times_z(), Reference(
        value=lambda z: z * (1.0 - np.abs(z) ** 2),
        dz=lambda z: 1.0 - 2.0 * z * np.conj(z),
        dzbar=lambda z: -(z ** 2),
        dzdzbar=lambda z: -2.0 * z,
    )),
    "Re z": (cf_re(), Reference(
        value=lambda z: (z + np.conj(z)) / 2.0,
        dz=lambda z: np.full_like(z, 0.5),
        dzbar=lambda z: np.full_like(z, 0.5),
        dzdzbar=lambda z: np.zeros_like(z),
    )),
    "-log|z|^2": (ClosedForm({(0, 0, 1): -1}), Reference(
        value=lambda z: -np.log(np.abs(z) ** 2).astype(complex),
        dz=lambda z: -1.0 / z,
        dzbar=lambda z: -1.0 / np.conj(z),
        dzdzbar=lambda z: np.zeros_like(z),  # harmonic off the origin
    )),
}


def reference_pullback(f: Reference, n: int) -> Reference:
    """f(z^n) with its derivatives by the chain rule."""
    return Reference(
        value=lambda z: f.value(z ** n),
        dz=lambda z: n * z ** (n - 1) * f.dz(z ** n),
        dzbar=lambda z: n * np.conj(z) ** (n - 1) * f.dzbar(z ** n),
        dzdzbar=lambda z: n ** 2 * np.abs(z) ** (2 * (n - 1)) * f.dzdzbar(z ** n),
    )


def reference_pushforward(g: Reference, n: int) -> Reference:
    """The sum of g over the n-th roots u of w, on the principal branch
    u = w^(1/n) (the sum does not depend on the branch), with du/dw = u/(n w);
    the root sum carries no mixed second derivative."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)

    def value(w):
        u = w ** (1.0 / n)
        return sum(g.value(rho * u) for rho in roots)

    def dz(w):
        u = w ** (1.0 / n)
        du = u / (n * w)
        return sum(g.dz(rho * u) * rho * du for rho in roots)

    def dzbar(w):
        u = w ** (1.0 / n)
        du = u / (n * w)
        return sum(g.dzbar(rho * u) * np.conj(rho * du) for rho in roots)

    return Reference(value=value, dz=dz, dzbar=dzbar, dzdzbar=None)


def _points(count=200, seed=20261022):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 1.0, count)
    return r * np.exp(1j * rng.uniform(-np.pi, np.pi, count))


def _assert_agrees(form: ClosedForm, reference: Reference, z):
    pairs = [(form, reference.value), (form.dz, reference.dz), (form.dzbar, reference.dzbar)]
    if reference.dzdzbar is not None:
        pairs.append((form.dzbar.dz, reference.dzdzbar))
    for derived, fn in pairs:
        expected = np.asarray(fn(z), dtype=complex)
        assert np.max(np.abs(evaluate(derived, z) - expected) / np.maximum(1.0, np.abs(expected))) < 1e-13


@pytest.mark.parametrize("name", REFERENCES)
def test_forms_and_derivatives_match_the_hand_written_callables(name):
    form, reference = REFERENCES[name]
    _assert_agrees(form, reference, _points())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", REFERENCES)
def test_pull_and_push_match_the_chain_rule_and_the_root_sum(name, n):
    form, reference = REFERENCES[name]
    z = _points()
    _assert_agrees(pullback_pow(form, n), reference_pullback(reference, n), z)
    _assert_agrees(pushforward_pow(form, n), reference_pushforward(reference, n), z)


# a term c z^a zbar^b (log|z|^2)^k as (b, a - b, k): any rational b and integer a - b
TERMS = st.dictionaries(
    st.tuples(st.fractions(-1, 2, max_denominator=3), st.integers(-2, 2), st.integers(0, 2)),
    st.fractions(-3, 3, max_denominator=5),
    max_size=4,
).map(lambda terms: ClosedForm({(b + m, b, k): c for (b, m, k), c in terms.items()}))


@settings(max_examples=60, deadline=None)
@given(f=TERMS, r=st.floats(0.5, 0.9), theta=st.floats(-math.pi, math.pi))
def test_derivative_rules_match_central_differences(f, r, theta):
    z, h = r * complex(math.cos(theta), math.sin(theta)), 1e-5
    dx = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
    dy = (evaluate(f, z + 1j * h) - evaluate(f, z - 1j * h)) / (2 * h)
    # d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2
    for derived, numeric in ((f.dz, (dx - 1j * dy) / 2), (f.dzbar, (dx + 1j * dy) / 2)):
        exact = evaluate(derived, z)
        assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None)
@given(f=TERMS, n=st.integers(1, 5))
def test_pushforward_of_pullback_is_the_degree(f, n):
    # phi_* phi^* = deg phi, exactly
    assert pushforward_pow(pullback_pow(f, n), n) == n * f
    assert pullback_pow(f, 1) == pushforward_pow(f, 1) == f
    assert f.conj().conj() == f and (f * f.conj()).conj() == f * f.conj()
