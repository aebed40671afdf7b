"""L-values, the Lambda-symmetry arbiter, Petersson norm, omega_f^2."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from eischow.errors import (
    EischowError,
    InsufficientCoefficients,
    InvariantViolation,
    ParseError,
    WrongSign,
)
from eischow import lseries
from eischow.gamma0 import primes_upto
from eischow.lseries import (
    SERIES_TOL,
    SPECIAL_SWITCH,
    EigenformData,
    _coefficient_cutoff,
    _completed_lambdas,
    _exp1,
    _petersson_once,
    _series_terms,
    _strip,
    _upper_gamma,
    central_series_tail,
    chi,
    completed_lambda,
    ingest,
    l_derivative,
    l_value,
    lambda_symmetry_residual,
    omega_f_sq,
    petersson,
)

from conftest import extend_an


# -- ingestion ---------------------------------------------------------------


def test_ingest_accepts_eta_generated_data(tmp_path, f11):
    path = tmp_path / "f11.jsonl"
    record = {
        "label": "11a",
        "level": 11,
        "weight": 2,
        "al_sign": -1,
        "an": list(f11.an[:100]),
    }
    path.write_text(json.dumps(record) + "\n")
    g = ingest(path)
    assert g.source == "ingested"
    assert g.an == f11.an[:100]
    assert f11.source == "eta-generated"


def test_ingest_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"label": "x", "level": 37, "weight": 2,
                                "al_sign": 1, "an": [2, 1, 1]}) + "\n")
    with pytest.raises(InvariantViolation) as exc:
        ingest(path)
    assert exc.value.index == 1


def test_ingest_rejects_nonmultiplicative(tmp_path, f37):
    an = list(f37.an[:30])
    an[5] = an[1] * an[2] + 1  # break a_6 = a_2 a_3
    path = tmp_path / "bad6.jsonl"
    path.write_text(json.dumps({"label": "x", "level": 37, "weight": 2,
                                "al_sign": 1, "an": an}) + "\n")
    with pytest.raises(InvariantViolation) as exc:
        ingest(path)
    assert exc.value.index == 6


def test_ingest_schema_errors(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ParseError):
        ingest(path)
    path.write_text(json.dumps({"label": "x", "level": 37, "weight": 2}) + "\n")
    with pytest.raises(ParseError):
        ingest(path)
    path.write_text(json.dumps({"label": "x", "level": 36, "weight": 2,
                                "al_sign": 1, "an": [1]}) + "\n")
    with pytest.raises(ParseError):
        ingest(path)


def test_ingest_names_file_and_byte_offset_of_non_utf8(tmp_path, f37):
    record = json.dumps({"label": "x", "level": 37, "weight": 2, "al_sign": 1,
                         "an": list(f37.an[:50])})
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(record.encode() + b"\n\xff\xfe\n")
    with pytest.raises(ParseError) as exc:
        ingest(path)
    assert str(exc.value) == f"{path}: not UTF-8 at byte offset {len(record) + 1}"


def test_ingest_label_selection(tmp_path, f37):
    rec1 = {"label": "a", "level": 37, "weight": 2, "al_sign": 1, "an": list(f37.an[:50])}
    rec2 = {"label": "b", "level": 37, "weight": 2, "al_sign": -1, "an": list(f37.an[:50])}
    path = tmp_path / "two.jsonl"
    path.write_text(json.dumps(rec1) + "\n" + json.dumps(rec2) + "\n")
    assert ingest(path).label == "a"
    assert ingest(path, label="b").al_sign == -1
    with pytest.raises(ParseError):
        ingest(path, label="c")


# -- the character ------------------------------------------------------------


def test_chi_examples():
    assert chi(-4, 5) == 1
    assert chi(-4, 2) == 0
    assert chi(-3, 5) == -1
    # oracle: squares mod 3 are {0, 1}, so -3 is a non-residue pattern at 5
    assert all((x * x) % 3 in (0, 1) for x in range(3))
    assert chi(-4, -1) == -1 and chi(-3, -1) == -1  # both characters are odd


@given(
    disc=st.sampled_from([-3, -4]),
    m=st.integers(min_value=-200, max_value=200),
    n=st.integers(min_value=-200, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_chi_completely_multiplicative(disc, m, n):
    assert chi(disc, m * n) == chi(disc, m) * chi(disc, n)


# -- L-values ------------------------------------------------------------------


def test_l_value_vanishes_at_odd_sign(f37):
    assert l_value(f37) == 0.0


def test_l_value_f11_doubling_stability(f11):
    # sign is +1 for al_sign = -1; compare explicit truncations
    c = 2.0 * math.pi / math.sqrt(11)

    def partial(m):
        return 2.0 * math.fsum(f11.an[n - 1] / n * math.exp(-c * n) for n in range(1, m + 1))

    v = l_value(f11)
    assert abs(partial(80) - partial(160)) < 1e-8
    assert abs(v - partial(160)) < 1e-8
    assert v > 0.2  # rank zero: central value visibly nonzero


def test_l_value_twist_defined_with_empty_heegner(f11):
    # X_0(11) has no discriminant -4 Heegner points, the L-value exists anyway
    assert l_value(f11, twist=-4) != 0.0


def test_l_value_insufficient_coefficients(f11):
    short = f11.truncated(5)
    with pytest.raises(InsufficientCoefficients) as exc:
        l_value(short, twist=-4)
    assert exc.value.required > 5


def test_l_derivative_value_and_stability(f37):
    exp1 = pytest.importorskip("scipy.special").exp1
    c = 2.0 * math.pi / math.sqrt(37)

    def partial(m):
        n = np.arange(1, m + 1)
        an = np.array(f37.an[:m], dtype=float)
        return float(2.0 * np.sum(an / n * exp1(c * n)))

    v = l_derivative(f37)
    assert abs(partial(100) - partial(200)) < 1e-8
    assert abs(v - partial(200)) < 1e-8
    assert l_derivative(f37) == v  # deterministic


def test_l_derivative_matches_scipy_exp1(f37, f53):
    exp1 = pytest.importorskip("scipy.special").exp1
    for f in (f37, f53):
        c = 2.0 * math.pi / math.sqrt(f.level)
        n = np.arange(1, _series_terms(f, f.level) + 1)
        reference = float(2.0 * np.sum(np.array(f.an[: n.size], dtype=float) / n * exp1(c * n)))
        assert abs(l_derivative(f) - reference) <= 1e-14 * abs(reference)


def test_l_derivative_wrong_sign(f11):
    with pytest.raises(WrongSign):
        l_derivative(f11)


# -- special functions ---------------------------------------------------------

# both sides of each switch point, and far into each branch
_GRID = np.concatenate([np.geomspace(1e-3, 60.0, 400), [SPECIAL_SWITCH]])


def test_exp1_value_at_one():
    # DLMF 6.6: E_1(1) = 0.21938 39343 95520 27...
    assert abs(_exp1(1.0) - 0.21938393439552027) <= 2e-16


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0, 1.25, 1.5])
def test_special_functions_continuous_at_switch(s):
    # the largest x on the series side and the smallest on the fraction side
    # differ by one ulp, so their values may differ only by round-off
    below, above = SPECIAL_SWITCH, np.nextafter(SPECIAL_SWITCH, 2.0)
    for fn in (_exp1, lambda x: _upper_gamma(s, x)):
        lo, hi = fn(np.array([below]))[0], fn(np.array([above]))[0]
        assert abs(lo - hi) <= 2e-15 * lo


def test_upper_gamma_at_one_is_exp():
    assert np.max(np.abs(_upper_gamma(1.0, _GRID) / np.exp(-_GRID) - 1.0)) <= 4e-15


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75])
def test_upper_gamma_recurrence(s):
    # Gamma(s + 1, x) = s Gamma(s, x) + x^s e^{-x}  (DLMF 8.8.2)
    lhs = _upper_gamma(s + 1.0, _GRID)
    rhs = s * _upper_gamma(s, _GRID) + _GRID ** s * np.exp(-_GRID)
    assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-14


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0, 1.25, 1.5])
def test_special_functions_match_scipy(s):
    special = pytest.importorskip("scipy.special")
    assert np.max(np.abs(_exp1(_GRID) / special.exp1(_GRID) - 1.0)) <= 1e-13
    reference = special.gammaincc(s, _GRID) * special.gamma(s)
    assert np.max(np.abs(_upper_gamma(s, _GRID) / reference - 1.0)) <= 1e-13


# -- completed function and the sign arbiter -----------------------------------


def test_lambda_symmetry(f37, f11):
    for f in (f37, f11):
        for t in (0.05, 0.1):
            assert lambda_symmetry_residual(f, t) < 1e-8


def test_lambda_symmetry_detects_wrong_sign(f37):
    flipped = EigenformData(
        label=f37.label, level=f37.level, weight=2,
        al_sign=-f37.al_sign, an=f37.an, source=f37.source,
    )
    assert lambda_symmetry_residual(flipped, 0.1) > 1e-5


def test_completed_lambda_refuses_too_few_coefficients(f37):
    # 37a cut to 20 coefficients read a residual of 4.0e-8 when the sum was
    # cut silently, which looked like a wrong sign; split 1.3 needs 58 terms
    short = f37.truncated(20)
    with pytest.raises(InsufficientCoefficients) as exc:
        lambda_symmetry_residual(short, 0.25)
    assert exc.value.required == 58
    with pytest.raises(InsufficientCoefficients):
        completed_lambda(short, 1.25)
    assert lambda_symmetry_residual(f37.truncated(58), 0.25) <= 1e-10


def test_lambda_split_independence(f37):
    # the value of Lambda(s) must not depend on the split point
    a = _completed_lambdas(f37, [1.1], 1.0)[0]
    b = _completed_lambdas(f37, [1.1], 1.4)[0]
    assert abs(a - b) < 1e-10


# -- Petersson norm --------------------------------------------------------------


def test_petersson_zero_form():
    zero = EigenformData(label="0", level=37, weight=2, al_sign=1,
                         an=(0,) * 50, source="ingested")
    assert petersson(zero) == 0.0


def test_petersson_positive_and_converged(f11, f37, f53, f131):
    # doubling the quadrature order from the default moves the value by at
    # most 6e-16 relative on 11a and on every catalog form
    for f in (f11, f37, f53, f131):
        fine = petersson(f)
        finer = _petersson_once(f, 48)
        assert fine > 0.0
        assert abs(finer - fine) < 1e-13 * finer


def test_petersson_temporaries_stay_bounded():
    # at N = 1009 one row of x-nodes folds 24 x 1009 complex values, about
    # 0.4 MB; all nodes at once would take ~9 MB per temporary
    N = 1009
    cutoff = _coefficient_cutoff(math.sqrt(3.0) / (2.0 * N))
    assert cutoff <= 9.6 * N
    an = tuple(1 + n % 3 for n in range(int(9.6 * N)))
    f = EigenformData(label="big", level=N, weight=2, al_sign=1, an=an, source="ingested")
    tracemalloc.start()
    try:
        value = _petersson_once(f, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 4 * 2 ** 20


def _petersson_by_translates(f, quad_order, low, tops):
    """Reference pass over {|x| <= 1/2, low(x) <= y}: Gauss-Legendre in x,
    and in y up to tops[0] (order quad_order) for |f(z)|^2 and up to tops[1]
    (order 2 quad_order) for the N translates, with f evaluated at every
    translate (z+j)/N, one Horner per x-node, the N values squared and
    summed directly.  Returns the level-one part and the translate part."""

    def gauss(n, lo, hi):
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w

    def f_values(an, z):
        q = np.exp(2j * np.pi * z)
        out = np.zeros_like(q)
        for a in an[::-1]:
            out = out * q + a
        return out * q

    N = f.level
    an = np.array(f.an[:_coefficient_cutoff(math.sqrt(3.0) / (2.0 * N))], dtype=float)
    xs, wx = gauss(quad_order, -0.5, 0.5)
    level_one = translates = 0.0
    for x, w in zip(xs, wx):
        ys, wy = gauss(quad_order, low(x), tops[0])
        level_one += w * float(np.sum(wy * np.abs(f_values(an, x + 1j * ys)) ** 2))
        ys2, wy2 = gauss(2 * quad_order, low(x), tops[1])
        z = (x + 1j * ys2)[:, None] + np.arange(N)[None, :]
        vals = np.abs(f_values(an, z / N)) ** 2
        translates += w * float(np.sum(wy2 * np.sum(vals, axis=1))) / N ** 2
    return level_one, translates


def _arc(x):
    return math.sqrt(1.0 - x * x)


def _strips(f):
    """The closed-form level-one and translate strips above y = 1."""
    an = np.array(f.an[:_coefficient_cutoff(math.sqrt(3.0) / (2.0 * f.level))], dtype=float)
    return _strip(an, 1.0), _strip(an, 1.0 / f.level)


def test_petersson_strips_match_quadrature(f37):
    # Parseval's strips above y = 1 against a 2-D Gauss quadrature of the
    # same strips, cut at heights 8 and 3N, where the tails are 6e-39 and
    # 1e-17 of the strips
    N = f37.level
    quadrature = _petersson_by_translates(f37, 64, lambda x: 1.0, (8.0, 3.0 * N))
    for closed, numeric in zip(_strips(f37), quadrature):
        assert abs(closed - numeric) <= 1e-12 * numeric


@pytest.mark.parametrize("level", [11, 37, 53])
@pytest.mark.parametrize("order", [24, 48])
def test_petersson_fold_matches_translate_sum(level, order, f11, f37, f53):
    # the Parseval fold over Z/N on F_low against the direct sum over all N
    # translates there, plus the two strips above y = 1
    f = {11: f11, 37: f37, 53: f53}[level]
    folded = _petersson_once(f, order)
    direct = sum(_petersson_by_translates(f, order, _arc, (1.0, 1.0))) + sum(_strips(f))
    assert abs(folded - direct) <= 1e-14 * direct


# order-384 values of the full-domain quadrature truncated at Im z = 8 and 3N
_PETERSSON_384 = {37: 0.37175414751016544, 53: 0.36585742302129565, 131: 0.3133247095119911}


def test_petersson_matches_pinned_references(f37, f53, f131):
    for f in (f37, f53, f131):
        reference = _PETERSSON_384[f.level]
        assert abs(petersson(f) - reference) <= 1e-11 * reference


def test_petersson_builds_each_gauss_rule_once_per_pass(f37, count_calls):
    calls = count_calls(leggauss)
    petersson(f37)
    # two passes (orders 12 and 24), each with one rule for x and y alike
    assert sorted(calls) == [(12,), (24,)]


def test_petersson_rejects_hopeless_order(f11, f37, f53, f131, monkeypatch):
    # the half-order pass moves the value by 1e-5 at order 8 and 2e-10 at
    # order 16; at the default order 24 it moves it by at most 6e-15
    from eischow.errors import QuadratureNotConverged

    for f in (f11, f37, f53, f131):
        coarse = _petersson_once(f, lseries.PETERSSON_ORDER // 2)
        assert abs(petersson(f) - coarse) <= 1e-14 * coarse
    for order in (8, 16):
        monkeypatch.setattr(lseries, "PETERSSON_ORDER", order)
        for f in (f11, f37, f53, f131):
            with pytest.raises(QuadratureNotConverged):
                petersson(f)


def test_petersson_refuses_too_few_coefficients(f37):
    # cut to 120 coefficients, 37a gave omega_f^2 wrong in the 11th digit when
    # the q-expansion was cut silently; its cutoff at Im z = sqrt(3)/74 is 308
    with pytest.raises(InsufficientCoefficients) as exc:
        petersson(f37.truncated(120))
    assert exc.value.required == 308
    assert petersson(f37.truncated(308)) == petersson(f37)


# -- omega_f^2 --------------------------------------------------------------------


def test_omega_f_sq_level_37(f37):
    res = omega_f_sq(f37)
    assert res.omega_f_sq < 0.0
    assert all(math.isfinite(v) for v in res.to_json_obj().values())
    assert res.h_i >= 0.0 and res.h_j >= 0.0
    # invariant: minus a square
    assert res.omega_f_sq == -((math.sqrt(res.h_i) + 2 * math.sqrt(res.h_j)) ** 2)
    assert res.l_prime == l_derivative(f37)


def test_omega_f_sq_converges_from_level_53(f53, f131):
    # both raised QuadratureNotConverged at the defaults before the strips
    # above y = 1 were taken in closed form
    for f in (f53, f131):
        res = omega_f_sq(f)
        # at 131a both twisted central values vanish, so omega_f^2 is 0
        assert res.omega_f_sq <= 0.0 and res.petersson > 0.0
        assert all(math.isfinite(v) for v in res.to_json_obj().values())


def test_omega_f_sq_wrong_sign(f11):
    with pytest.raises(WrongSign):
        omega_f_sq(f11)


@pytest.mark.xfail(strict=True, reason=(
    "the Lambda-symmetry sign gate misses a wrong a_p from p = 23 up on 37a: "
    "residual 9.75e-10 < SIGN_GATE_TOL, and omega_f^2 = -0.919938 instead of -0.920005"))
def test_omega_f_sq_refuses_37a_with_a23_off_by_one(f37):
    # a_23 = 3 instead of 2 keeps the Hasse bound, multiplicativity and the
    # Hecke recursion, so the file passes ingest; only a gate can refuse it
    count = len(f37.an)
    ap = {p: f37.a(p) for p in primes_upto(count)}
    assert ap[23] == 2
    ap[23] = 3
    mutant = EigenformData(label="37a", level=37, weight=2, al_sign=f37.al_sign,
                           an=tuple(extend_an(ap, count, 37)), source="ingested")
    assert mutant.a(23) == 3 and mutant.a(46) == -6
    with pytest.raises(EischowError):
        omega_f_sq(mutant)


def test_omega_f_sq_height_combination():
    from eischow.errors import NegativeHeightBeyondTolerance
    from eischow.lseries import _combine_heights

    *_, zero = _combine_heights(0.0, 0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    # the clamped heights come back with the value
    assert _combine_heights(-1e-12, 4.0) == (0.0, 4.0, -16.0)
    with pytest.raises(NegativeHeightBeyondTolerance):
        _combine_heights(-1e-3, 0.0)


# -- tail bounds --------------------------------------------------------------


# the series length for each catalog level and twist (none, -3, -4)
_SERIES_LENGTHS = {
    37: (28, 87, 118), 43: (30, 94, 127), 53: (34, 105, 142), 61: (36, 113, 152),
    79: (42, 129, 174), 83: (43, 133, 178), 101: (47, 147, 198), 131: (54, 168, 226),
}


def test_tail_bounds_monotone_and_honest(f37):
    for level, lengths in _SERIES_LENGTHS.items():
        for twist, expected in zip((1, -3, -4), lengths):
            cond = level * twist * twist
            m = _series_terms(f37, cond)
            assert m == expected
            # the smallest M whose certified tail meets the tolerance
            assert central_series_tail(cond, m) <= SERIES_TOL < central_series_tail(cond, m - 1)
    with pytest.raises(InsufficientCoefficients) as exc:
        _series_terms(f37.truncated(100), 37 * 16)
    assert exc.value.required == 118

    bounds = [central_series_tail(37 * 16, m) for m in (20, 40, 80, 160)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    # successive truncations differ by less than the larger bound
    c = 2.0 * math.pi / math.sqrt(37 * 16)

    def partial(m):
        return 2.0 * math.fsum(
            f37.an[n - 1] * chi(-4, n) / n * math.exp(-c * n) for n in range(1, m + 1)
        )

    for m in (20, 40, 80):
        assert abs(partial(m) - partial(2 * m)) < central_series_tail(37 * 16, m)
