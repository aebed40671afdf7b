"""CLI contract: output schemas, canonical JSON round-trip, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import eischow
from eischow import disc
from eischow.cli import run
from eischow.gamma0 import MAX_LEVEL, is_prime

from conftest import extend_an


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json(capsys):
    code, out, _ = run_capture(capsys, ["invariants", "1", "--format", "json"])
    assert code == 0
    assert out == '{"N":1,"psi":1,"nu2":1,"nu3":1,"cusps":1,"genus":0}\n'


def test_omega_eis_json(capsys):
    code, out, _ = run_capture(
        capsys, ["omega-eis", "37", "--format", "json", "--precision", "8"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["symbolic"] == {"KAPPA": "288/19", "LOG(37)": "-1/3"}
    assert abs(obj["numeric"] - (-4.3426545350)) < 1e-8


def test_hecke_json(capsys):
    code, out, _ = run_capture(capsys, ["hecke", "37", "--l", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["shift"] == "6/19*LOG(2)"
    assert obj["self_adjoint"] is True
    assert obj["self_adjoint_zero_convention"] is True
    # the DINF column carries the shift in the F row
    f_row = obj["matrix"][obj["basis"].index("F")]
    assert f_row[obj["basis"].index("DINF")] == "6/19*LOG(2)"


def test_hecke_involution_json(capsys):
    code, out, _ = run_capture(capsys, ["hecke", "35", "--d", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["domain"] == ["F", "G(5)", "G(7)"]
    assert obj["involution_on_domain"] is True
    dinf_col = [row[obj["basis"].index("DINF")] for row in obj["matrix"]]
    assert all(e is None for e in dinf_col)


def test_heegner_json(capsys):
    code, out, _ = run_capture(capsys, ["heegner", "37", "--disc", "-4", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["roots"] == [12, 62]
    assert obj["count"] == obj["elliptic_count"] == 2


def test_gram_json_roundtrip(capsys):
    code, out, _ = run_capture(capsys, ["gram", "35", "--format", "json"])
    assert code == 0
    assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out


def test_json_is_byte_stable(capsys):
    for argv in (
        ["invariants", "210", "--format", "json"],
        ["omega-eis", "35", "--format", "json"],
        ["hecke", "35", "--l", "3", "--format", "json"],
        ["heegner", "37", "--disc", "-3", "--format", "json"],
    ):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out


def test_omega_f_command(capsys, eigenform_37_path):
    code, out, _ = run_capture(
        capsys, ["omega-f", "--eigenform", str(eigenform_37_path), "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "37a"
    assert obj["omega_f_sq"] < 0
    assert obj["h_i"] >= 0 and obj["h_j"] >= 0


def test_omega_f_command_level_131(capsys, tmp_path, f131):
    # exited 1 with QuadratureNotConverged while the Petersson quadrature
    # integrated the cusp strips numerically
    path = tmp_path / "eigenform_131a.jsonl"
    record = {"label": "131a", "level": 131, "weight": 2, "al_sign": 1, "an": list(f131.an)}
    path.write_text(json.dumps(record) + "\n")
    code, out, err = run_capture(capsys, ["omega-f", "--eigenform", str(path), "--format", "json"])
    assert code == 0, err
    assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == out
    obj = json.loads(out)
    assert obj["label"] == "131a" and obj["petersson"] > 0
    # both twisted central values vanish at 131a: omega_f^2 prints as 0.0, not -0.0
    assert '"omega_f_sq":0.0,' in out


# omega-f stdout on the conftest fixtures, byte for byte
_OMEGA_F_JSON = {
    "37a": (
        '{"label":"37a","level":37,"al_sign":1,"h_i":0.1022228164799375,'
        '"h_j":0.10222281647993756,"omega_f_sq":-0.9200053483194377,'
        '"l_chi4":2.4513893819867896,"l_chi3":2.830620639157329,'
        '"l_prime":0.3059997738340518,"petersson":0.3717541475106961}'
    ),
    "53a": (
        '{"label":"53a","level":53,"al_sign":1,"h_i":0.18596296927730843,"h_j":0.0,'
        '"omega_f_sq":-0.18596296927730843,"l_chi4":3.0811813402756583,"l_chi3":0.0,'
        '"l_prime":0.4358638241778575,"petersson":0.3658574230219819}'
    ),
    "131a": (
        '{"label":"131a","level":131,"al_sign":1,"h_i":0.0,"h_j":0.0,"omega_f_sq":0.0,'
        '"l_chi4":0.0,"l_chi3":0.0,"l_prime":0.9014647353357613,'
        '"petersson":0.31332470951311664}'
    ),
}


@pytest.mark.parametrize("label", sorted(_OMEGA_F_JSON))
def test_omega_f_json_bytes_are_pinned(capsys, tmp_path, eigenform_37_path, f53, f131, label):
    path = eigenform_37_path
    if label != "37a":
        f = {"53a": f53, "131a": f131}[label]
        path = tmp_path / f"{label}.jsonl"
        record = {"label": label, "level": f.level, "weight": 2, "al_sign": 1, "an": list(f.an)}
        path.write_text(json.dumps(record) + "\n")
    code, out, err = run_capture(capsys, ["omega-f", "--eigenform", str(path), "--format", "json"])
    assert code == 0, err
    assert out == _OMEGA_F_JSON[label] + "\n"


def test_verify_analysis(capsys, monkeypatch):
    code, out, _ = run_capture(capsys, ["verify-analysis", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["grid"] == {"radial": 16, "angular": 32}
    assert obj["tolerance"] == 1e-12

    # below round-off a check fails: the exit-1 output is still the full report
    monkeypatch.setattr(disc, "DEFAULT_TOL", 0.0)
    code, out, _ = run_capture(capsys, ["verify-analysis", "--format", "json"])
    assert code == 1
    failed = json.loads(out)
    assert failed["passed"] is False and failed["tolerance"] == 0.0
    assert [c["name"] for c in failed["checks"]] == [c["name"] for c in obj["checks"]]
    assert any(not c["passed"] for c in failed["checks"])


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [
    ["invariants", "37", "--format", "json"],
    ["invariants", "37"],
    ["invariants", "12", "--format", "json"],  # the error object meets the closed pipe
])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(eischow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, "-m", "eischow.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_domain_errors_exit_1(capsys, tmp_path):
    code, out, _ = run_capture(capsys, ["invariants", "12", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "NonSquarefree"

    code, out, _ = run_capture(capsys, ["omega-eis", "1", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "DegenerateGenus"

    code, out, _ = run_capture(capsys, ["hecke", "37", "--l", "37", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "BadHeckePrime"

    code, out, _ = run_capture(capsys, ["heegner", "15", "--disc", "-4", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "LevelNotCoprimeTo6"

    missing = tmp_path / "nope.jsonl"
    code, out, _ = run_capture(
        capsys, ["omega-f", "--eigenform", str(missing), "--format", "json"]
    )
    assert code == 1
    assert json.loads(out)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("l", [MAX_LEVEL + 3, 10 ** 28 + 9])
def test_hecke_prime_above_the_cap_exits_1(capsys, l):
    # 10^18 + 3 is prime, but LOG takes no prime above the cap; 10^28 + 9 is
    # beyond is_prime's range; both are refused by the cap before any test
    assert is_prime(MAX_LEVEL + 3)
    code, out, _ = run_capture(capsys, ["hecke", "37", "--l", str(l), "--format", "json"])
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "BadHeckePrime"
    assert str(MAX_LEVEL) in err["message"]
    # the largest prime at the cap still gets its operator
    code, out, _ = run_capture(capsys, ["hecke", "37", "--l", str(MAX_LEVEL - 11), "--format", "json"])
    assert code == 0, out


@pytest.mark.parametrize(
    "field, value",
    [("level", "37"), ("level", 37.0), ("weight", True), ("al_sign", "1"), ("an", [1, True])],
)
def test_omega_f_rejects_non_integer_fields(capsys, tmp_path, field, value):
    record = {"label": "x", "level": 37, "weight": 2, "al_sign": 1, "an": [1, -2, -3]}
    record[field] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, out, _ = run_capture(capsys, ["omega-f", "--eigenform", str(path), "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_gram_table(capsys):
    code, out, _ = run_capture(capsys, ["gram", "35"])
    assert code == 0
    assert out == (
        "Gram matrix at N=35 (convention: log)\n"
        "                 F        DINF        G(5)        G(7)\n"
        "     F           0     1/2*ONE           0           0\n"
        "  DINF     1/2*ONE     3*KAPPA      LOG(5)      LOG(7)\n"
        "  G(5)           0      LOG(5)  -16*LOG(5)           0\n"
        "  G(7)           0      LOG(7)           0  -16*LOG(7)\n"
    )


def test_table_format_default(capsys):
    code, out, _ = run_capture(capsys, ["invariants", "37"])
    assert code == 0
    assert "psi" in out and "38" in out


def test_usage_errors_exit_2():
    for argv in (
        [],
        ["no-such-command"],
        ["invariants"],
        ["hecke", "37"],
        ["hecke", "37", "--l", "2", "--d", "5"],
        ["heegner", "37"],
        ["invariants", "x"],
        # each subcommand takes only the numeric options it reads
        ["invariants", "37", "--precision", "3"],
        ["invariants", "37", "--tolerance", "5"],
        ["gram", "35", "--tolerance", "1e-3"],
        ["omega-eis", "37", "--tolerance", "1e-3"],
        ["hecke", "37", "--l", "2", "--precision", "3"],
        ["heegner", "37", "--disc", "-4", "--tolerance", "1e-3"],
        ["omega-f", "--eigenform", "x.jsonl", "--precision", "3"],
        ["verify-analysis", "--precision", "3"],
        # numeric options must be finite and positive
        ["omega-eis", "37", "--precision", "0"],
        ["omega-eis", "37", "--precision", "-1"],
        ["omega-eis", "37", "--precision", "2.5"],
        # verify-analysis takes no numeric option: its tolerance is disc.DEFAULT_TOL
        ["verify-analysis", "--tolerance", "nan"],
        ["verify-analysis", "--tolerance", "inf"],
        ["verify-analysis", "--tolerance", "0"],
        ["verify-analysis", "--tolerance", "1e-13"],
        ["verify-analysis", "--tolerance", "2e-9"],
        ["verify-analysis", "--tolerance", "1e-6"],
        ["verify-analysis", "--tolerance", "1e300"],
        ["omega-f", "--eigenform", "x.jsonl", "--tolerance", "-1"],
        # omega-f takes no numeric option
        ["omega-f", "--eigenform", "x.jsonl", "--tolerance", "1e-6"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def _37a_record(an):
    return {"label": "37a", "level": 37, "weight": 2, "al_sign": 1, "an": an}


def _beyond_bound_an(f37, p, a_p, count=40):
    """37a coefficients with a_p replaced, extended so that every structural
    check (normalization, multiplicativity, Hecke recursion) still passes."""
    ap = {q: f37.a(q) for q in range(2, count + 1) if is_prime(q)}
    ap[p] = a_p
    return extend_an(ap, count, 37)


def _a2_beyond_bound(f37, f11):
    # a_2 = 10^400 would overflow the float L-series sums
    return json.dumps(_37a_record(_beyond_bound_an(f37, 2, 10 ** 400)))


def _a225_off(f37, f11):
    # 225 = 3^2 5^2: the Hecke relation at 225 is its only check, and with a_225
    # raised by 10^6 omega_f^2 moved in the twelfth digit
    an = list(f37.an[:308])
    an[224] += 10 ** 6
    return json.dumps(_37a_record(an))


def _11a_flipped_sign(f37, f11):
    # the level-11 eta form with its Fricke sign flipped passes ingest; only
    # the functional-equation gate sees that its sign is wrong
    return json.dumps({"label": "11a", "level": 11, "weight": 2, "al_sign": 1,
                       "an": list(f11.an)})


def _30_digit_level(f37, f11):
    # above gamma0.MAX_LEVEL: refused before any primality test
    return json.dumps(dict(_37a_record(list(f37.an[:40])), level=10 ** 29 + 1))


@pytest.mark.parametrize(
    "text, error",
    [
        ("[" * 100_000, "ParseError"),
        ("5", "ParseError"),
        ('"label level weight al_sign an"', "ParseError"),
        (_a2_beyond_bound, "InvariantViolation"),
        (_a225_off, "InvariantViolation"),
        (_11a_flipped_sign, "WrongSign"),
        (_30_digit_level, "LevelTooLarge"),
        (b"\xff\xfe", "ParseError"),
    ],
    ids=["deep-nesting", "number-line", "string-line", "a2-beyond-bound", "a225-off",
         "11a-flipped-sign", "30-digit-level", "not-utf8"],
)
def test_omega_f_rejects_malformed_records(capsys, tmp_path, f37, f11, text, error):
    if callable(text):
        text = text(f37, f11)
    path = tmp_path / "bad.jsonl"
    if isinstance(text, bytes):
        path.write_bytes(text + b"\n")
    else:
        path.write_text(text + "\n")
    code, out, _ = run_capture(capsys, ["omega-f", "--eigenform", str(path), "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == error


# -- generated argv and eigenform files ---------------------------------------

NUMBER_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "0", "-1", "1e400", "1e-300", "1e-11", "1e-13", "x", ""]
    ),
    st.integers(-3, 15).map(str),
    st.floats(1e-12, 1e3).map(repr),
)


OWN_OPTION = {
    "omega-eis": "--precision",
}


@st.composite
def eigenform_texts(draw, valid_text, f37):
    """The valid 37a line, or one mutation of it."""
    kind = draw(st.sampled_from(["valid", "type_swap", "beyond_bound", "nesting", "truncated"]))
    if kind == "valid":
        return valid_text
    if kind == "type_swap":
        record = _37a_record(list(f37.an[:40]))
        field = draw(st.sampled_from([None, "label", "level", "weight", "al_sign", "an"]))
        value = draw(st.sampled_from(["37", 37.0, True, None, [], {}, -1, 11, [1]]))
        if field is None:
            return json.dumps(value)
        record[field] = value
        return json.dumps(record)
    if kind == "beyond_bound":
        p = draw(st.sampled_from([2, 3, 5, 7, 11, 37]))
        a_p = draw(st.one_of(st.integers(3, 100), st.just(10 ** 400)))
        a_p = max(a_p, int(2 * p ** 0.5) + 1) * draw(st.sampled_from([1, -1]))
        return json.dumps(_37a_record(_beyond_bound_an(f37, p, a_p)))
    if kind == "nesting":
        return "[" * draw(st.integers(1, 100_000))
    return valid_text[: draw(st.integers(0, len(valid_text) - 1))]


# levels past the uniform range: primes, a semiprime, a square, the cap and one past it
LARGE_LEVELS = [1000003, 1000003 * 1000033, 10 ** 12 + 39, 1000003 ** 2, MAX_LEVEL, MAX_LEVEL + 1]


@st.composite
def argvs(draw, eigenform_path, valid_text, f37):
    command = draw(st.sampled_from(
        ["invariants", "gram", "omega-eis", "hecke", "heegner", "omega-f", "verify-analysis"]
    ))
    argv = [command]
    if command in ("omega-f", "verify-analysis"):
        if command == "omega-f":
            eigenform_path.write_text(draw(eigenform_texts(valid_text, f37)) + "\n")
            argv += ["--eigenform", str(eigenform_path)]
    else:
        n = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.sampled_from(LARGE_LEVELS)))
        argv.append(str(n))
        if command == "hecke":
            flag = draw(st.sampled_from(["--l", "--d"]))
            argv += [flag, str(draw(st.one_of(st.integers(-10, 1000), st.just(n))))]
        elif command == "heegner":
            argv += ["--disc", draw(st.sampled_from(["-3", "-4"]))]
    # sometimes the subcommand's own numeric option, sometimes one it does not take
    option = draw(st.sampled_from(
        [None, None, OWN_OPTION.get(command), "--precision", "--tolerance"]
    ))
    if option is not None:
        argv += [option, draw(NUMBER_TEXT)]
    return argv + ["--format", "json"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, eigenform_37_path):
    return tmp_path_factory.mktemp("fuzz") / "form.jsonl", eigenform_37_path.read_text().strip()


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_every_input_ends_in_an_exit_code(fuzz_inputs, f37, data):
    """Exit 0 with canonical JSON, exit 1 with an error object (a failed
    report for verify-analysis), or exit 2 from argparse; nothing else escapes."""
    path, valid_text = fuzz_inputs
    argv = data.draw(argvs(path, valid_text, f37))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            event(f"{argv[0]} exit {exc.code}")
            assert exc.code == 2
            return
    event(f"{argv[0]} exit {code}")
    text = out.getvalue()
    obj = json.loads(text)
    assert json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n" == text
    if code == 0:
        assert "error" not in obj
    elif argv[0] == "verify-analysis":
        assert code == 1 and "error" not in obj and obj["passed"] is False
    else:
        assert code == 1 and set(obj) == {"error", "message"}
