"""CLI contract: output schemas, canonical JSON round-trip, exit codes."""

import json

import pytest

from eischow.cli import run


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


def test_verify_analysis(capsys):
    code, out, _ = run_capture(capsys, ["verify-analysis", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True


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
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
