import json
import subprocess
import sys

import pytest

from finsetrep.cli import main
from finsetrep import facalc as fc
from finsetrep import symrep as sr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simple_eval_tsv(capsys):
    code, out, _ = run_cli(capsys, "simple-eval", "C", "2", "--t", "3")
    assert code == 0
    assert out.splitlines() == ["3\t(3)\t1", "3\t(2,1)\t1"]


def test_simple_eval_json(capsys):
    code, out, _ = run_cli(
        capsys, "simple-eval", "L", "1", "--t", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"values": [[3, "(2,1)", 1]]}


def test_decompose_pfin(capsys):
    code, out, _ = run_cli(capsys, "decompose-pfin", "2,1")
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows == {"S(2,1)(Pbar)": "1", "S(2)(Pbar)": "1", "Lambda^2(PFA)": "1"}


def test_structure_kfi(capsys):
    code, out, _ = run_cli(capsys, "structure-kfi", "2")
    assert code == 0
    assert set(out.splitlines()) == {"Lambda^2(PFA)\t1", "C(2)\t1"}


def test_hom_command(capsys):
    code, out, _ = run_cli(
        capsys, "hom", "--from", "pbar:2", "--to", "pbar:1", "--trunc", "4"
    )
    assert code == 0
    assert out.strip() == "dimension\t0"


def test_groth_command(capsys):
    code, out, _ = run_cli(
        capsys, "groth", "--identity", "W", "--k", "4", "--trunc", "9",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "idempotent", "--max-size", "4")
    assert code == 0
    assert "pass" in out
    code, _, err = run_cli(capsys, "verify", "--suite", "nope", "--max-size", "3")
    assert code == 1
    assert "unknown suite" in err


def test_invalid_inputs_exit_1(capsys):
    code, _, err = run_cli(capsys, "simple-eval", "C", "zzz", "--t", "3")
    assert code == 1 and err
    code, _, err = run_cli(capsys, "decompose-pfin", "")
    assert code == 1
    code, _, err = run_cli(capsys, "hom", "--from", "wat:3", "--to", "pbar:1")
    assert code == 1


def test_multiplicities_round_trip(tmp_path, capsys):
    data = fc.FBModuleData(
        5, 1, {k: sr.trivial_class(k) for k in range(1, 6)}
    )
    path = tmp_path / "const.json"
    path.write_text(json.dumps(data.to_json()))
    code, out, _ = run_cli(capsys, "multiplicities", "--input", str(path))
    assert code == 0
    assert set(out.splitlines()) == {"k0\t1", "L0\t1"}


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"trunc": "x", "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        {"trunc": "x", "F0_dim": 1, "degrees": {}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": "z"}]}}},
        {"trunc": 2, "F0_dim": 1, "degrees": {"1": 5}},
        {"trunc": 2, "F0_dim": 1, "degrees": 4},
    ],
)
def test_multiplicities_bad_input_types_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "multiplicities", "--input", str(path))
    assert code == 1
    assert out == ""
    assert "bad input file" in json.loads(err)["error"]


def test_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "groth", "--max-size", "8",
            "--seed", "42", "--format", "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_counterexample_exits_2(capsys, monkeypatch):
    from finsetrep.oracle import Report
    import finsetrep.cli as cli

    def failing_check(n, image_sizes=None):
        return Report("pi_idempotent", {"n": n}, True, False, False)

    import finsetrep.oracle

    monkeypatch.setattr(finsetrep.oracle, "pi_idempotent_check", failing_check)
    code, out, _ = run_cli(capsys, "verify", "--suite", "idempotent", "--max-size", "2")
    assert code == 2
    assert "counterexample" in out and "pi_idempotent" in out


def test_env_default_truncation(capsys, monkeypatch):
    monkeypatch.setenv("FINSETREP_TRUNC", "5")
    code, out, _ = run_cli(capsys, "groth", "--identity", "W", "--k", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["trunc"] == 5


def test_env_default_truncation_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("FINSETREP_TRUNC", "abc")
    code, out, err = run_cli(capsys, "groth", "--identity", "W")
    assert code == 1
    assert out == ""
    assert "FINSETREP_TRUNC" in json.loads(err)["error"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finsetrep.cli", "simple-eval", "k0", "--t", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0\t()\t1"]
