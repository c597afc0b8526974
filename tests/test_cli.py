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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["groth", "--identity", "W", "--k", "-1", "--trunc", "4"], "--k must be non-negative"),
        (["simple-eval", "L", "2", "--t", "-1"], "--t must be non-negative"),
        (["simple-eval", "C", "2,1", "--t", "-1"], "--t must be non-negative"),
        (["verify", "--suite", "idempotent", "--max-size", "-1"], "runs no check"),
        (["verify", "--suite", "right-aug", "--max-size", "1"], "runs no check"),
        (["verify", "--suite", "pbar-hom", "--max-size", "1"], "runs no check"),
        (["verify", "--suite", "norm-map", "--max-size", "0"], "runs no check"),
        *(
            (["hom", "--from", f"{family}:-1", "--to", "k", "--trunc", "3"], f"'{family}:-1'")
            for family in ("pfin", "kfi", "pbar", "proj", "lambda", "lambdabar")
        ),
        (["verify", "--suite", "lambda-complex", "--max-size", "-1"], "truncation below 2"),
        (["verify", "--suite", "groth", "--max-size", "0"], "checks no identity"),
        (["verify", "--suite", "groth", "--max-size", "-1"], "checks no identity"),
    ],
)
def test_negative_or_vacuous_arguments_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


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
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": None}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1.5}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": True}]}}},
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


# Each probe runs its commands in one fresh interpreter, as the console
# script would, and reports after each one whether numpy and the oracle are
# loaded; this test session has both loaded already.
_PROBE = """
import contextlib, io, json, os, sys
from finsetrep.cli import main
for argv, env in json.loads(sys.argv[1]):
    os.environ.update(env)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    for k in env:
        del os.environ[k]
    print(json.dumps([code, "numpy" in sys.modules, "finsetrep.oracle" in sys.modules]))
"""


def _probe(calls):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(calls)],
        capture_output=True, text=True, check=True,
    )
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def test_symbolic_commands_load_neither_numpy_nor_the_oracle(tmp_path):
    good = tmp_path / "const.json"
    good.write_text(json.dumps(fc.FBModuleData(
        4, 1, {k: sr.trivial_class(k) for k in range(1, 5)}).to_json()))
    calls = [
        (["simple-eval", "C", "2", "--t", "3"], {}, 0),
        (["simple-eval", "L", "1", "--t", "3"], {}, 0),
        (["simple-eval", "k0", "--t", "0"], {}, 0),
        (["decompose-pfin", "2,1"], {}, 0),
        (["structure-kfi", "3"], {}, 0),
        (["multiplicities", "--input", str(good)], {}, 0),
        *((["groth", "--identity", name, "--k", "2", "--trunc", "8"], {}, 0)
          for name in ("invert-triv", "W", "H", "hook-inversion")),
        (["verify", "--suite", "groth", "--max-size", "5"], {}, 0),
        (["simple-eval", "C", "--t", "3"], {}, 1),
        (["decompose-pfin", "0"], {}, 1),
        (["groth", "--identity", "nope"], {}, 1),
        (["multiplicities", "--input", str(tmp_path / "missing.json")], {}, 1),
        (["groth", "--identity", "W"], {"FINSETREP_TRUNC": "abc"}, 1),
        (["verify", "--suite", "nope"], {}, 1),
        (["hom", "--from", "bogus:1", "--to", "pfin:1"], {}, 1),
        (["hom", "--from", "pfin:1", "--to", "bogus:1"], {}, 1),
        (["hom", "--from", "pfin:1", "--to", "pbar:-1"], {}, 1),
    ]
    seen = _probe([(argv, env) for argv, env, _ in calls])
    assert seen == [(code, False, False) for _, _, code in calls]


def test_oracle_commands_still_load_the_oracle():
    assert _probe([(["verify", "--suite", "kfs-cross", "--max-size", "4"], {})]) == [
        (0, True, False)  # numpy for the enumerated cross-check only
    ]
    for argv in (
        ["hom", "--from", "pbar:1", "--to", "pfin:1", "--trunc", "3"],
        ["verify", "--suite", "idempotent", "--max-size", "2"],
    ):
        assert _probe([(argv, {})]) == [(0, True, True)]


# sha256 of `verify --suite S --max-size 4 --seed 3 --format json`, pinned
# when the oracle and Report moved out of the symbolic suites' import path.
_VERIFY_JSON_SHA256 = {
    "idempotent": "59941e7da857240a74504d611f22c1472fa54f33686909968fc56af34d6933f2",
    "lambda-complex": "d56a0e55ac0948e126e5a8defebcb097f6d939240eb07e1c45a0af9c3b230fa7",
    "norm-map": "2a37fc4686159a539c8b631822da52983e15a1b5e2afc22fcfdbaa3149989dea",
    "right-aug": "a94ae2be87a258b3a1cf7f5279ae91ad440755d0eb0309476712497f4fd92e7b",
    "pbar-hom": "6634e74ef1373e25e7ac10ed08c77a21e8962272c8a594d9e50b1d134c07956f",
    "groth": "86da37546cf39745460b1ed807c2d2041d3bae98e30a79f3aae39384039d0859",
    "kfs-cross": "d59c548dd14dfcd46335aceeac47eff31d865f15e0bf90e6a20b3ba95c03472d",
}


@pytest.mark.parametrize("suite", sorted(_VERIFY_JSON_SHA256))
def test_verify_json_output_is_unchanged(capsys, suite):
    import hashlib

    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--max-size", "4", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_JSON_SHA256[suite]
