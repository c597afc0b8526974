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
        (["groth", "--identity", "invert-triv", "--trunc", "-1"], "--trunc must be non-negative"),
        (["verify", "--suite", "kfs-cross", "--max-size", "-3"], "runs no check"),
        (["groth", "--identity", "W", "--k", "0", "--trunc", "13"],
         "--trunc 13 exceeds the degree bound 12"),
        (["verify", "--suite", "groth", "--max-size", "13"],
         "--max-size 13 exceeds the degree bound 12"),
        (["decompose-pfin", "60"], "degree 60 exceeds configured bound 12"),
        (["structure-kfi", "100"], "degree 100 exceeds configured bound 12"),
        (["simple-eval", "C", "2", "--t", "100"], "degree 100 exceeds configured bound 12"),
        (["simple-eval", "k0", "junk", "--t", "1"], "label k0 takes no argument"),
        (["simple-eval", "C", "--t", "3"], "label C needs a partition argument"),
        # a functor descriptor without its colon
        (["hom", "--from", "pfin", "--to", "k"], "bad functor descriptor 'pfin'"),
        (["groth", "--identity", "nope"], "unknown identity 'nope'"),
    ],
)
def test_negative_or_vacuous_arguments_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize(
    "desc, message",
    [
        # a known family that takes no degree
        ("k:3", "functor family 'k' takes no degree"),
        # a known family that hom cannot build
        ("kfs:1", "functor family 'kfs' has no oracle builder"),
        ("bogus:1", "unknown functor family 'bogus'"),
    ],
)
def test_each_bad_functor_family_has_its_own_message(capsys, desc, message):
    code, out, err = run_cli(capsys, "hom", "--from", desc, "--to", "k")
    assert (code, out, err) == (1, "", json.dumps({"error": message}) + "\n")


@pytest.mark.parametrize(
    "argv, env",
    [
        (["structure-kfi", "1_0"], None),
        (["structure-kfi", "+1"], None),
        (["structure-kfi", " 2"], None),
        (["groth", "--identity", "W", "--k", "1_0", "--trunc", "12"], None),
        (["groth", "--identity", "W", "--k", "1", "--trunc", "٤"], None),
        (["verify", "--suite", "groth", "--max-size", "4", "--seed", "+3"], None),
        (["decompose-pfin", "1_0"], None),
        (["decompose-pfin", "2,+1"], None),
        (["decompose-pfin", "(2,١)"], None),
        (["simple-eval", "L", "0_1", "--t", "3"], None),
        (["simple-eval", "C", "2,1", "--t", "1_0"], None),
        (["hom", "--from", "pfin:١", "--to", "k", "--trunc", "3"], None),
        (["hom", "--from", "pbar:+1", "--to", "k", "--trunc", "3"], None),
        (["hom", "--from", "pbar: 1", "--to", "k", "--trunc", "3"], None),
        (["verify", "--suite", "groth", "--max-size", "٣"], None),
        (["groth", "--identity", "W"], "1_0"),
        (["groth", "--identity", "W"], " 5"),
    ],
)
def test_integers_are_ascii_decimal_digits(capsys, monkeypatch, argv, env):
    # int() reads an underscore, a sign, spaces and non-ASCII digits; every
    # integer of the CLI is ASCII decimal digits after at most a minus sign
    if env is not None:
        monkeypatch.setenv("FINSETREP_TRUNC", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert list(json.loads(err)) == ["error"]


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["structure-kfi", "-1"], None, "needs n >= 1"),
        (["decompose-pfin", "-1"], None, "parts must be positive: (-1,)"),
        (["decompose-pfin", "2,-1"], None, "parts must be positive: (2, -1)"),
        (["simple-eval", "L", "-1", "--t", "3"], None, "L(n) needs n >= 0"),
        (["groth", "--identity", "W"], "-1", "--trunc must be non-negative"),
    ],
)
def test_a_minus_sign_keeps_its_message(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("FINSETREP_TRUNC", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": message}


def test_partitions_may_hold_spaces(capsys):
    assert run_cli(capsys, "decompose-pfin", "(2, 1)") == run_cli(capsys, "decompose-pfin", "2,1")
    code, out, _ = run_cli(capsys, "simple-eval", "C", "( 2 , 1 )", "--t", "3")
    assert code == 0 and out.splitlines() == ["3\t(2,1)\t1"]


@pytest.mark.parametrize("identity", ["W", "H"])
def test_groth_identities_hold_at_k_equal_to_trunc(capsys, identity):
    # S(k + 1) and H(k + 1) truncate to the zero class at k = trunc
    code, out, _ = run_cli(capsys, "groth", "--identity", identity, "--k", "3", "--trunc", "3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_groth_refuses_k_above_trunc_before_building_a_series(capsys, monkeypatch):
    from finsetrep import fbgroth as fg

    for name in ("series_S", "series_H", "sgn_class", "triv_class", "unit"):
        monkeypatch.setattr(fg, name, lambda *args: pytest.fail("a class was built"))
    code, out, err = run_cli(capsys, "groth", "--identity", "W", "--k", "4", "--trunc", "3")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "--k 4 exceeds --trunc 3"}


@pytest.mark.parametrize(
    "argv, target",
    [
        (["hom", "--from", "pfin:1", "--to", "pfin:1", "--trunc", "3"], "nat_hom"),
        (["verify", "--suite", "right-aug", "--max-size", "3"], "verify_right_aug"),
    ],
)
def test_out_of_memory_exits_1_with_one_json_error(capsys, monkeypatch, argv, target):
    import finsetrep.oracle

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(finsetrep.oracle, target, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "out of memory: lower --trunc or --max-size"}


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
        # a truncation above the degree bound, though the data stays below it
        {"trunc": 13, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        # a negative or boolean count, a partition twice in one degree, and
        # two keys of one degree
        {"trunc": 2, "F0_dim": -2, "degrees": {}},
        {"trunc": True, "F0_dim": 1, "degrees": {}},
        {"trunc": 2, "F0_dim": True, "degrees": {}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1},
                                             {"partition": [1], "mult": 2}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]},
                     "01": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        # a misspelt key, which would otherwise drop the data under it
        {"trunc": 2, "F0_dim": 0,
         "degree": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        # a part that is not a JSON integer, which Partition would coerce
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1.7], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [True], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": ["1"], "mult": 1}]}}},
        # a degree that is not a JSON integer
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1.0, "mults": [{"partition": [1], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": True, "mults": [{"partition": [1], "mult": 1}]}}},
        # an unknown key in a degree object and in a mult entry
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1}], "extra": 0}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": 1, "extra": 0}]}}},
        # a degree key that int() reads but that is not ASCII digits: "1_0"
        # as 10, a space, a sign or an Arabic-Indic digit as 1
        {"trunc": 11, "F0_dim": 0,
         "degrees": {"1_0": {"n": 10, "mults": [{"partition": [10], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {" 1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"+1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"\u0661": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        # data of no module: a degree outside 1..trunc, above it and at the
        # empty set, an S_1-class under degree 2, and a virtual class
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"3": {"n": 3, "mults": [{"partition": [3], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"0": {"n": 0, "mults": [{"partition": [], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"2": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}},
        {"trunc": 2, "F0_dim": 1,
         "degrees": {"1": {"n": 1, "mults": [{"partition": [1], "mult": -1}]}}},
    ],
)
def test_multiplicities_bad_input_types_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "multiplicities", "--input", str(path))
    assert code == 1
    assert out == ""
    assert "bad input file" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["simple-eval", "k0", "--t", "0"], "0\t()\t1\n"),
        (["hom", "--from", "pbar:2", "--to", "pbar:2", "--trunc", "4", "--format", "json"],
         '{"dimension": 2}\n'),
        (["groth", "--identity", "hook-inversion", "--k", "3", "--trunc", "6"],
         "identity\thook-inversion\tpass\n"),
    ],
)
def test_stdout_of_each_call(capsys, argv, out):
    assert run_cli(capsys, *argv) == (0, out, "")


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
        (["simple-eval", "C", "2", "--t", "12"], {}, 0),
        (["simple-eval", "L", "3", "--t", "2000"], {}, 0),
        (["decompose-pfin", "2,1"], {}, 0),
        (["structure-kfi", "3"], {}, 0),
        (["multiplicities", "--input", str(good)], {}, 0),
        *((["groth", "--identity", name, "--k", "2", "--trunc", "8"], {}, 0)
          for name in ("invert-triv", "W", "H", "hook-inversion")),
        (["verify", "--suite", "groth", "--max-size", "5"], {}, 0),
        (["simple-eval", "C", "--t", "3"], {}, 1),
        (["decompose-pfin", "0"], {}, 1),
        (["decompose-pfin", "60"], {}, 1),
        (["structure-kfi", "100"], {}, 1),
        (["simple-eval", "C", "2", "--t", "100"], {}, 1),
        (["groth", "--identity", "nope"], {}, 1),
        (["groth", "--identity", "W", "--k", "0", "--trunc", "13"], {}, 1),
        (["multiplicities", "--input", str(tmp_path / "missing.json")], {}, 1),
        (["groth", "--identity", "W"], {"FINSETREP_TRUNC": "abc"}, 1),
        (["verify", "--suite", "nope"], {}, 1),
        (["verify", "--suite", "idempotent", "--max-size", "9"], {}, 1),
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


def test_idempotent_refuses_sizes_above_8_before_any_check(capsys, monkeypatch):
    import hashlib

    import finsetrep.oracle
    from finsetrep import cli

    # pi_n's symbolic expansion stops at n = 8: --max-size 8 runs as before
    code, out, _ = run_cli(capsys, "verify", "--suite", "idempotent", "--max-size", "8",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f4051fa61dd3406347f1f4263a25261998693ed688c471b6afd665f47261b43")
    monkeypatch.setattr(finsetrep.oracle, "pi_idempotent_check",
                        lambda *args, **kwargs: pytest.fail("a check ran"))
    monkeypatch.setattr(cli, "_admit", lambda *args: pytest.fail("the suite was admitted"))
    code, out, err = run_cli(capsys, "verify", "--suite", "idempotent", "--max-size", "9")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "suite 'idempotent' expands pi_n only up to --max-size 8, got 9"}


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", _BLAS_THREADS)
def test_cli_runs_blas_on_one_thread_unless_set(capsys, monkeypatch, preset):
    import os

    for var in _BLAS_THREADS:
        # set first, so that the teardown restores the variable as it was
        monkeypatch.setenv(var, "0")
        monkeypatch.delenv(var)
    monkeypatch.setenv(preset, "2")
    code, out, _ = run_cli(capsys, "hom", "--from", "pbar:1", "--to", "pbar:1", "--trunc", "3")
    assert (code, out) == (0, "dimension\t1\n")
    assert {var: os.environ[var] for var in _BLAS_THREADS} == {
        var: "2" if var == preset else "1" for var in _BLAS_THREADS
    }


def test_size_estimates_match_the_builders():
    from finsetrep import cli
    from finsetrep.oracle import OracleError, surjection_count

    for N in range(2, 6):
        for head in ("pfin", "pbar", "kfi", "lambda", "lambdabar", "proj"):
            for n in range(0, N + 1):
                try:
                    F = cli._functor_from_descriptor(f"{head}:{n}", N)
                except OracleError as exc:  # a degree the builder refuses
                    assert "needs N >=" in str(exc), (head, n, N)
                    continue
                assert max(F.dims) == F.dims[N] == cli._FAMILIES[head][1](n, N), (head, n, N)
                assert len(F.gen_keys()) == N * (N - 1) // 2 + 2 * N - 1
        for head in ("k", "k0", "kbar"):
            assert cli._FAMILIES[head][1] is None
            assert max(cli._functor_from_descriptor(head, N).dims) == 1
        for n in range(1, 4):
            assert cli._FAMILIES["kfs"][1](n, N) == surjection_count(N, n)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hom", "--from", "pfin:8", "--to", "pfin:8", "--trunc", "8"],
         "--trunc 8: pfin:8 has 16777216 dimensions at size 8, above the budget of 2500"),
        (["hom", "--from", "k", "--to", "pfin:4", "--trunc", "8"], "--trunc 8: pfin:4 has 4096"),
        (["hom", "--from", "k", "--to", "k", "--trunc", "100"],
         "--trunc 100: 5149 generator moves, above the budget of 2500"),
        (["verify", "--suite", "lambda-complex", "--max-size", "14"], "--max-size 14: lambda:6 has 3003"),
        (["verify", "--suite", "norm-map", "--max-size", "8"], "--max-size 8: kfs:3 has 5796"),
        (["verify", "--suite", "right-aug", "--max-size", "14"], "--max-size 14: pfin:3 has 2744"),
        (["verify", "--suite", "pbar-hom", "--max-size", "15"], "--max-size 15: pbar:3 has 2744"),
        (["verify", "--suite", "lambda-complex", "--max-size", "71"], "--max-size 71: 2626 generator moves"),
    ],
)
def test_sizes_above_the_budget_exit_1_before_any_build(capsys, monkeypatch, argv, message):
    import finsetrep.oracle
    from finsetrep import cli

    def refuse(*args, **kwargs):
        raise AssertionError("built past the size admission")

    monkeypatch.setattr(cli, "_functor_from_descriptor", refuse)
    for name in ("pi_idempotent_check", "verify_lambda_complex", "verify_norm_map",
                 "verify_right_aug", "nat_hom", "build_pbar_tensor"):
        monkeypatch.setattr(finsetrep.oracle, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


def test_a_degree_above_the_truncation_exits_1_before_any_tuple(capsys, monkeypatch):
    # the size admission skips a degree above N: the builder refuses it
    from finsetrep.oracle import functors

    def no_tuples(*args):
        raise AssertionError("a basis tuple was made before the refusal")

    monkeypatch.setattr(functors, "_tuples", no_tuples)
    code, out, err = run_cli(capsys, "hom", "--from", "pbar:30", "--to", "pfin:1", "--trunc", "3")
    assert (code, out, json.loads(err)) == (1, "", {"error": "pbar(30) needs N >= 31"})


def test_the_zero_injection_module_costs_nothing_of_its_degree(capsys, monkeypatch):
    # kfi(n) above N is zero at every size, and the size admission lets it
    # through: its build makes no outer swap (an n-tuple each) and no radix
    # of n powers, so its cost does not grow with n.  The guards run at a
    # small n first, so that a build that grows with n fails fast here
    import tracemalloc

    from finsetrep.oracle import build_kfi, functors

    real = functors.move_map

    def bounded(key):
        assert key[1] <= 3, f"move {key} made above the truncation"
        return real(key)

    monkeypatch.setattr(functors, "move_map", bounded)
    tracemalloc.start()
    try:
        F = build_kfi(3000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, f"{peak} bytes traced"
    assert (F.dims, F.generators, F.outer_act) == ([0] * 4, [], {})
    assert F.outer_transposition(2999, 3).shape == (0, 0)
    code, out, _ = run_cli(capsys, "hom", "--from", "kfi:100000", "--to", "k", "--trunc", "3")
    assert (code, out) == (0, "dimension\t0\n")


def _admitted(capsys, suite, N):
    """The functors that `verify --suite suite --max-size N` passes to _admit,
    recorded before any check runs."""
    from finsetrep import cli

    seen = []

    def record(flag, size, functors):
        seen.append((flag, size, functors))
        raise cli.CliError("recorded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_admit", record)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-size", str(N))
    assert (code, out, json.loads(err)) == (1, "", {"error": "recorded"})
    [(flag, size, functors)] = seen
    assert (flag, size) == ("--max-size", N)
    return functors


def test_the_budget_admits_the_runs_in_use(capsys):
    from finsetrep import cli

    for source, target, N in (("pbar", "pbar", 7), ("pbar", "pfin", 7), ("pbar", "pfin", 6)):
        cli._admit("--trunc", N, [(source, 4), (target, 4)])
    for suite, N in (("right-aug", 5), ("lambda-complex", 13), ("norm-map", 7), ("pbar-hom", 13),
                     ("idempotent", 8)):
        cli._admit("--max-size", N, _admitted(capsys, suite, N))


def test_oracle_suites_admit_the_functors_they_build(capsys):
    # the (family, degree) list of each oracle suite as stated before the
    # suites' degrees became one table
    expected = {
        "idempotent": lambda N: [],
        "lambda-complex": lambda N: [("lambda", k) for k in range(N + 1)],
        "norm-map": lambda N: [(f, n) for n in range(1, min(3, N - 1) + 1) for f in ("kfi", "kfs")],
        "right-aug": lambda N: [(f, n) for n in range(min(3, N - 2) + 1) for f in ("pbar", "pfin")],
        "pbar-hom": lambda N: [("pbar", s) for s in range(min(3, N - 2) + 1)],
    }
    for suite, functors in expected.items():
        for N in range(2, 9):
            assert _admitted(capsys, suite, N) == functors(N), (suite, N)


@pytest.mark.parametrize(
    "argv",
    [
        *([*argv, "--trunc", "3"] for argv in (
            ["simple-eval", "C", "2", "--t", "3"],
            ["decompose-pfin", "2,1"],
            ["structure-kfi", "2"],
            ["multiplicities", "--input", "module.json"],
            ["verify", "--suite", "groth", "--max-size", "4"],
        )),
        *([*argv, "--seed", "1"] for argv in (
            ["simple-eval", "C", "2", "--t", "3"],
            ["decompose-pfin", "2,1"],
            ["structure-kfi", "2"],
            ["multiplicities", "--input", "module.json"],
            ["hom", "--from", "pbar:1", "--to", "pfin:1", "--trunc", "3"],
            ["groth", "--identity", "W", "--k", "1", "--trunc", "4"],
        )),
    ],
)
def test_each_command_refuses_the_flags_it_does_not_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": f"unrecognized arguments: {' '.join(argv[-2:])}"}


def test_a_negative_degree_key_exits_1_with_one_json_error(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"trunc": 2, "F0_dim": 1,
                                "degrees": {"-1": {"n": 1, "mults": [{"partition": [1], "mult": 1}]}}}))
    code, out, err = run_cli(capsys, "multiplicities", "--input", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "bad input file: key '-1' is not a string of decimal digits"}


def test_kfs_cross_reports_a_failed_cross_check_and_exits_2(capsys, monkeypatch):
    # the surjection blocks read as all-maps blocks; the blocks are memoized,
    # so the memo starts and ends empty
    real = fc.perm_character_maps
    monkeypatch.setattr(fc, "perm_character_maps", lambda s, t, surjective_only: real(s, t, False))
    fc._map_block.cache_clear()
    try:
        code, out, err = run_cli(capsys, "verify", "--suite", "kfs-cross", "--max-size", "3")
    finally:
        fc._map_block.cache_clear()
    assert (code, err) == (2, "")
    assert out.splitlines() == ['kfs_cross\t{"N": 3}\tFAIL', 'counterexample: kfs_cross {"N": 3}']
