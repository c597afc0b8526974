"""The benchmark's own tests, on the tiny smoke version of each workload.

Run from the repository root with:  python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def smoke_pass(workload, seed, trace=False, keep_spans=False):
    plan = workloads.plan(workload, seed, smoke=True)
    job = {"role": "pass", "plan": plan, "trace": trace, "keep_spans": keep_spans,
           "in_process": trace and workload == "cli"}
    return plan, run.run_worker(job, run.worker_env())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    t0 = time.perf_counter()
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 60
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    if workload != "cli":
        assert result["failed"] == 0


def test_traced_and_untraced_answers_are_identical():
    for workload in workloads.WORKLOADS:
        _, plain = smoke_pass(workload, 5)
        _, traced = smoke_pass(workload, 5, trace=True)
        for a, b in zip(plain["ops"], traced["ops"]):
            if a["id"] not in workloads.KNOWN_DEFECTS:
                assert a["answer"] == b["answer"], (workload, a["id"])


@pytest.mark.parametrize("workload", ["hom-grid", "symbolic", "cli"])
def test_span_tree_is_well_formed(workload):
    _, reply = smoke_pass(workload, 1, trace=True, keep_spans=True)
    spans = reply["spans"]
    assert spans
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < i
            _, pstart, pend, _ = spans[parent]
            assert pstart <= start and end <= pend, (name, spans[parent][0])
            child_time[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child_time):
        assert end - start - inner >= -1e-9, name
    layers = reply["layers"]
    assert layers["bench.unattributed_s"][0] >= -1e-9
    assert all(v >= 0 for k, (v, unit) in layers.items() if unit == "s" and k != "bench.unattributed_s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_changes_inputs_but_answers_still_match(workload):
    assert workloads.plan(workload, 1, smoke=True) != workloads.plan(workload, 2, smoke=True)
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_known_cli_defect_stays_in_the_sequence():
    ids = [op["id"] for op in workloads.plan("cli", 7)["ops"]]
    assert set(workloads.KNOWN_DEFECTS) <= set(ids)
    assert {"groth", "verify", "hom", "multiplicities", "simple-eval", "decompose-pfin",
            "structure-kfi"} <= {op["argv"][0] for op in workloads.plan("cli", 7)["ops"]}


def test_wrong_answers_are_caught():
    plan = workloads.plan("hom-grid", 1, smoke=True)
    refs = workloads.local_references(plan)
    op = next(o for o in plan["ops"] if o["id"] == "pbar:1>pfin:1")
    assert workloads.check(op, {"dim": 1, "bimodule": [["1", "1", 1]]}, [refs[op["id"]]])
    assert not workloads.check(op, {"dim": 2, "bimodule": [["1", "1", 2]]}, [refs[op["id"]]])
    assert not workloads.check(op, {"dim": 1, "bimodule": [["1", "1", 1]]}, [])


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "hom-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
