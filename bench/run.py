"""finsetrep benchmark: one workload, one run.

    python3 bench/run.py --workload hom-grid --seed 1 --seconds 10 --trace 0

Every pass runs in a fresh worker process, one worker at a time, so every
pass starts from cold memo tables as a CLI call or a test session does.
Times are scaled by a calibration loop timed next to them (calib.py);
passes repeat until their scaled time reaches --seconds (at least one),
and the fastest pass is reported.  Each answer is checked against a reference computed
outside the timed region.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
makes one untraced and one traced pass and reports the per-layer split of
the traced one.  The line before it holds the environment record and the
per-operation detail.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import workloads  # noqa: E402
from worker import run_child  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
POLICY = "cold: each pass and each set-up sample is a fresh worker process; memo tables start empty"


class BenchError(RuntimeError):
    pass


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job: Dict, env: Dict[str, str]) -> Dict:
    """Run one worker to completion; adds setup_s and its peak RSS."""
    job = dict(job, src=SRC)
    t_spawn = time.perf_counter()
    code, out, err, rss_kb = run_child(
        [sys.executable, os.path.join(BENCH, "worker.py")], env=env,
        timeout=WORKER_TIMEOUT_S, stdin_text=json.dumps(job), cwd=ROOT, new_group=True,
    )
    if code != 0:
        raise BenchError(f"{job['role']} worker exited {code}: {err.strip()[-2000:]}")
    reply = json.loads(out.strip().splitlines()[-1])
    reply["setup_s"] = reply["t_ready"] - t_spawn
    reply["rss_kb"] = max(rss_kb, reply.get("child_rss_kb", 0))
    return reply


def environment(versions: Dict) -> Dict:
    code, sha, _, _ = run_child(["git", "rev-parse", "HEAD"], env=dict(os.environ), timeout=30, cwd=ROOT) \
        if shutil.which("git") else (1, "", "", 0)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha.strip() if code == 0 else "unknown (not a git checkout)",
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "thread_env": {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def scale(timed: Dict) -> float:
    """Factor from wall seconds to reference seconds, for a set-up sample
    or an operation, from the calibration timed next to it."""
    return calib.REF_S / timed["calib_s"]


def tail(latencies: List[float]):
    """Latency at the highest percentile with at least ten operations
    beyond it, or None when there are too few operations."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return {"value": xs[i], "percentile": round(100 * (i + 1) / len(xs), 2), "ops": len(xs)}


def run(args) -> Dict:
    if not os.path.isfile(os.path.join(SRC, "finsetrep", "__init__.py")):
        raise BenchError(f"no finsetrep source tree under {SRC}")
    env = worker_env()
    tmpdir = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        return measure(args, env, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(args, env: Dict[str, str], tmpdir: str) -> Dict:
    load_at_start = list(os.getloadavg())
    plan = workloads.plan(args.workload, args.seed, smoke=args.smoke, tmpdir=tmpdir)
    for op in plan["ops"]:
        if "file" in op:
            with open(op["file"]["path"], "w") as fh:
                json.dump(op["file"]["module"]["data"], fh)

    refs: Dict[str, List[Dict]] = {op["id"]: [] for op in plan["ops"]}
    for op_id, ref in workloads.local_references(plan).items():
        refs[op_id].append(ref)
    if any(op["kind"] == "hom" for op in plan["ops"]):
        lib = run_worker({"role": "reference", "plan": plan}, env)
        for op_id, ref in lib["refs"].items():
            refs[op_id].append(ref)

    setups = [run_worker({"role": "setup"}, env) for _ in range(SETUP_SAMPLES)]
    in_process = bool(args.trace) and args.workload == "cli"
    job = {"role": "pass", "plan": plan, "trace": False, "in_process": in_process}
    passes = []
    if args.trace:
        passes.append(run_worker(job, env))
        passes.append(run_worker(dict(job, trace=True), env))
    else:
        # Passes repeat until their scaled time reaches --seconds, so the
        # number of passes does not depend on how busy the machine is.
        measured = 0.0
        while not passes or measured < args.seconds:
            passes.append(run_worker(job, env))
            measured += sum(r["latency_s"] * scale(r) for r in passes[-1]["ops"])

    ops = {op["id"]: op for op in plan["ops"]}
    attempted = failed = 0
    correct = True
    failures = []
    for p in passes:
        for r in p["ops"]:
            attempted += 1
            ok = r["error"] is None and workloads.check(ops[r["id"]], r["answer"], refs[r["id"]])
            if not ok:
                failed += 1
                failures.append({"id": r["id"], "error": r["error"],
                                 "known_defect": workloads.KNOWN_DEFECTS.get(r["id"])})
                correct = correct and r["id"] in workloads.KNOWN_DEFECTS
    if args.trace:
        same = [a["answer"] == b["answer"] for a, b in zip(passes[0]["ops"], passes[1]["ops"])
                if a["id"] not in workloads.KNOWN_DEFECTS]
        correct = correct and all(same)

    setup_s = statistics.median([w["setup_s"] * scale(w) for w in setups])
    # Other tenants of a shared machine only ever slow a pass down, so the
    # fastest pass, and each operation's fastest latency, are the steadiest
    # estimates of what the code costs.
    scaled = [[r["latency_s"] * scale(r) for r in p["ops"]] for p in passes]
    fastest_op = [min(lat) for lat in zip(*scaled)]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(passes[1]["layers"].items())}
        metrics["bench.trace_overhead_s"] = {
            "value": passes[1]["pass_s"] - passes[0]["pass_s"], "unit": "s"}
    else:
        metrics = {
            "pass_s": {"value": min(sum(p) for p in scaled), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss_kb"] for p in passes) / 1024, "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "policy": POLICY,
        "environment": dict(environment(setups[0]["versions"]), loadavg=load_at_start),
        "passes": len(passes),
        "wall_pass_s": [p["pass_s"] for p in passes],
        "wall_setup_s": [w["setup_s"] for w in setups],
        "calib_s": [w["calib_s"] for w in setups],
        "calib_samples": [p["calib_samples"] for p in passes],
        "fail_ratio": failed / attempted,
        "failures": failures,
        "op_p50_s": statistics.median(fastest_op),
        "op_tail_s": tail(fastest_op),
        "op_latency_s": {r["id"]: lat for r, lat in zip(passes[0]["ops"], fastest_op)},
    }
    return {"detail": detail, "result": {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"bench": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
