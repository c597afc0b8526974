"""Benchmark worker: one job in a fresh interpreter.

Reads a job as JSON on stdin, imports numpy and finsetrep, and prints one
JSON reply line.  The reply carries t_ready, the perf_counter reading once
the imports are done; the parent compares it with its own reading taken
just before it started the process (both are CLOCK_MONOTONIC on Linux), so
interpreter start-up and imports count as set-up.

Roles: "setup" imports and times the calibration loop; "reference"
computes the symbolic-layer references of a plan; "pass" runs a plan's
operations in order, traced or not, and reports answers, per-operation
latencies and the calibration each latency is to be scaled by (see
calib.py).
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple


def run_child(
    argv: List[str],
    env: Dict[str, str],
    timeout: float,
    stdin_text: str = "",
    cwd: Optional[str] = None,
    new_group: bool = False,
) -> Tuple[int, str, str, int]:
    """Run a process to completion; returns (exit code, stdout, stderr,
    peak resident set in KiB).  The child is reaped with wait4 so that its
    own ru_maxrss is read, and killed if it outlives the timeout or the
    caller is interrupted.  With new_group the child leads a process group
    and is killed with everything it started."""
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=cwd, text=True, start_new_session=new_group,
    )

    def kill() -> None:
        try:
            if new_group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    err: List[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        # interrupted or terminated: the child must not outlive us
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err[0] if err else "", usage.ru_maxrss


def main() -> int:
    job = json.loads(sys.stdin.read())
    # One core for the worker and any CLI process it starts, so that the
    # calibration loop runs where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import numpy

    import finsetrep
    import finsetrep.cli
    import finsetrep.facalc
    import finsetrep.oracle

    t_ready = time.perf_counter()
    src = os.path.realpath(job["src"])
    if not os.path.realpath(finsetrep.__file__).startswith(src + os.sep):
        print(f"finsetrep imported from {finsetrep.__file__}, not {src}", file=sys.stderr)
        return 3
    reply: Dict = {
        "t_ready": t_ready,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if job["role"] == "setup":
        from calib import loop

        reply["calib_s"] = sum(loop() for _ in range(5)) / 5
    elif job["role"] == "reference":
        import workloads

        reply["refs"] = workloads.library_references(job["plan"])
    elif job["role"] == "pass":
        reply.update(run_pass(job))
    print(json.dumps(reply))
    return 0


def run_pass(job: Dict) -> Dict:
    import workloads
    from calib import Sampler
    from tracer import Tracer

    plan = job["plan"]
    tracer = Tracer().install() if job["trace"] else None
    ctx = workloads.Context(share=plan["share_functors"], in_process=job["in_process"])
    sampler = Sampler()
    # A CLI subprocess shares the worker's core, so a timer sample during it
    # would slow it down; those operations are calibrated between calls.
    # Traced passes report raw times and are not calibrated.
    timer = tracer is None and plan["workload"] != "cli"
    results = []
    sampler.sample()
    if timer:
        sampler.start_timer()
    try:
        for op in plan["ops"]:
            if tracer is None and time.perf_counter() - sampler.samples[-1][0] >= 0.5:
                sampler.sample()
            stolen, t0 = sampler.stolen, time.perf_counter()
            try:
                answer, error = workloads.run_op(op, ctx), None
            except Exception as exc:  # a failed operation is recorded, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            results.append({"id": op["id"], "latency_s": t1 - t0 - (sampler.stolen - stolen),
                            "answer": answer, "error": error, "span": (t0, t1)})
    finally:
        if timer:
            sampler.stop_timer()
    sampler.sample()
    for r in results:
        r["calib_s"] = sampler.around(*r.pop("span"))
    pass_s = sum(r["latency_s"] for r in results)
    out = {"pass_s": pass_s, "ops": results, "child_rss_kb": ctx.child_rss_kb,
           "calib_samples": len(sampler.samples)}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(pass_s)
        if job.get("keep_spans"):
            out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
