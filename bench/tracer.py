"""Span tracing at finsetrep's module boundaries, installed from outside.

The tracer replaces public functions and methods of the library with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Nothing under src/ knows about it.  A span's
self time is its duration minus the time of the spans nested directly in
it, so the self times of all spans plus the time outside any span add up to
the traced pass.  Counters are recorded in the same wrappers, inside the
span they describe.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# span name -> module whose self time it belongs to, for the module split
MODULES = {
    "functors": "oracle.functors",
    "nathom": "oracle.nathom",
    "linalg": "oracle.linalg",
    "checks": "oracle.checks",
    "symrep": "symrep",
    "fbgroth": "fbgroth",
    "facalc": "facalc",
    "cli": "cli",
}


def _parents(tracer: "Tracer") -> List[str]:
    """Names of the spans enclosing the one whose hook is running."""
    return [tracer.spans[i][0] for i, _ in tracer._stack[:-1]]


def _count_build(tracer, args, result):
    if "functors.build" not in _parents(tracer):
        tracer.count("functors.basis_dim", sum(result.dims))


def _count_solve(tracer, args, result):
    tracer.count("nathom.solves")
    tracer.count("nathom.params_initial", result.n_v)
    tracer.count("nathom.params_final", result.dimension)


def _count_kernel(tracer, args, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else len(rows[0])
    tracer.count("linalg.kernel_calls")
    tracer.count("linalg.kernel_cuts", int(len(result) < ncols))
    tracer.maximum("linalg.gram_max_dim", max(len(rows), ncols))
    tracer.maximum(
        "linalg.gram_max_bits",
        max((abs(int(x)) for row in rows for x in row), default=0).bit_length(),
    )


def _count_basis_add(tracer, args, result):
    if _parents(tracer)[-1:] == ["nathom.span"]:
        tracer.count("linalg.basis_attempts")
        tracer.count("linalg.basis_accepted", int(result[0] is not None))


# (span name, module, attribute path, counter hook)
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    *(
        ("functors.build", "finsetrep.oracle.functors", f"build_{kind}", _count_build)
        for kind in (
            "pfin", "kfi", "pbar_tensor", "lambda_pfin", "lambda_pbar",
            "proj_cover", "const_k", "kbar", "k0",
        )
    ),
    ("functors.apply_dense", "finsetrep.oracle.functors", "SpMat.apply_dense", None),
    ("nathom.span", "finsetrep.oracle.nathom", "build_span", None),
    ("nathom.solve", "finsetrep.oracle.nathom", "nat_hom", _count_solve),
    ("nathom.verify", "finsetrep.oracle.nathom", "NatHomResult.verify", None),
    ("nathom.character", "finsetrep.oracle.nathom", "NatHomResult.outer_character", None),
    ("nathom.character", "finsetrep.oracle.nathom", "NatHomResult.outer_bimodule", None),
    ("linalg.kernel", "finsetrep.oracle.linalg", "kernel_basis", _count_kernel),
    ("linalg.basis_add", "finsetrep.oracle.linalg", "ColumnBasis.add", _count_basis_add),
    ("checks.multiplicities", "finsetrep.oracle.checks", "oracle_multiplicities", None),
    ("symrep.character_table", "finsetrep.symrep", "character_table", None),
    ("symrep.decompose", "finsetrep.symrep", "decompose", None),
    ("symrep.induction_product", "finsetrep.symrep", "induction_product", None),
    ("symrep.joint_decompose", "finsetrep.symrep", "joint_decompose", None),
    ("fbgroth.day", "finsetrep.fbgroth", "day", None),
    ("fbgroth.invert_triv", "finsetrep.fbgroth", "invert_triv", None),
    ("fbgroth.series", "finsetrep.fbgroth", "series_S", None),
    ("fbgroth.series", "finsetrep.fbgroth", "series_H", None),
    ("facalc.fs_class", "finsetrep.facalc", "fs_class", None),
    ("facalc.kfa_class", "finsetrep.facalc", "kfa_class", None),
    ("facalc.hom_projcover", "finsetrep.facalc", "hom_projcover", None),
    ("facalc.hom_projcover", "finsetrep.facalc", "hom_projcover_pfin", None),
    ("facalc.multiplicities", "finsetrep.facalc", "multiplicities", None),
    ("cli.main", "finsetrep.cli", "main", None),
]

SPAN_NAMES = sorted({t[0] for t in TARGETS})


class Tracer:
    """In-memory span recorder; install() patches the library, uninstall()
    restores it."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[List] = []  # [span index, time of direct children]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append((name, 0.0, 0.0, parent[0] if parent else -1))
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, tracer.spans[index][3])
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += duration

        return traced

    def install(self) -> "Tracer":
        for name, modname, path, hook in TARGETS:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], hook))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, hook)
            # rebind every module-level reference, including `from x import f`
            for modname2, mod in list(sys.modules.items()):
                if not modname2.startswith("finsetrep"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def metrics(self, pass_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of one traced pass: self time per span name,
        the counters, and the self time summed per library module."""
        c = self.counters
        out: Dict[str, Tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = (self.self_s.get(name, 0.0), "s")
        out["cli.self_s"] = out.pop("cli.main_s")
        out["cli.main_s"] = (self.total_s.get("cli.main", 0.0), "s")
        out["nathom.solve_self_s"] = out.pop("nathom.solve_s")
        out["functors.apply_dense_calls"] = (self.calls.get("functors.apply_dense", 0), "count")
        out["symrep.decompose_calls"] = (self.calls.get("symrep.decompose", 0), "count")
        for name in ("functors.basis_dim", "nathom.solves", "nathom.params_initial",
                     "nathom.params_final", "linalg.kernel_calls"):
            out[name] = (c.get(name, 0), "count")
        out["nathom.span_vectors"] = (c.get("linalg.basis_accepted", 0), "count")
        out["linalg.gram_max_dim"] = (c.get("linalg.gram_max_dim", 0), "count")
        out["linalg.gram_max_bits"] = (c.get("linalg.gram_max_bits", 0), "bits")
        out["linalg.kernel_cut_ratio"] = (
            c.get("linalg.kernel_cuts", 0) / max(1, c.get("linalg.kernel_calls", 0)), "ratio")
        out["linalg.basis_accept_ratio"] = (
            c.get("linalg.basis_accepted", 0) / max(1, c.get("linalg.basis_attempts", 0)), "ratio")
        split: Dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            split[MODULES[name.split(".")[0]]] += s
        for module in MODULES.values():
            out[f"module.{module}_s"] = (split.get(module, 0.0), "s")
        out["bench.unattributed_s"] = (pass_s - sum(self.self_s.values()), "s")
        return out
