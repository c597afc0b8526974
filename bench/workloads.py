"""The four benchmark workloads: inputs from a seed, how each operation
runs, where its reference answer comes from, and how answers are checked.

A plan is a JSON-able dict made by plan() in the parent process; it holds
the ordered operations of one pass.  A worker process runs the operations
with run_op(); the parent checks every answer with check() against
references made outside the timed region: closed forms from exact.py, and
for the oracle workloads the symbolic layer, computed in a separate
worker by library_references().
"""

from __future__ import annotations

import json
import os
import random
import sys
from math import comb, factorial
from typing import Dict, List

import exact
from exact import key, partitions, unkey

WORKLOADS = ("hom-grid", "hom-deg4", "symbolic", "cli")

# Bug recorded as ROADMAP open item 5: build_parser() reads FINSETREP_TRUNC
# outside the try in cli.main, so a bad value ends in a traceback.  The case
# runs in every cli pass and counts as failed until the bug is fixed.
KNOWN_DEFECTS = {"error:trunc-env": "ROADMAP item 5: bad FINSETREP_TRUNC ends in a traceback"}

GRID_TARGETS = [f"{f}:{d}" for f in ("pfin", "pbar", "kfi", "lambda") for d in range(4)] + ["k", "kbar"]


def _degree(desc: str) -> int:
    return int(desc.split(":")[1]) if ":" in desc else 0


# ---------------------------------------------------------------------------
# Plans


def plan(workload: str, seed: int, smoke: bool = False, tmpdir: str = ".") -> Dict:
    """The ordered operations of one pass; the seed picks inputs and order.
    The cli multiplicities op carries the file it reads, to be written
    under tmpdir before the pass."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {
        "hom-grid": _plan_grid,
        "hom-deg4": _plan_deg4,
        "symbolic": _plan_symbolic,
        "cli": _plan_cli,
    }[workload](rng, seed, smoke, tmpdir)
    # the grid shares each functor and its span across a pass; the degree-4
    # solves build their own, so peak memory does not depend on their order
    return {"workload": workload, "seed": seed, "smoke": smoke, "ops": ops,
            "share_functors": workload == "hom-grid"}


def _plan_grid(rng, seed, smoke, tmpdir) -> List[Dict]:
    """Every degree <= 3 source against every target that has a reference
    outside the solver: pbar(s) into pfin and pbar, lambdabar(s) into pfin
    and pbar, proj(m) into all eighteen targets.  The targets are built
    first, then each source is built and spanned once and solved against
    its targets; building and spanning are operations of their own, so
    that every solve costs the same whatever the order.  The seed orders
    the targets, the sources and the targets of each source.  verify()
    runs on the fixed subset of solves whose source and target both have
    degree <= 2."""
    N, top = (4, 1) if smoke else (6, 3)
    targets = [t for t in GRID_TARGETS if _degree(t) <= top]
    sources = [f"{f}:{d}" for f in ("pbar", "proj", "lambdabar") for d in range(top + 1)]
    rng.shuffle(sources)
    rng.shuffle(targets)
    ops = [{"id": f"build:{t}", "kind": "build", "desc": t, "N": N} for t in targets]
    for src in sources:
        ops.append({"id": f"span:{src}", "kind": "span", "desc": src, "N": N})
        mine = [t for t in targets if src.startswith("proj") or t.split(":")[0] in ("pfin", "pbar")]
        rng.shuffle(mine)
        for tgt in mine:
            ops.append({
                "id": f"{src}>{tgt}", "kind": "hom", "src": src, "tgt": tgt, "N": N,
                "bimodule": True, "verify": _degree(src) <= 2 and _degree(tgt) <= 2,
            })
    return ops


def _plan_deg4(rng, seed, smoke, tmpdir) -> List[Dict]:
    """The degree-4 solves at N=5 (degree 2 at N=4 when smoke); the seed
    orders the three solves."""
    N, d = (4, 2) if smoke else (5, 4)
    ops = [
        {"id": f"pbar:{d}>pbar:{d}", "kind": "hom", "src": f"pbar:{d}", "tgt": f"pbar:{d}",
         "N": N, "bimodule": True, "verify": False},
        {"id": f"proj:{d}>pfin:{d - 1}", "kind": "hom", "src": f"proj:{d}", "tgt": f"pfin:{d - 1}",
         "N": N, "bimodule": True, "verify": False},
        {"id": f"pbar:{d}>pfin:{d - 1}", "kind": "hom", "src": f"pbar:{d}", "tgt": f"pfin:{d - 1}",
         "N": N, "bimodule": False, "verify": False},
    ]
    rng.shuffle(ops)
    # oracle_multiplicities keeps its projective covers in a module-level
    # cache, so it runs last: peak memory then does not depend on the seed
    return ops + [{"id": "mult:kfi:1", "kind": "omult", "n": 1, "N": N + 1, "degmax": d}]


def random_module(rng: random.Random, trunc: int) -> Dict:
    """A seeded sum of simple modules of degree < trunc, as FBModuleData
    JSON plus the multiplicities it was built from."""
    labels = ["k0"] + [f"L{n}" for n in range(trunc)] + [
        "C" + key(lam) for n in range(1, trunc) for lam in partitions(n) if lam != exact.column(n)
    ]
    mults = {lab: rng.randint(1, 3) for lab in rng.sample(labels, 5)}
    degrees = {}
    for t in range(1, trunc + 1):
        cls: Dict = {}
        for lab, m in mults.items():
            for lam, c in exact.simple_eval(lab, t).items():
                cls[lam] = cls.get(lam, 0) + m * c
        if cls:
            degrees[str(t)] = {"n": t, "mults": [
                {"partition": list(lam), "mult": c} for lam, c in sorted(cls.items())]}
    data = {"trunc": trunc, "F0_dim": mults.get("k0", 0), "degrees": degrees}
    return {"data": data, "mults": mults}


def _plan_symbolic(rng, seed, smoke, tmpdir) -> List[Dict]:
    """Character tables, the criterion-04 identities, both map bimodules,
    hom(P, pfin(n)) and multiplicities of seeded modules, in a fixed order
    so that each memo table is filled by the same operation every pass."""
    T, K, fs_t, kfa_t, hp_t, mult_t = (6, 3, 4, 4, 4, 5) if smoke else (12, 8, 6, 8, 6, 8)
    ops = [{"id": f"tables:{T}", "kind": "tables", "T": T}]
    ops.append({"id": "identity:day-S0", "kind": "identity", "name": "day-S0", "k": 0, "T": T})
    for k in range(K + 1):
        for name in ("W", "H", "hook-inversion"):
            ops.append({"id": f"identity:{name}:{k}", "kind": "identity", "name": name, "k": k, "T": T})
    ops.append({"id": f"fs_class:{fs_t}", "kind": "fs_class", "T": fs_t})
    ops.append({"id": f"kfa_class:{kfa_t}", "kind": "kfa_class", "T": kfa_t})
    for n in range(4 if not smoke else 3):
        ops.append({"id": f"hom_projcover_pfin:{n}", "kind": "hpp", "n": n, "T": hp_t})
    for i in range(4):
        mod = random_module(rng, mult_t)
        ops.append({"id": f"multiplicities:{i}", "kind": "mult", "data": mod["data"],
                    "expected": mod["mults"]})
    return ops


def _plan_cli(rng, seed, smoke, tmpdir) -> List[Dict]:
    """A seeded order of CLI calls covering every subcommand, plus invalid
    inputs that must exit 1 with one JSON error object."""
    size, t10, t12 = ("4", "6", "7") if smoke else ("5", "10", "12")
    c_label = rng.choice([l for n in (2, 3, 4) for l in partitions(n) if l != exact.column(n)])
    l_label = rng.randint(0, 3)
    mod = random_module(rng, 6)
    infile = os.path.join(tmpdir, f"module-{seed}.json")
    calls = [
        ("groth:hook", ["groth", "--identity", "hook-inversion", "--k", "3", "--trunc", t12], {}),
        ("groth:W", ["groth", "--identity", "W", "--k", str(rng.randint(0, 4)), "--trunc", t10], {}),
        ("groth:H", ["groth", "--identity", "H", "--k", str(rng.randint(0, 4)), "--trunc", t10], {}),
        ("groth:invert", ["groth", "--identity", "invert-triv", "--trunc", t12, "--format", "json"], {}),
        *((f"verify:{s}", ["verify", "--suite", s, "--max-size", size, "--seed", str(seed)], {})
          for s in ("idempotent", "lambda-complex", "norm-map", "right-aug", "pbar-hom", "groth", "kfs-cross")),
        ("hom:pbar2-pfin3", ["hom", "--from", "pbar:2", "--to", "pfin:3", "--trunc", size], {}),
        ("hom:pbar2-pbar2", ["hom", "--from", "pbar:2", "--to", "pbar:2", "--trunc", size, "--format", "json"], {}),
        ("hom:pbar3-pbar1", ["hom", "--from", "pbar:3", "--to", "pbar:1", "--trunc", size], {}),
        ("hom:proj2-pfin2", ["hom", "--from", "proj:2", "--to", "pfin:2", "--trunc", size], {}),
        ("multiplicities", ["multiplicities", "--input", infile], {}),
        ("simple-eval:C", ["simple-eval", "C", key(c_label), "--t", str(rng.randint(sum(c_label), 6))], {}),
        ("simple-eval:L", ["simple-eval", "L", str(l_label), "--t", str(rng.randint(l_label + 1, 6))], {}),
        ("decompose-pfin", ["decompose-pfin", key(rng.choice(partitions(rng.randint(2, 4))))], {}),
        ("structure-kfi", ["structure-kfi", str(rng.randint(1, 4))], {}),
        ("error:family", ["hom", "--from", "bogus:1", "--to", "pfin:1"], {}),
        ("error:label", ["simple-eval", "C", "--t", "3"], {}),
        ("error:partition", ["decompose-pfin", "0"], {}),
        ("error:identity", ["groth", "--identity", "nope"], {}),
        ("error:input", ["multiplicities", "--input", os.path.join(tmpdir, "missing.json")], {}),
        ("error:trunc-env", ["groth", "--identity", "W"], {"FINSETREP_TRUNC": "abc"}),
    ]
    rng.shuffle(calls)
    ops = [{"id": i, "kind": "cli", "argv": argv, "env": env} for i, argv, env in calls]
    for op in ops:
        if op["id"] == "multiplicities":
            op["file"] = {"path": infile, "module": mod}
    return ops


# ---------------------------------------------------------------------------
# Running operations (inside a worker; imports finsetrep lazily)


class Context:
    """Per-pass state.  With share, functors are built once per pass, so
    each source's span is shared by its targets.  cli ops run as
    subprocesses, or as in-process calls of cli.main when tracing."""

    def __init__(self, share: bool, in_process: bool):
        self.functors: Dict = {}
        self.share = share
        self.in_process = in_process
        self.child_rss_kb = 0

    def functor(self, desc: str, N: int):
        from finsetrep.cli import _functor_from_descriptor

        if not self.share:
            return _functor_from_descriptor(desc, N)
        if (desc, N) not in self.functors:
            self.functors[(desc, N)] = _functor_from_descriptor(desc, N)
        return self.functors[(desc, N)]


def _pairs_json(coeffs) -> List:
    """A dict keyed by partition pairs as sorted [key, key, coefficient] rows."""
    return sorted([key(a.parts), key(b.parts), int(c)] for (a, b), c in coeffs.items() if c)


def _label(lab) -> str:
    if lab.kind == "C":
        return "C" + key(lab.lam.parts)
    return f"L{lab.n}" if lab.kind == "L" else "k0"


def run_op(op: Dict, ctx: Context):
    kind = op["kind"]
    if kind == "hom":
        from finsetrep.oracle import nat_hom

        res = nat_hom(ctx.functor(op["src"], op["N"]), ctx.functor(op["tgt"], op["N"]))
        answer = {"dim": res.dimension}
        if op["bimodule"] and res.dimension:
            answer["bimodule"] = _pairs_json(res.outer_bimodule())
        if op["verify"]:
            res.verify()
        return answer
    if kind in ("build", "span"):
        F = ctx.functor(op["desc"], op["N"])
        if kind == "span":
            from finsetrep.oracle import build_span

            build_span(F)
        return list(F.dims)
    if kind == "omult":
        from finsetrep.oracle import build_kfi, oracle_multiplicities

        mults = oracle_multiplicities(build_kfi(op["n"], op["N"]), degmax=op["degmax"])
        return {_label(lab): m for lab, m in mults.items() if m}
    if kind == "tables":
        from finsetrep.partitions import Partition
        from finsetrep.symrep import character_table

        out = []
        for n in range(op["T"] + 1):
            table = character_table(n)
            parts = [Partition(p) for p in partitions(n)]
            out.append([[table[(lam, mu)] for mu in parts] for lam in parts])
        return out
    if kind == "identity":
        from finsetrep import fbgroth as fg

        T, k, name = op["T"], op["k"], op["name"]
        if name == "day-S0":
            return fg.day(fg.triv_class(T), fg.series_S(0, T)) == fg.unit(T)
        if name == "W":
            return fg.series_S(k, T) + fg.series_S(k + 1, T) == fg.sgn_class(k, T)
        if name == "H":
            return fg.series_H(k, T) + fg.series_H(k + 1, T) == fg.day(fg.sgn_class(k, T), fg.triv_class(T))
        return fg.invert_triv(fg.series_H(k, T)) == fg.series_S(k, T)
    if kind in ("fs_class", "kfa_class"):
        from finsetrep import facalc as fc

        cls = fc.fs_class(op["T"], cross_check=True) if kind == "fs_class" else fc.kfa_class(op["T"])
        return _pairs_json(cls.coeffs)
    if kind == "hpp":
        from finsetrep import facalc as fc

        return _pairs_json(fc.hom_projcover_pfin(op["n"], op["T"]).coeffs)
    if kind == "mult":
        from finsetrep import facalc as fc

        mults = fc.multiplicities(fc.FBModuleData.from_json(op["data"]))
        return {_label(lab): m for lab, m in mults.items() if m}
    if kind == "cli":
        return _run_cli(op, ctx)
    raise ValueError(f"unknown op kind {kind!r}")


def _run_cli(op: Dict, ctx: Context) -> Dict:
    if ctx.in_process:
        import contextlib
        import io
        import traceback

        from finsetrep import cli

        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in op["env"]}
        os.environ.update(op["env"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(op["argv"])
                except Exception:  # an uncaught error is what the op checks for
                    traceback.print_exc()
                    code = 1
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    from worker import run_child

    env = dict(os.environ, **op["env"])
    code, stdout, stderr, rss_kb = run_child(
        [sys.executable, "-m", "finsetrep.cli", *op["argv"]], env=env, timeout=120
    )
    ctx.child_rss_kb = max(ctx.child_rss_kb, rss_kb)
    return {"code": code, "stdout": stdout, "stderr": stderr}


# ---------------------------------------------------------------------------
# References


def library_references(p: Dict) -> Dict[str, Dict]:
    """References from the symbolic layer for the oracle workloads, keyed
    by op id.  Runs in its own worker, never in a timed one."""
    from finsetrep import facalc as fc
    from finsetrep.cli import _functor_from_descriptor
    from finsetrep.oracle import fb_module_data
    from finsetrep.partitions import one_column

    refs: Dict[str, Dict] = {}
    hom_ops = [op for op in p["ops"] if op["kind"] == "hom"]
    if not hom_ops:
        return refs
    top = max(max(_degree(op["src"]), _degree(op["tgt"])) for op in hom_ops)
    fs = fc.fs_class(top, cross_check=False)
    pbar_pbar = fc.hom_pbar_pbar(top, top)
    hpp: Dict = {}
    homp: Dict = {}
    for op in hom_ops:
        sf, s = op["src"].split(":")[0], _degree(op["src"])
        tf, t = op["tgt"].split(":")[0], _degree(op["tgt"])
        ref: Dict = {}
        if sf == "pbar" and tf == "pfin":
            ref["bimodule"] = {(lam, mu): c for (mu, lam), c in fs.coeffs.items()
                               if mu.size == t and lam.size == s}
        elif sf == "pbar" and tf == "pbar":
            ref["bimodule"] = {(lam, mu): c for (mu, lam), c in pbar_pbar.coeffs.items()
                               if mu.size == t and lam.size == s}
        elif sf == "lambdabar" and tf == "pfin":
            ref["g_marginal"] = {mu: c for (mu, lam), c in fs.coeffs.items()
                                 if mu.size == t and lam == one_column(s)}
        elif sf == "lambdabar" and tf == "pbar":
            ref["g_marginal"] = {mu: c for mu, c in fc.hom_lambdabar_pbar(s, top).coeffs.items()
                                 if mu.size == t}
        elif sf == "proj" and tf == "pfin":
            if t not in hpp:
                hpp[t] = fc.hom_projcover_pfin(t, max(top, s))
            ref["bimodule"] = {(mu, lam): c for (lam, mu), c in hpp[t].coeffs.items()
                               if lam.size == t and mu.size == s}
        if sf == "proj":
            if op["tgt"] not in homp:
                G = _functor_from_descriptor(op["tgt"], op["N"])
                homp[op["tgt"]] = fc.hom_projcover(fb_module_data(G))
            ref["f_marginal"] = {lam: c for lam, c in homp[op["tgt"]].coeffs.items()
                                 if lam.size == s}
        refs[op["id"]] = {
            name: ([[key(a.parts), key(b.parts), c] for (a, b), c in sorted(v.items()) if c]
                   if name == "bimodule" else {key(a.parts): c for a, c in v.items() if c})
            for name, v in ref.items()
        }
    return refs


def local_references(p: Dict) -> Dict[str, Dict]:
    """Closed-form references computed in the parent, keyed by op id."""
    refs: Dict[str, Dict] = {}
    for op in p["ops"]:
        kind = op["kind"]
        if kind in ("build", "span"):
            refs[op["id"]] = {"dims": [_functor_dim(op["desc"], t) for t in range(op["N"] + 1)]}
        elif kind == "hom":
            sf, s = op["src"].split(":")[0], _degree(op["src"])
            tf, t = op["tgt"].split(":")[0], _degree(op["tgt"])
            if sf == "pbar" and tf == "pfin":
                refs[op["id"]] = {"dim": exact.surjections(t, s)}
            elif sf == "pbar" and tf == "pbar" and s >= t:
                refs[op["id"]] = {"dim": factorial(t) if s == t else 0}
                if s == t:
                    refs[op["id"]]["bimodule"] = [[key(l), key(l), 1] for l in sorted(partitions(t))]
            elif sf == "proj" and tf == "pfin":
                refs[op["id"]] = {"dim": exact.surjections(t, s) + exact.stirling2(t, s + 1)}
        elif kind == "omult":
            # criterion 08: Lambda_bar(n), Lambda_bar(n-1) and C(lam) with mult dim(lam)
            n = op["n"]
            want = {f"L{n}": 1, f"L{n - 1}": 1}
            want.update({"C" + key(l): exact.irr_dim(l) for l in partitions(n) if l != exact.column(n)})
            refs[op["id"]] = {"mults": want}
        elif kind == "mult":
            refs[op["id"]] = {"mults": op["expected"]}
        elif kind in ("tables", "identity", "fs_class", "kfa_class", "hpp"):
            # checked in _check_one against a closed form or the identity itself
            refs[op["id"]] = {"closed_form": kind}
        elif kind == "cli":
            refs[op["id"]] = _cli_reference(op)
    return refs


def _functor_dim(desc: str, t: int) -> int:
    """Dimension on a t-set of a functor named as on the hom command line."""
    family, n = desc.split(":")[0], _degree(desc)
    bar = (t - 1) ** n if t else 0  # reduced tensor power
    return {
        "k": 1, "kbar": int(t > 0), "pfin": t**n, "pbar": bar, "kfi": exact.falling(t, n),
        "lambda": comb(t, n), "lambdabar": comb(t - 1, n) if t else 0,
        # projective cover: exterior power of degree n+1 plus pbar(n) over its exterior part
        "proj": comb(t, n + 1) + bar - (comb(t - 1, n) if t else 0),
    }[family]


def _cli_reference(op: Dict) -> Dict:
    argv, cid = op["argv"], op["id"]
    if cid.startswith("error:"):
        return {"error": True}
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if argv[0] == "groth":
        return {"groth": opt["--identity"]}
    if argv[0] == "verify":
        return {"verify": True}
    if argv[0] == "hom":
        s, t = _degree(opt["--from"]), _degree(opt["--to"])
        if opt["--from"].startswith("proj"):
            dim = exact.surjections(t, s) + exact.stirling2(t, s + 1)
        elif opt["--to"].startswith("pfin"):
            dim = exact.surjections(t, s)
        else:
            dim = factorial(t) if s == t else 0
        return {"rows": [["dimension", str(dim)]]} if opt.get("--format") != "json" else {"json": {"dimension": dim}}
    if argv[0] == "multiplicities":
        mults = op["file"]["module"]["mults"]
        return {"rows": sorted([f"C({l[1:]})" if l.startswith("C") else l, str(m)]
                               for l, m in mults.items())}
    if argv[0] == "simple-eval":
        t = int(opt["--t"])
        lab = ("C" + argv[2]) if argv[1] == "C" else ("L" + argv[2])
        return {"rows": sorted([str(t), "(" + key(mu) + ")", "1"] for mu in exact.simple_eval(lab, t))}
    if argv[0] == "decompose-pfin":
        return {"schur": unkey(argv[1])}
    if argv[0] == "structure-kfi":
        n = int(argv[1])
        rows = [[f"Lambda^{n}(PFA)", "1"]] + [
            [f"C({key(l)})", str(exact.irr_dim(l))] for l in partitions(n) if l != exact.column(n)]
        return {"rows": sorted(rows)}
    raise ValueError(f"no reference for cli op {cid}")


# ---------------------------------------------------------------------------
# Checking


def _marginal(bimodule: List, side: int) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for a, b, m in bimodule:
        mine, other = (a, b) if side == 0 else (b, a)
        out[mine] = out.get(mine, 0) + m * exact.irr_dim(unkey(other))
    return {k: v for k, v in out.items() if v}


def check(op: Dict, answer, refs: List[Dict]) -> bool:
    """True when the op has a reference and the answer matches each one."""
    return bool(refs) and all(_check_one(op, answer, ref) for ref in refs)


def _check_one(op: Dict, answer, ref: Dict) -> bool:
    kind = op["kind"]
    if kind == "hom":
        bim = answer.get("bimodule", [])
        if op["bimodule"] and answer["dim"] and sum(
            m * exact.irr_dim(unkey(a)) * exact.irr_dim(unkey(b)) for a, b, m in bim
        ) != answer["dim"]:
            return False
        if "dim" in ref and ref["dim"] != answer["dim"]:
            return False
        if op["bimodule"]:
            if "bimodule" in ref and sorted(ref["bimodule"]) != bim:
                return False
            if "f_marginal" in ref and ref["f_marginal"] != _marginal(bim, 0):
                return False
            if "g_marginal" in ref and ref["g_marginal"] != _marginal(bim, 1):
                return False
        return True
    if kind in ("build", "span"):
        return answer == ref["dims"]
    if kind in ("omult", "mult"):
        return answer == ref["mults"]
    if kind == "tables":
        return len(answer) == op["T"] + 1 and all(
            exact.check_character_table(n, rows) for n, rows in enumerate(answer))
    if kind == "identity":
        return answer is True
    if kind == "fs_class":
        return _bidegree_dims(answer) == {
            (n, k): exact.surjections(n, k) for n in range(op["T"] + 1) for k in range(op["T"] + 1)
            if exact.surjections(n, k)}
    if kind == "kfa_class":
        return _bidegree_dims(answer) == {
            (n, k): k**n for n in range(op["T"] + 1) for k in range(op["T"] + 1) if k**n}
    if kind == "hpp":
        # dim hom(P_m, pfin(n)) = surj(n -> m) + S(n, m+1)
        n = op["n"]
        dims = {m: d for (_, m), d in _bidegree_dims(answer).items()}
        want = {m: exact.surjections(n, m) + exact.stirling2(n, m + 1) for m in range(op["T"] + 1)}
        return dims == {m: d for m, d in want.items() if d}
    if kind == "cli":
        return _check_cli(answer, ref)
    return False


def _bidegree_dims(coeffs: List) -> Dict:
    out: Dict = {}
    for a, b, c in coeffs:
        la, lb = unkey(a), unkey(b)
        k = (sum(la), sum(lb))
        out[k] = out.get(k, 0) + c * exact.irr_dim(la) * exact.irr_dim(lb)
    return {k: v for k, v in out.items() if v}


def _check_cli(answer: Dict, ref: Dict) -> bool:
    code, out, err = answer["code"], answer["stdout"], answer["stderr"]
    if ref.get("error"):
        if code != 1 or out:
            return False
        try:
            obj = json.loads(err)
        except ValueError:
            return False
        return isinstance(obj, dict) and "error" in obj
    if code != 0 or err:
        return False
    lines = [line for line in out.splitlines() if line]
    rows = [line.split("\t") for line in lines]
    if "groth" in ref:
        if lines and lines[0].startswith("{"):
            obj = json.loads(out)
            return obj.get("identity") == ref["groth"] and obj.get("pass") is True
        return rows == [["identity", ref["groth"], "pass"]]
    if "verify" in ref:
        return bool(rows) and all(len(r) == 3 and r[2] == "pass" for r in rows)
    if "json" in ref:
        return json.loads(out) == ref["json"]
    if "schur" in ref:
        lam = ref["schur"]
        counts = [(label, int(c)) for label, c in rows]
        return all(
            sum(c * exact.proj_label_dim(label, m) for label, c in counts) == exact.schur_dim(lam, m)
            for m in range(7)
        )
    return sorted(rows) == ref["rows"]
