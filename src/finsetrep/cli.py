"""Command-line interface.

Commands expose the closed-form calculus (simple evaluations, projective
decompositions, composition multiplicities, Grothendieck identities) and
the brute-force verification suites.  Output is deterministic for fixed
flags and seed: rows are canonically ordered, JSON keys are sorted.

Exit codes: 0 success; 1 invalid input (structured error on stderr);
2 a verification suite found a counterexample (its claim id is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import factorial
from typing import Dict, List, Optional, Tuple

from . import facalc as fc
from . import fbgroth as fg
from . import symrep as sr
from .partitions import Partition, display, parse, partitions_of

DEFAULT_TRUNC_ENV = "FINSETREP_TRUNC"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _partition_sort_key(lam: Partition):
    return (lam.size, tuple(-p for p in lam.parts))


def _emit_rows(rows: List[Tuple], fmt: str, json_key: str) -> str:
    if fmt == "tsv":
        return "\n".join("\t".join(str(x) for x in row) for row in rows)
    return json.dumps({json_key: [list(r) for r in rows]}, sort_keys=True)


def _simple_label_from_args(kind: str, arg: Optional[str]) -> fc.SimpleLabel:
    if kind == "C":
        if arg is None:
            raise CliError("label C needs a partition argument")
        return fc.SimpleLabel.C(parse(arg))
    if kind == "L":
        if arg is None:
            raise CliError("label L needs a degree argument")
        return fc.SimpleLabel.L(int(arg))
    if kind == "k0":
        return fc.SimpleLabel.K0()
    raise CliError(f"unknown simple label kind {kind!r}")


# The oracle builder of each functor family; k, k0 and kbar take no degree.
_BUILDERS = {
    "k": "build_const_k",
    "k0": "build_k0",
    "kbar": "build_kbar",
    "pfin": "build_pfin",
    "pbar": "build_pbar_tensor",
    "kfi": "build_kfi",
    "lambda": "build_lambda_pfin",
    "lambdabar": "build_lambda_pbar",
    "proj": "build_proj_cover",
}
_UNGRADED = ("k", "k0", "kbar")


def _parse_descriptor(desc: str) -> Tuple[str, Optional[int]]:
    """(family, degree) of a functor descriptor such as 'pbar:2' or 'k';
    checks family and degree without loading the oracle."""
    if desc in _UNGRADED:
        return desc, None
    if ":" not in desc:
        raise CliError(f"bad functor descriptor {desc!r}")
    head, _, num = desc.partition(":")
    try:
        n = int(num)
    except ValueError:
        raise CliError(f"bad functor descriptor {desc!r}")
    if n < 0:
        raise CliError(f"bad functor descriptor {desc!r}: the degree must be non-negative")
    if head not in _BUILDERS or head in _UNGRADED:
        raise CliError(f"unknown functor family {head!r}")
    return head, n


def _functor_from_descriptor(desc: str, N: int):
    head, n = _parse_descriptor(desc)
    from . import oracle

    build = getattr(oracle, _BUILDERS[head])
    return build(N) if n is None else build(n, N)


# ---------------------------------------------------------------------------
# Commands


def cmd_simple_eval(args) -> str:
    label = _simple_label_from_args(args.kind, args.arg)
    t = args.t
    if t < 0:
        raise CliError("--t must be non-negative")
    dec = fc.simple_eval(label, t)
    rows = [
        (t, display(lam), m)
        for lam, m in sorted(dec.mults.items(), key=lambda kv: _partition_sort_key(kv[0]))
    ]
    return _emit_rows(rows, args.format, "values")


def cmd_decompose_pfin(args) -> str:
    lam = parse(args.partition)
    if lam.size == 0:
        raise CliError("needs a partition of a positive integer")
    labels = fc.decompose_schur_pfin(lam)
    counts: Dict[str, int] = {}
    for l in labels:
        counts[str(l)] = counts.get(str(l), 0) + 1
    rows = sorted(counts.items())
    return _emit_rows(rows, args.format, "summands")


def cmd_structure_kfi(args) -> str:
    proj, simples = fc.structure_kfi(args.n)
    rows = [(str(proj), 1)]
    rows += sorted((str(k), v) for k, v in simples.items())
    return _emit_rows(rows, args.format, "summands")


def cmd_multiplicities(args) -> str:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        F = fc.FBModuleData.from_json(data)
    except (AttributeError, OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad input file: {exc}")
    mults = fc.multiplicities(F)
    fc.check_multiplicity_dimensions(F, mults)
    rows = sorted((str(k), v) for k, v in mults.items())
    return _emit_rows(rows, args.format, "multiplicities")


def cmd_hom(args) -> str:
    descs = (getattr(args, "from"), args.to)
    for desc in descs:
        _parse_descriptor(desc)
    from .oracle import nat_hom

    F, G = (_functor_from_descriptor(desc, args.trunc) for desc in descs)
    res = nat_hom(F, G)
    if args.format == "tsv":
        return f"dimension\t{res.dimension}"
    return json.dumps({"dimension": res.dimension}, sort_keys=True)


def cmd_groth(args) -> str:
    N = args.trunc
    k = args.k
    name = args.identity
    if k < 0:
        raise CliError("--k must be non-negative")
    if name == "invert-triv":
        lhs = fg.invert_triv(fg.triv_class(N))
        rhs = fg.unit(N)
    elif name == "W":
        lhs = fg.series_S(k, N) + fg.series_S(k + 1, N)
        rhs = fg.sgn_class(k, N)
    elif name == "H":
        lhs = fg.series_H(k, N) + fg.series_H(k + 1, N)
        rhs = fg.day(fg.sgn_class(k, N), fg.triv_class(N))
    elif name == "hook-inversion":
        lhs = fg.invert_triv(fg.series_H(k, N))
        rhs = fg.series_S(k, N)
    else:
        raise CliError(f"unknown identity {name!r}")
    ok = lhs == rhs
    if args.format == "tsv":
        return f"identity\t{name}\t{'pass' if ok else 'FAIL'}"
    return json.dumps(
        {"identity": name, "k": k, "trunc": N, "pass": ok}, sort_keys=True
    )


_ORACLE_SUITES = ("idempotent", "lambda-complex", "norm-map", "right-aug", "pbar-hom")
_SYMBOLIC_SUITES = ("groth", "kfs-cross")


def _verify_suite(args) -> Tuple[List, int]:
    """Returns (reports, exit_code).  Only the oracle suites load the oracle."""
    suite = args.suite
    if suite not in _ORACLE_SUITES + _SYMBOLIC_SUITES:
        raise CliError(f"unknown suite {suite!r}")
    if suite in _ORACLE_SUITES:
        from . import oracle
    N = args.max_size
    rng = random.Random(args.seed)
    reports: List = []

    if suite == "idempotent":
        for n in range(0, N + 1):
            reports.append(oracle.pi_idempotent_check(n, image_sizes=[2, 3] if n <= 2 else None))
    elif suite == "lambda-complex":
        reports.append(oracle.verify_lambda_complex(N))
    elif suite == "norm-map":
        for n in range(1, min(3, N - 1) + 1):
            reports.append(oracle.verify_norm_map(n, N))
    elif suite == "right-aug":
        for n in range(0, min(3, N - 2) + 1):
            for t in range(0, min(3, N - 2) + 1):
                reports.append(oracle.verify_right_aug(n, t, N))
    elif suite == "pbar-hom":
        for s in range(0, min(3, N - 2) + 1):
            for t in range(0, s + 1):
                d = oracle.nat_hom(
                    oracle.build_pbar_tensor(s, N), oracle.build_pbar_tensor(t, N)
                ).dimension
                expected = factorial(s) if s == t else 0
                reports.append(
                    fc.Report(
                        "hom_tensor_vanishing",
                        {"s": s, "t": t, "N": N},
                        expected,
                        d,
                        d == expected,
                    )
                )
    elif suite == "groth":
        if N < 1:
            raise CliError(f"suite 'groth' checks no identity at --max-size {N}")
        for k in range(0, min(8, N - 1) + 1):
            ok = (
                fg.series_S(k, N) + fg.series_S(k + 1, N) == fg.sgn_class(k, N)
                and fg.series_H(k, N) + fg.series_H(k + 1, N)
                == fg.day(fg.sgn_class(k, N), fg.triv_class(N))
                and fg.invert_triv(fg.series_H(k, N)) == fg.series_S(k, N)
            )
            reports.append(fc.Report("groth_identities", {"k": k, "N": N}, True, ok, ok))
        # randomized round trip
        for trial in range(3):
            coeffs = {}
            for _ in range(4):
                n = rng.randint(0, max(0, N - 2))
                lam = rng.choice(list(partitions_of(n)))
                coeffs[lam] = coeffs.get(lam, 0) + rng.randint(-3, 3)
            a = fg.VirtualFB(max(0, N - 2), coeffs)
            ok = fg.invert_triv(fg.day(a, fg.triv_class(a.trunc))) == a
            reports.append(
                fc.Report("invert_round_trip", {"trial": trial, "seed": args.seed}, True, ok, ok)
            )
    else:  # kfs-cross
        try:
            fc.fs_class(min(N, 6), cross_check=True)
            reports.append(fc.Report("kfs_cross", {"N": min(N, 6)}, True, True, True))
        except fc.VerificationError as exc:
            reports.append(fc.Report("kfs_cross", {"N": min(N, 6)}, True, str(exc), False))
    if not reports:
        raise CliError(f"suite {suite!r} runs no check at --max-size {N}")

    failed = [r for r in reports if not r.passed]
    return reports, (2 if failed else 0)


def cmd_verify(args) -> Tuple[str, int]:
    reports, code = _verify_suite(args)
    if args.format == "tsv":
        lines = []
        for r in reports:
            lines.append(
                "\t".join(
                    [
                        r.claim,
                        json.dumps(r.parameters, sort_keys=True),
                        "pass" if r.passed else "FAIL",
                    ]
                )
            )
        out = "\n".join(lines)
    else:
        out = json.dumps([r.to_json() for r in reports], sort_keys=True)
    if code == 2:
        first = next(r for r in reports if not r.passed)
        out += f"\ncounterexample: {first.claim} {json.dumps(first.parameters, sort_keys=True)}"
    return out, code


def build_parser() -> _Parser:
    parser = _Parser(prog="finsetrep", description=__doc__)
    env_trunc = os.environ.get(DEFAULT_TRUNC_ENV, "6")
    try:
        default_trunc = int(env_trunc)
    except ValueError:
        raise CliError(f"{DEFAULT_TRUNC_ENV} must be an integer, got {env_trunc!r}") from None
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "tsv"], default="tsv")
        p.add_argument("--trunc", type=int, default=default_trunc)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simple-eval", help="evaluate a simple module on a t-set")
    p.add_argument("kind", choices=["C", "L", "k0"])
    p.add_argument("arg", nargs="?", default=None)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_simple_eval)

    p = sub.add_parser("decompose-pfin", help="split a Schur-projective")
    p.add_argument("partition")
    common(p)
    p.set_defaults(func=cmd_decompose_pfin)

    p = sub.add_parser("structure-kfi", help="summands of an injection module")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_structure_kfi)

    p = sub.add_parser("multiplicities", help="composition factors from data")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_multiplicities)

    p = sub.add_parser("hom", help="oracle hom-space dimension")
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--to", required=True)
    common(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("groth", help="check a Grothendieck-group identity")
    p.add_argument("--identity", required=True)
    p.add_argument("--k", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_groth)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-size", type=int, default=default_trunc)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _oracle_errors() -> Tuple[type, ...]:
    """OracleError once the oracle is loaded; nothing else can raise it."""
    oracle = sys.modules.get("finsetrep.oracle")
    return (oracle.OracleError,) if oracle else ()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, sr.DegreeBoundError, fc.VerificationError, *_oracle_errors()) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        out, code = result
        print(out)
        return code
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
