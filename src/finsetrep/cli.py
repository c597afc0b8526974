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
from math import comb, factorial, perm
from typing import Dict, List, Optional, Tuple

from . import facalc as fc
from . import fbgroth as fg
from . import symrep as sr
from .partitions import decimal_int, display, parse, partitions_of

DEFAULT_TRUNC_ENV = "FINSETREP_TRUNC"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _emit_rows(rows: List[Tuple], fmt: str, json_key: str) -> str:
    if fmt == "tsv":
        return "\n".join("\t".join(str(x) for x in row) for row in rows)
    return json.dumps({json_key: [list(r) for r in rows]}, sort_keys=True)


def _simple_label_from_args(kind: str, arg: Optional[str]) -> fc.SimpleLabel:
    # argparse admits the kinds C, L and k0 only; k0 alone takes no argument
    if kind == "k0":
        if arg is not None:
            raise CliError("label k0 takes no argument")
        return fc.SimpleLabel.K0()
    if arg is None:
        raise CliError(f"label {kind} needs a {'partition' if kind == 'C' else 'degree'} argument")
    return fc.SimpleLabel.C(parse(arg)) if kind == "C" else fc.SimpleLabel.L(decimal_int(arg))


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
        n = decimal_int(num)
    except ValueError:
        raise CliError(f"bad functor descriptor {desc!r}")
    if n < 0:
        raise CliError(f"bad functor descriptor {desc!r}: the degree must be non-negative")
    if head not in _BUILDERS or head in _UNGRADED:
        raise CliError(f"unknown functor family {head!r}")
    return head, n


# The budget of a call's functors: the largest dims[t] of each, and the
# number of generator moves at the truncation.  As the source of a solve, a
# functor with 2,401 dimensions at its top size (pbar:4 at truncation 8,
# into kfi:4 or pbar:4) takes 1.6-2.2 s and peaks at 0.58-0.83 GB of RSS;
# every family of degree <= 4 fits up to truncation 7.
_BUDGET = 2500


def _largest_dim(head: str, n: Optional[int], N: int) -> int:
    """dims[N] of the functor family:n at truncation N >= 1, from closed
    forms, with nothing built: the largest dims[t], as every family grows
    with t.  kfs is the surjection module of the norm-map suite."""
    if n is None:
        return 1
    return {
        "pfin": lambda: N ** n,
        "pbar": lambda: (N - 1) ** n,
        "kfi": lambda: perm(N, n),
        "kfs": lambda: fc.surjection_count(N, n),
        "lambda": lambda: comb(N, n),
        "lambdabar": lambda: comb(N - 1, n),
        # the exterior part plus the tensor power modulo its top exterior summand
        "proj": lambda: comb(N, n + 1) + (N - 1) ** n - comb(N - 1, n),
    }[head]()


def _admit(flag: str, N: int, functors: List[Tuple[str, Optional[int]]]) -> None:
    """Refuses, before anything is built, a truncation N with more than
    _BUDGET generator moves, or a functor with more than _BUDGET dimensions
    at size N.  Below 2, and for a degree above N, the builders refuse or
    build nothing large."""
    if N < 2 or not functors:
        return
    moves = N * (N - 1) // 2 + 2 * N - 1
    if moves > _BUDGET:
        raise CliError(f"{flag} {N}: {moves} generator moves, above the budget of {_BUDGET}")
    for head, n in functors:
        if n is not None and n > N:
            continue
        d = _largest_dim(head, n, N)
        if d > _BUDGET:  # never an ungraded family: they have one dimension
            raise CliError(f"{flag} {N}: {head}:{n} has {d} dimensions at size {N}, "
                           f"above the budget of {_BUDGET}")


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
        for lam, m in sorted(dec.mults.items())
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
    _admit("--trunc", args.trunc, [_parse_descriptor(desc) for desc in descs])
    from .oracle import nat_hom

    F, G = (_functor_from_descriptor(desc, args.trunc) for desc in descs)
    res = nat_hom(F, G)
    if args.format == "tsv":
        return f"dimension\t{res.dimension}"
    return json.dumps({"dimension": res.dimension}, sort_keys=True)


# The Grothendieck identities at (k, N), each as (lhs, rhs); `groth` checks
# one of them, and `verify --suite groth` all but invert-triv.
_IDENTITIES = {
    "invert-triv": lambda k, N: (fg.invert_triv(fg.triv_class(N)), fg.unit(N)),
    "W": lambda k, N: (fg.series_S(k, N) + fg.series_S(k + 1, N), fg.sgn_class(k, N)),
    "H": lambda k, N: (
        fg.series_H(k, N) + fg.series_H(k + 1, N),
        fg.day(fg.sgn_class(k, N), fg.triv_class(N)),
    ),
    "hook-inversion": lambda k, N: (fg.invert_triv(fg.series_H(k, N)), fg.series_S(k, N)),
}


def _check_degree_bound(flag: str, N: int) -> None:
    """Refuses a truncation above the symmetric-group degree bound before
    any series is built: the series grow quadratically with it."""
    if N > sr.degree_bound():
        raise CliError(f"{flag} {N} exceeds the degree bound {sr.degree_bound()}")


def cmd_groth(args) -> str:
    N = args.trunc
    k = args.k
    name = args.identity
    for flag, value in (("--k", k), ("--trunc", N)):
        if value < 0:
            raise CliError(f"{flag} must be non-negative")
    if k > N:
        raise CliError(f"--k {k} exceeds --trunc {N}")
    _check_degree_bound("--trunc", N)
    if name not in _IDENTITIES:
        raise CliError(f"unknown identity {name!r}")
    lhs, rhs = _IDENTITIES[name](k, N)
    ok = lhs == rhs
    if args.format == "tsv":
        return f"identity\t{name}\t{'pass' if ok else 'FAIL'}"
    return json.dumps(
        {"identity": name, "k": k, "trunc": N, "pass": ok}, sort_keys=True
    )


# The functors each oracle suite builds at --max-size N, as (family, degree)
_ORACLE_SUITES = {
    "idempotent": lambda N: [],
    "lambda-complex": lambda N: [("lambda", k) for k in range(N + 1)],
    "norm-map": lambda N: [(f, n) for n in range(1, min(3, N - 1) + 1) for f in ("kfi", "kfs")],
    "right-aug": lambda N: [(f, n) for n in range(min(3, N - 2) + 1) for f in ("pbar", "pfin")],
    "pbar-hom": lambda N: [("pbar", s) for s in range(min(3, N - 2) + 1)],
}
_SYMBOLIC_SUITES = ("groth", "kfs-cross")


def _verify_suite(args) -> Tuple[List, int]:
    """Returns (reports, exit_code).  Only the oracle suites load the oracle."""
    suite = args.suite
    if suite not in (*_ORACLE_SUITES, *_SYMBOLIC_SUITES):
        raise CliError(f"unknown suite {suite!r}")
    N = args.max_size
    if suite in _ORACLE_SUITES:
        _admit("--max-size", N, _ORACLE_SUITES[suite](N))
        from . import oracle
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
        _check_degree_bound("--max-size", N)
        for k in range(0, min(8, N - 1) + 1):
            ok = all(
                lhs == rhs
                for lhs, rhs in (_IDENTITIES[name](k, N) for name in ("W", "H", "hook-inversion"))
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
    elif N >= 0:  # kfs-cross; a negative size runs no check
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
        default_trunc = decimal_int(env_trunc)
    except ValueError:
        raise CliError(f"{DEFAULT_TRUNC_ENV} must be an integer, got {env_trunc!r}") from None
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "tsv"], default="tsv")
        p.add_argument("--trunc", type=decimal_int, default=default_trunc)
        p.add_argument("--seed", type=decimal_int, default=0)

    p = sub.add_parser("simple-eval", help="evaluate a simple module on a t-set")
    p.add_argument("kind", choices=["C", "L", "k0"])
    p.add_argument("arg", nargs="?", default=None)
    p.add_argument("--t", type=decimal_int, required=True)
    common(p)
    p.set_defaults(func=cmd_simple_eval)

    p = sub.add_parser("decompose-pfin", help="split a Schur-projective")
    p.add_argument("partition")
    common(p)
    p.set_defaults(func=cmd_decompose_pfin)

    p = sub.add_parser("structure-kfi", help="summands of an injection module")
    p.add_argument("n", type=decimal_int)
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
    p.add_argument("--k", type=decimal_int, default=0)
    common(p)
    p.set_defaults(func=cmd_groth)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-size", type=decimal_int, default=default_trunc)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _oracle_errors() -> Tuple[type, ...]:
    """OracleError once the oracle is loaded; nothing else can raise it."""
    oracle = sys.modules.get("finsetrep.oracle")
    return (oracle.OracleError,) if oracle else ()


def main(argv: Optional[List[str]] = None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads: the BLAS products are small
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
    except (CliError, ValueError, sr.DegreeBoundError, fc.VerificationError, *_oracle_errors()) as exc:
        error = str(exc)
    except MemoryError:
        error = "out of memory: lower --trunc or --max-size"
    else:
        out, code = result if isinstance(result, tuple) else (result, 0)
        print(out)
        return code
    print(json.dumps({"error": error}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
