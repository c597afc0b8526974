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


# Each functor family: its oracle builder, and dims[N] of family:n at
# truncation N >= 1 from closed forms, with nothing built.  That is the
# largest dims[t], as every family grows with t.  k, k0 and kbar take no
# degree and have one dimension; kfs, the surjection module of the norm-map
# suite, has no builder that `hom` reaches.
_FAMILIES = {
    "k": ("build_const_k", None),
    "k0": ("build_k0", None),
    "kbar": ("build_kbar", None),
    "pfin": ("build_pfin", lambda n, N: N ** n),
    "pbar": ("build_pbar_tensor", lambda n, N: (N - 1) ** n),
    "kfi": ("build_kfi", lambda n, N: perm(N, n)),
    "kfs": (None, lambda n, N: fc.surjection_count(N, n)),
    "lambda": ("build_lambda_pfin", lambda n, N: comb(N, n)),
    "lambdabar": ("build_lambda_pbar", lambda n, N: comb(N - 1, n)),
    # the exterior part plus the tensor power modulo its top exterior summand
    "proj": ("build_proj_cover", lambda n, N: comb(N, n + 1) + (N - 1) ** n - comb(N - 1, n)),
}


def _parse_descriptor(desc: str) -> Tuple[str, Optional[int]]:
    """(family, degree) of a functor descriptor such as 'pbar:2' or 'k';
    checks family and degree without loading the oracle."""
    if desc in _FAMILIES and _FAMILIES[desc][1] is None:
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
    if head not in _FAMILIES:
        raise CliError(f"unknown functor family {head!r}")
    build, dims = _FAMILIES[head]
    if dims is None:
        raise CliError(f"functor family {head!r} takes no degree")
    if build is None:
        raise CliError(f"functor family {head!r} has no oracle builder")
    return head, n


# The budget of a call's functors: the largest dims[t] of each, and the
# number of generator moves at the truncation.  As the source of a solve, a
# functor with 2,401 dimensions at its top size (pbar:4 at truncation 8,
# into kfi:4 or pbar:4) takes 1.6-2.2 s and peaks at 0.58-0.83 GB of RSS;
# every family of degree <= 4 fits up to truncation 7.
_BUDGET = 2500


def _admit(flag: str, N: int, functors: List[Tuple[str, Optional[int]]]) -> None:
    """Refuses, before anything is built, a truncation N with more than
    _BUDGET generator moves, or a functor with more than _BUDGET dimensions
    at size N.  Below 2, and for a degree above N, the builders refuse or
    build nothing large; an ungraded family has one dimension."""
    if N < 2 or not functors:
        return
    moves = N * (N - 1) // 2 + 2 * N - 1
    if moves > _BUDGET:
        raise CliError(f"{flag} {N}: {moves} generator moves, above the budget of {_BUDGET}")
    for head, n in functors:
        if n is None or n > N:
            continue
        d = _FAMILIES[head][1](n, N)
        if d > _BUDGET:
            raise CliError(f"{flag} {N}: {head}:{n} has {d} dimensions at size {N}, "
                           f"above the budget of {_BUDGET}")


def _functor_from_descriptor(desc: str, N: int):
    head, n = _parse_descriptor(desc)
    from . import oracle

    build = getattr(oracle, _FAMILIES[head][0])
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


def _pbar_hom(oracle, N: int, ns, seed: int) -> List:
    pbar = [oracle.build_pbar_tensor(n, N) for n in ns]
    reports = []
    for s in ns:
        for t in range(0, s + 1):
            d = oracle.nat_hom(pbar[s], pbar[t]).dimension
            expected = factorial(s) if s == t else 0
            reports.append(
                fc.Report("hom_tensor_vanishing", {"s": s, "t": t, "N": N}, expected, d, d == expected)
            )
    return reports


def _groth(oracle, N: int, ns, seed: int) -> List:
    if N < 1:
        raise CliError(f"suite 'groth' checks no identity at --max-size {N}")
    _check_degree_bound("--max-size", N)
    reports = []
    for k in ns:
        ok = all(
            lhs == rhs
            for lhs, rhs in (_IDENTITIES[name](k, N) for name in ("W", "H", "hook-inversion"))
        )
        reports.append(fc.Report("groth_identities", {"k": k, "N": N}, True, ok, ok))
    # randomized round trip
    rng = random.Random(seed)
    for trial in range(3):
        coeffs = {}
        for _ in range(4):
            n = rng.randint(0, max(0, N - 2))
            lam = rng.choice(list(partitions_of(n)))
            coeffs[lam] = coeffs.get(lam, 0) + rng.randint(-3, 3)
        a = fg.VirtualFB(max(0, N - 2), coeffs)
        ok = fg.invert_triv(fg.day(a, fg.triv_class(a.trunc))) == a
        reports.append(fc.Report("invert_round_trip", {"trial": trial, "seed": seed}, True, ok, ok))
    return reports


def _kfs_cross(oracle, N: int, ns, seed: int) -> List:
    reports = []
    for n in ns:
        try:
            fc.fs_class(n, cross_check=True)
            reports.append(fc.Report("kfs_cross", {"N": n}, True, True, True))
        except fc.VerificationError as exc:
            reports.append(fc.Report("kfs_cross", {"N": n}, True, str(exc), False))
    return reports


def _idempotent_degrees(N: int) -> range:
    """pi_n's square has 4^n terms: past n = 8, refused before the oracle loads."""
    if N > 8:
        raise CliError(f"suite 'idempotent' expands pi_n only up to --max-size 8, got {N}")
    return range(N + 1)


# Each verify suite at --max-size N as (degrees, families, checks): the
# degrees ns it checks; the functor families it builds in each of them,
# which _admit sizes before anything is built, or None for a symbolic suite,
# which loads no oracle; and checks(oracle, N, ns, seed), its reports.  The
# checks look up the oracle's functions when they run.
_SUITES = {
    "idempotent": (_idempotent_degrees, (), lambda oracle, N, ns, seed: [
        oracle.pi_idempotent_check(n, image_sizes=[2, 3] if n <= 2 else None) for n in ns
    ]),
    "lambda-complex": (lambda N: range(N + 1), ("lambda",), lambda oracle, N, ns, seed: [
        oracle.verify_lambda_complex(N)
    ]),
    "norm-map": (lambda N: range(1, min(3, N - 1) + 1), ("kfi", "kfs"), lambda oracle, N, ns, seed: [
        oracle.verify_norm_map(n, N) for n in ns
    ]),
    "right-aug": (lambda N: range(min(3, N - 2) + 1), ("pbar", "pfin"), lambda oracle, N, ns, seed: [
        oracle.verify_right_aug(n, t, N) for n in ns for t in ns
    ]),
    "pbar-hom": (lambda N: range(min(3, N - 2) + 1), ("pbar",), _pbar_hom),
    "groth": (lambda N: range(min(8, N - 1) + 1), None, _groth),
    # one size, capped at 6; a negative size runs no check
    "kfs-cross": (lambda N: [min(N, 6)] if N >= 0 else [], None, _kfs_cross),
}


def _verify_suite(args) -> Tuple[List, int]:
    """Returns (reports, exit_code).  Only the oracle suites load the oracle."""
    if args.suite not in _SUITES:
        raise CliError(f"unknown suite {args.suite!r}")
    degrees, families, checks = _SUITES[args.suite]
    N = args.max_size
    ns, oracle = degrees(N), None
    if families is not None:
        _admit("--max-size", N, [(f, n) for n in ns for f in families])
        from . import oracle
    reports = checks(oracle, N, ns, args.seed)
    if not reports:
        raise CliError(f"suite {args.suite!r} runs no check at --max-size {N}")
    return reports, (2 if any(not r.passed for r in reports) else 0)


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
    formats = _Parser(add_help=False)
    formats.add_argument("--format", choices=["json", "tsv"], default="tsv")
    truncs = _Parser(add_help=False)
    truncs.add_argument("--trunc", type=decimal_int, default=default_trunc)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[formats, *parents])
        p.set_defaults(func=func)
        return p

    p = command("simple-eval", cmd_simple_eval, "evaluate a simple module on a t-set")
    p.add_argument("kind", choices=["C", "L", "k0"])
    p.add_argument("arg", nargs="?", default=None)
    p.add_argument("--t", type=decimal_int, required=True)

    p = command("decompose-pfin", cmd_decompose_pfin, "split a Schur-projective")
    p.add_argument("partition")

    p = command("structure-kfi", cmd_structure_kfi, "summands of an injection module")
    p.add_argument("n", type=decimal_int)

    p = command("multiplicities", cmd_multiplicities, "composition factors from data")
    p.add_argument("--input", required=True)

    p = command("hom", cmd_hom, "oracle hom-space dimension", truncs)
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--to", required=True)

    p = command("groth", cmd_groth, "check a Grothendieck-group identity", truncs)
    p.add_argument("--identity", required=True)
    p.add_argument("--k", type=decimal_int, default=0)

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-size", type=decimal_int, default=default_trunc)
    p.add_argument("--seed", type=decimal_int, default=0)

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
    except (CliError, ValueError, fc.VerificationError, *_oracle_errors()) as exc:
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
