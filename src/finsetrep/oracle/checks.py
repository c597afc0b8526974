"""Brute-force verification checks against first principles.

Each check computes both sides of a structural claim with exact
arithmetic: the explicit idempotent and its image, the identification of
maps out of reduced tensor powers with surjection spaces, hom-spaces out
of exterior powers via the signed-inclusion complex, exactness of the
exterior-power complex, the norm-like map's kernel, and composition-factor
multiplicities read off from hom-spaces out of projective covers.  Every
matrix on a basis of tuples is one functors._TupleBasis lookup of the
tuples' signed images, which counts a tuple outside the basis as zero.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, perm
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..partitions import one_column, partitions_of
from ..symrep import ClassFunction, decompose
from ..facalc import Report, SimpleLabel, surjection_count
from . import linalg
from .functors import (
    OracleError,
    SpMat,
    TruncatedFunctor,
    _TupleBasis,
    _check_truncation,
    _difference_terms,
    _tuples,
    build_lambda_pbar,
    build_lambda_pfin,
    build_pbar_tensor,
    build_pfin,
    build_proj_cover,
    inner_class,
    is_natural,
    map_matrix,
    sgn_coinvariant_reduction,
)
from .nathom import nat_hom


# ---------------------------------------------------------------------------
# The explicit idempotent


def pi_element(n: int) -> Dict[Tuple[int, ...], int]:
    """The alternating-sum idempotent in the linearized self-maps of a set
    with n+1 elements: sum over Y of subsets of {1..n} of (-1)^|Y| [f_Y],
    where f_Y collapses Y to the base point 0."""
    out: Dict[Tuple[int, ...], int] = {}
    for r in range(n + 1):
        for Y in itertools.combinations(range(1, n + 1), r):
            f = tuple(0 if i in Y else i for i in range(n + 1))
            out[f] = out.get(f, 0) + (-1) ** r
    return {f: c for f, c in out.items() if c}


def _compose_elements(
    a: Dict[Tuple[int, ...], int], b: Dict[Tuple[int, ...], int]
) -> Dict[Tuple[int, ...], int]:
    out: Dict[Tuple[int, ...], int] = {}
    for f, cf in a.items():
        for g, cg in b.items():
            h = tuple(f[g[i]] for i in range(len(g)))
            out[h] = out.get(h, 0) + cf * cg
    return {h: c for h, c in out.items() if c}


def pi_idempotent_check(n: int, image_sizes: Optional[List[int]] = None) -> Report:
    """pi_n o pi_n == pi_n coefficientwise; optionally also verify that
    pi_n projects the degree-(n+1) standard projective onto the expected
    split summand at the given set sizes."""
    if n > 8:
        raise ValueError("n <= 8 for the symbolic expansion")
    pi = pi_element(n)
    square = _compose_elements(pi, pi)
    ok = square == pi
    details = {"terms": len(pi)}
    if ok and image_sizes:
        for t in image_sizes:
            # pi_n acting on the tuples of length n+1 over t points, by
            # precomposition, and its expected image dimension t*(t-1)^n
            tuples = _tuples(itertools.product(range(t), repeat=n + 1), n + 1)
            target = _TupleBasis(tuples, t)
            M = target.matrix(len(tuples), [(tuples[:, list(f)], c) for f, c in pi.items()])
            expected_rank = t * (t - 1) ** n if t >= 1 else 0
            r = linalg.rank(M)
            idem = M.compose(M).equals(M)
            # the image of the idempotent is the span of E, of the expected rank
            E = _split_summand(n, t, target)
            EM = SpMat.from_dense(np.hstack([E.int_rows(), M.int_rows()]))
            span_ok = linalg.rank(E) == expected_rank == linalg.rank(EM)
            details[f"size_{t}"] = {
                "rank": r,
                "expected_rank": expected_rank,
                "matrix_idempotent": idem,
                "span_matches": span_ok,
            }
            ok = ok and r == expected_rank and idem and span_ok
    return Report(
        "pi_idempotent", {"n": n, "image_sizes": image_sizes or []}, True, details if not ok else True, ok
    )


def _split_summand(n: int, t: int, target: _TupleBasis) -> SpMat:
    """The vectors [x0] (x) prod([y_i] - [x0]) of tuples of length n+1 over
    t points, for every x0 and every y in the other points^n, as the
    columns of a SpMat over the target basis, which drops the tuples
    outside it."""
    rows = _tuples(((x0,) + y for x0 in range(t)
                    for y in itertools.product([v for v in range(t) if v != x0], repeat=n)), n + 1)
    x0 = rows[:, :1]
    return target.matrix(len(rows), [(np.hstack([x0, images]), sign)
                                     for images, sign in _difference_terms(rows[:, 1:], x0)])


# ---------------------------------------------------------------------------
# The right augmentation


def verify_right_aug(n: int, t: int, N: int) -> Report:
    """dim hom(reduced tensor power n, standard projective t) equals the
    surjection count t -> n, with the restriction map from degree-n Yoneda
    morphisms having kernel exactly the non-surjective maps."""
    F = build_pbar_tensor(n, N)
    G = build_pfin(t, N)
    res = nat_hom(F, G)
    expected = surjection_count(t, n)
    details: Dict[str, object] = {"dim": res.dimension, "expected_dim": expected}
    ok = res.dimension == expected

    if ok and n >= 1:
        # the coordinates of each Yoneda morphism, restricted to the
        # subfunctor, over the solution basis: the generator of the reduced
        # tensor power inside tuples over {0..n}, sent along alpha
        w = _difference_terms(np.arange(1, n + 1)[None], 0)
        alphas = _tuples(itertools.product(range(n), repeat=t), t)
        tuples = _tuples(itertools.product(range(n + 1), repeat=t), t)
        A = _TupleBasis(tuples, n + 1).matrix(len(alphas), [(tup[0, alphas], sign) for tup, sign in w]).int_rows()
        try:
            Y, _ = res.coordinates(A)
        except OracleError:
            return Report("realize_right_aug", {"n": n, "t": t, "N": N}, expected,
                          "a restricted Yoneda morphism is no natural transformation", False)
        nonsurjective = np.array([len(set(alpha)) < n for alpha in alphas.tolist()], dtype=bool)
        rank = linalg.rank(SpMat.from_dense(Y))
        ker_dim = len(alphas) - rank
        n_nonsurj = int(nonsurjective.sum())
        ok_kernel = ker_dim == n_nonsurj and not Y[:, nonsurjective].any()
        rank_ok = rank == expected
        details.update({"kernel_dim": ker_dim, "nonsurjective": n_nonsurj,
                        "kernel_is_nonsurjective_span": ok_kernel,
                        "image_rank_matches": rank_ok})
        ok = ok and ok_kernel and rank_ok
    return Report("realize_right_aug", {"n": n, "t": t, "N": N}, expected,
                  details, ok)


# ---------------------------------------------------------------------------
# Hom out of exterior powers via the signed-inclusion complex


def _ordered_inclusion(t: int, v: int) -> Tuple[int, ...]:
    """The order-preserving inclusion t -> t+1 missing the point v."""
    return tuple(j if j < v else j + 1 for j in range(t))


def sigma_matrix(F: TruncatedFunctor, t: int) -> SpMat:
    """Signed sum over order-preserving inclusions t -> t+1 of F's action;
    the sign is that of the unique automorphism extension."""
    total = SpMat.zeros(F.dims[t + 1], F.dims[t])
    for v in range(t + 1):
        m = map_matrix(F, _ordered_inclusion(t, v), t, t + 1)
        total = total + m.scale((-1) ** (t - v))
    return total


def hom_from_lambda_bar(F: TruncatedFunctor, s: int) -> int:
    """dim hom(Lambda^s of the reduced projective, F), computed as the
    kernel of the signed-inclusion map between sign-coinvariants of
    F(s+1) and F(s+2), and checked against a direct solve."""
    if F.N < s + 2:
        raise OracleError("needs truncation >= s+2")
    relations1, _, free1 = sgn_coinvariant_reduction(F, s + 1)
    _, proj2, _ = sgn_coinvariant_reduction(F, s + 2)
    M = sigma_matrix(F, s + 1)

    # well-definedness: relation span at s+1 must map into relation span
    if not proj2.compose(M.compose(relations1)).is_zero():
        raise OracleError("sigma map does not descend to coinvariants")
    dim = len(free1) - linalg.rank(proj2.compose(M.compose(SpMat.unit_columns(F.dims[s + 1], free1))))
    direct = nat_hom(build_lambda_pbar(s, F.N), F).dimension
    if direct != dim:
        raise OracleError(f"kernel method gives {dim}, direct solve gives {direct}")
    return dim


# ---------------------------------------------------------------------------
# The exterior-power complex


def lambda_boundary(N: int, t: int) -> List[SpMat]:
    """The contraction map from the t-th to the (t-1)-st exterior power of
    the standard projective, one matrix per set size <= N."""
    mats = []
    for m in range(N + 1):
        top = _tuples(itertools.combinations(range(m), t), t)
        bottom = _TupleBasis(_tuples(itertools.combinations(range(m), t - 1), t - 1), m)
        mats.append(bottom.matrix(len(top), [(np.delete(top, pos, 1), (-1) ** pos) for pos in range(t)]))
    return mats


def verify_lambda_complex(N: int) -> Report:
    """Exactness of the exterior-power complex at every set size <= N and
    every interior homological degree, with the point-supported module as
    the final cokernel."""
    _check_truncation(N)
    boundaries = {}
    functors = [build_lambda_pfin(t, N) for t in range(N + 1)]
    for t in range(1, N + 1):
        mats = boundaries[t] = lambda_boundary(N, t)
        if not is_natural(functors[t], functors[t - 1], mats):
            return Report("lambda_complex", {"N": N}, "natural boundary",
                          f"boundary not natural at degree {t}", False)
    details = {}
    ok = True
    for m in range(N + 1):
        for t in range(1, N):
            d_t = boundaries[t][m]
            d_t1 = boundaries[t + 1][m]
            comp = d_t.compose(d_t1)
            if not comp.is_zero():
                ok = False
                details[f"d2_{t}_{m}"] = "nonzero composite"
                continue
            rank_t = linalg.rank(d_t)
            rank_t1 = linalg.rank(d_t1)
            ker = comb(m, t) - rank_t
            if ker != rank_t1:
                ok = False
                details[f"exactness_{t}_{m}"] = {"kernel": ker, "image": rank_t1}
        # cokernel at the end: k -> k_0
        d1 = boundaries[1][m]
        rank1 = linalg.rank(d1)
        coker = 1 - rank1
        expected = 1 if m == 0 else 0
        if coker != expected:
            ok = False
            details[f"coker_{m}"] = coker
    return Report("lambda_complex", {"N": N}, "exact", details or "exact", ok)


# ---------------------------------------------------------------------------
# The norm-like map


def verify_norm_map(n: int, N: int) -> Report:
    """Construct the pairing-induced map from the injection module to the
    dual surjection module; the kernel at size t has dimension C(t-1, n),
    and the map is an isomorphism at size n."""
    ok = True
    details = {}
    for t in range(n, N + 1):
        injections = list(itertools.permutations(range(t), n))
        surjections = {f: c for c, f in enumerate(
            f for f in itertools.product(range(n), repeat=t) if len(set(f)) == n)}
        # the maps s with s o j = id for the injection j: j^-1 on j's image
        # and any value off it, so each is a surjection
        rows, cols = [], []
        for r, j in enumerate(injections):
            points = j + tuple(x for x in range(t) if x not in j)
            for values in itertools.product(range(n), repeat=t - n):
                s = dict(zip(points, tuple(range(n)) + values))
                rows.append(r)
                cols.append(surjections[tuple(s[x] for x in range(t))])
        M = SpMat(len(injections), len(surjections), rows, cols, np.ones(len(rows), dtype=np.int64))
        kernel_dim = len(injections) - linalg.rank(M)
        expected = comb(t - 1, n)
        if kernel_dim != expected:
            ok = False
        details[f"t={t}"] = {"kernel": kernel_dim, "expected": expected}
        if t == n and kernel_dim != 0:
            ok = False
    return Report("norm_map_kernel", {"n": n, "N": N},
                  {f"t={t}": comb(t - 1, n) for t in range(n, N + 1)},
                  details, ok)


# ---------------------------------------------------------------------------
# Surjectivity refinements


def verify_refine_surjection(n: int, N: int) -> Report:
    """The split summand generated by [x0] (x) prod([y_i]-[x0]) surjects
    onto the injection module at every size <= N."""
    if n < 1:
        raise OracleError(f"refined surjectivity needs n >= 1, got {n}")
    ok = True
    details = {}
    for t in range(N + 1):
        inj_dim = perm(t, n)
        if inj_dim == 0:
            continue
        # a lookup in the injection module's basis drops the other tuples
        injections = _TupleBasis(_tuples(itertools.permutations(range(t), n), n), t)
        r = linalg.rank(_split_summand(n - 1, t, injections))
        details[f"t={t}"] = {"rank": r, "target_dim": inj_dim}
        ok = ok and r == inj_dim
    return Report("refine_surject_to_kfi", {"n": n, "N": N}, "surjective", details, ok)


def verify_almost_surjectivity(n: int, N: int) -> Report:
    """The cokernel of (reduced tensor power -> injection module) has
    dimension C(t-1, n-1) at every size t."""
    if n < 1:
        raise OracleError(f"almost surjectivity needs n >= 1, got {n}")
    ok = True
    details = {}
    for t in range(N + 1):
        inj_dim = perm(t, n)
        if inj_dim == 0:
            continue
        # the columns prod([y_i] - [0]) that span the reduced tensor power,
        # projected onto the injection module by a lookup in its basis
        ys = _tuples(itertools.product(range(1, t), repeat=n), n)
        injections = _TupleBasis(_tuples(itertools.permutations(range(t), n), n), t)
        coker = inj_dim - linalg.rank(injections.matrix(len(ys), _difference_terms(ys, 0)))
        expected = comb(t - 1, n - 1)
        details[f"t={t}"] = {"coker": coker, "expected": expected}
        ok = ok and coker == expected
    return Report(
        "almost_surjectivity", {"n": n, "N": N}, "coker C(t-1,n-1)", details, ok
    )


# ---------------------------------------------------------------------------
# Composition multiplicities


@lru_cache(maxsize=None)
def _proj_cover_cached(m: int, N: int) -> TruncatedFunctor:
    return build_proj_cover(m, N)


def oracle_multiplicities(F: TruncatedFunctor, degmax: int) -> Dict[SimpleLabel, int]:
    """Composition-factor multiplicities of F through degree degmax, from
    first principles: hom-spaces out of the projective covers (solved
    exactly) plus sign-coinvariant dimensions for the exterior-power
    family."""
    N = F.N
    out: Dict[SimpleLabel, int] = {}
    if F.dims[0]:
        out[SimpleLabel.K0()] = F.dims[0]
    for m in range(0, degmax + 1):
        if m + 1 <= N:
            mult = inner_class(F, m + 1)[one_column(m + 1)]
            if mult:
                out[SimpleLabel.L(m)] = mult
    for m in range(1, degmax + 1):
        if not any(
            lam != one_column(m) for lam in partitions_of(m)
        ):
            continue
        P = _proj_cover_cached(m, N)
        res = nat_hom(P, F)
        if res.dimension == 0:
            continue
        char = res.outer_character()
        # S_m-module structure in the first variable
        cf = ClassFunction(
            m, {alpha: char.values[(alpha, one_column(F.outer_n))] for alpha in partitions_of(m)}
        )
        dec = decompose(cf)
        for lam, mult in dec.mults.items():
            if lam == one_column(m):
                continue
            if mult:
                out[SimpleLabel.C(lam)] = mult
    return out
