"""Brute-force verification checks against first principles.

Each check computes both sides of a structural claim with exact
arithmetic: the explicit idempotent and its image, the identification of
maps out of reduced tensor powers with surjection spaces, hom-spaces out
of exterior powers via the signed-inclusion complex, exactness of the
exterior-power complex, the norm-like map's kernel, and composition-factor
multiplicities read off from hom-spaces out of projective covers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..partitions import one_column, partitions_of
from ..symrep import ClassFunction, decompose
from ..facalc import Report, SimpleLabel
from . import linalg
from .functors import (
    OracleError,
    SpMat,
    TruncatedFunctor,
    _check_truncation,
    build_lambda_pbar,
    build_lambda_pfin,
    build_pbar_tensor,
    build_pfin,
    build_proj_cover,
    inner_character,
    map_matrix,
    sgn_coinvariant_reduction,
)
from .nathom import nat_hom


def surjection_count(t: int, n: int) -> int:
    """Number of surjections t -> n, by inclusion-exclusion."""
    return sum((-1) ** k * comb(n, k) * (n - k) ** t for k in range(n + 1))


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
            M, expected_rank = _pi_action_and_rank(n, t)
            r = linalg.rank(M)
            idem = bool((linalg.imatmul(M, M) == M).all())
            # the image of the idempotent is the span of E, of the expected rank
            E = _split_summand_columns(n, t)
            span_ok = linalg.rank(E) == expected_rank == linalg.rank(np.hstack([E, M]))
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


def _tuple_index(t: int, length: int) -> Dict[Tuple[int, ...], int]:
    """The position of every tuple of the given length over t points in
    the basis of tuples, in lexicographic order."""
    return {tup: i for i, tup in enumerate(itertools.product(range(t), repeat=length))}


def _pi_action_and_rank(n: int, t: int) -> Tuple[np.ndarray, int]:
    """Matrix of pi_n acting on tuples of length n+1 over t points, by
    precomposition, with the expected image dimension t*(t-1)^n."""
    pi = pi_element(n)
    index = _tuple_index(t, n + 1)
    M = np.zeros((len(index), len(index)), dtype=np.int64)
    for f, c in pi.items():
        for x, j in index.items():
            M[index[tuple(x[f[i]] for i in range(n + 1))], j] += c
    return M, t * (t - 1) ** n if t >= 1 else 0


def _split_summand_columns(n: int, t: int) -> np.ndarray:
    """The vectors [x0] (x) prod([y_i] - [x0]) of tuples of length n+1 over
    t points, for every x0 and every y in the other points^n, as the
    columns of an int64 array."""
    index = _tuple_index(t, n + 1)
    E = np.zeros((len(index), t * (t - 1) ** n), dtype=np.int64)
    j = 0
    for x0 in range(t):
        for y in itertools.product([v for v in range(t) if v != x0], repeat=n):
            for tup, c in _difference_product(x0, y).items():
                E[index[(x0,) + tup], j] += c
            j += 1
    return E


def _difference_product(x0: int, y: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
    """Expansion of the tensor product over i of ([y_i] - [x0]) in the
    basis of tuples, as tuple -> coefficient."""
    out: Dict[Tuple[int, ...], int] = {(): 1}
    for v in y:
        nxt: Dict[Tuple[int, ...], int] = {}
        for tup, c in out.items():
            for w, sign in ((v, c), (x0, -c)):
                nxt[tup + (w,)] = nxt.get(tup + (w,), 0) + sign
        out = nxt
    return out


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
        w_expansion = _difference_product(0, tuple(range(1, n + 1)))
        index = _tuple_index(n + 1, t)
        alphas = list(itertools.product(range(n), repeat=t))
        A = np.zeros((len(index), len(alphas)), dtype=np.int64)
        for j, alpha in enumerate(alphas):
            for tup, sign in w_expansion.items():
                A[index[tuple(tup[a] for a in alpha)], j] += sign
        try:
            Y, _ = res.coordinates(A)
        except OracleError:
            return Report("realize_right_aug", {"n": n, "t": t, "N": N}, expected,
                          "a restricted Yoneda morphism is no natural transformation", False)
        nonsurjective = np.array([len(set(alpha)) < n for alpha in alphas], dtype=bool)
        rank = linalg.rank(Y)
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


def hom_from_lambda_bar(F: TruncatedFunctor, s: int, cross_check: bool = True) -> int:
    """dim hom(Lambda^s of the reduced projective, F), computed as the
    kernel of the signed-inclusion map between sign-coinvariants of
    F(s+1) and F(s+2)."""
    if F.N < s + 2:
        raise OracleError("needs truncation >= s+2")
    relations1, _, free1 = sgn_coinvariant_reduction(F, s + 1)
    _, proj2, _ = sgn_coinvariant_reduction(F, s + 2)
    M = sigma_matrix(F, s + 1)

    # well-definedness: relation span at s+1 must map into relation span
    if proj2.apply_dense(M.apply_dense(relations1)).any():
        raise OracleError("sigma map does not descend to coinvariants")
    cols = proj2.compose(M.compose(SpMat.unit_columns(F.dims[s + 1], free1))).int_rows()
    dim = len(free1) - linalg.rank(cols)
    if cross_check:
        lam = build_lambda_pbar(s, F.N)
        direct = nat_hom(lam, F).dimension
        if direct != dim:
            raise OracleError(
                f"kernel method gives {dim}, direct solve gives {direct}"
            )
    return dim


# ---------------------------------------------------------------------------
# The exterior-power complex


def lambda_boundary(N: int, t: int) -> Tuple[SpMat, TruncatedFunctor, TruncatedFunctor]:
    """The contraction map from the t-th to the (t-1)-st exterior power of
    the standard projective, with the functors it connects."""
    top = build_lambda_pfin(t, N)
    bot = build_lambda_pfin(t - 1, N)
    mats = []
    for m in range(N + 1):
        subsets_top = list(itertools.combinations(range(m), t))
        subsets_bot = list(itertools.combinations(range(m), t - 1))
        idx = {S: i for i, S in enumerate(subsets_bot)}
        rows, cols, vals = [], [], []
        for j, S in enumerate(subsets_top):
            for pos in range(t):
                rest = S[:pos] + S[pos + 1 :]
                rows.append(idx[rest])
                cols.append(j)
                vals.append((-1) ** pos)
        mats.append(SpMat(len(subsets_bot), len(subsets_top), rows, cols, vals))
    return mats, top, bot


def verify_lambda_complex(N: int) -> Report:
    """Exactness of the exterior-power complex at every set size <= N and
    every interior homological degree, with the point-supported module as
    the final cokernel."""
    _check_truncation(N)
    boundaries = {}
    functors = {}
    for t in range(N + 1):
        functors[t] = build_lambda_pfin(t, N)
    for t in range(1, N + 1):
        mats, top, bot = lambda_boundary(N, t)
        boundaries[t] = mats
        # naturality of the boundary
        for key in top.gen_keys():
            s_, t_ = TruncatedFunctor.gen_src_dst(key)
            lhs = mats[t_].compose(top.act[key])
            rhs = functors[t - 1].act[key].compose(mats[s_])
            if not lhs.equals(rhs):
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
            rank_t = linalg.rank(d_t.int_rows())
            rank_t1 = linalg.rank(d_t1.int_rows())
            ker = comb(m, t) - rank_t
            if ker != rank_t1:
                ok = False
                details[f"exactness_{t}_{m}"] = {"kernel": ker, "image": rank_t1}
        # cokernel at the end: k -> k_0
        d1 = boundaries[1][m]
        rank1 = linalg.rank(d1.int_rows())
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
        surjections = [
            f
            for f in itertools.product(range(n), repeat=t)
            if len(set(f)) == n
        ]
        M = np.zeros((len(surjections), len(injections)), dtype=np.int64)
        for r, s in enumerate(surjections):
            for c, j in enumerate(injections):
                M[r, c] = tuple(s[a] for a in j) == tuple(range(n))
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


def _injective_rows(n: int, t: int) -> List[int]:
    """The positions of the injective tuples of length n over t points in
    the basis of tuples: the rows that the projection onto the injection
    module keeps, sending the others to zero."""
    return [i for tup, i in _tuple_index(t, n).items() if len(set(tup)) == n]


def verify_refine_surjection(n: int, N: int) -> Report:
    """The split summand generated by [x0] (x) prod([y_i]-[x0]) surjects
    onto the injection module at every size <= N."""
    if n < 1:
        raise OracleError(f"refined surjectivity needs n >= 1, got {n}")
    ok = True
    details = {}
    for t in range(N + 1):
        inj_dim = 0 if t < n else _falling(t, n)
        if inj_dim == 0:
            continue
        r = linalg.rank(_split_summand_columns(n - 1, t)[_injective_rows(n, t)])
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
        inj_dim = 0 if t < n else _falling(t, n)
        if inj_dim == 0:
            continue
        # the columns prod([y_i] - [0]) that span the reduced tensor power
        index = _tuple_index(t, n)
        ys = list(itertools.product(range(1, t), repeat=n))
        C = np.zeros((len(index), len(ys)), dtype=np.int64)
        for j, y in enumerate(ys):
            for tup, c in _difference_product(0, y).items():
                C[index[tup], j] += c
        coker = inj_dim - linalg.rank(C[_injective_rows(n, t)])
        expected = comb(t - 1, n - 1)
        details[f"t={t}"] = {"coker": coker, "expected": expected}
        ok = ok and coker == expected
    return Report(
        "almost_surjectivity", {"n": n, "N": N}, "coker C(t-1,n-1)", details, ok
    )


def _falling(t: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= t - i
    return out


# ---------------------------------------------------------------------------
# Composition multiplicities


@lru_cache(maxsize=None)
def _proj_cover_cached(m: int, N: int) -> TruncatedFunctor:
    return build_proj_cover(m, N)


def sgn_mult(F: TruncatedFunctor, t: int) -> int:
    """Multiplicity of the sign representation in the evaluation at t."""
    dec = decompose(inner_character(F, t))
    return dec[one_column(t)]


def oracle_multiplicities(
    F: TruncatedFunctor, degmax: Optional[int] = None
) -> Dict[SimpleLabel, int]:
    """Composition-factor multiplicities of F, from first principles:
    hom-spaces out of the projective covers (solved exactly) plus
    sign-coinvariant dimensions for the exterior-power family."""
    N = F.N
    if degmax is None:
        degmax = N - 2
    out: Dict[SimpleLabel, int] = {}
    if F.dims[0]:
        out[SimpleLabel.K0()] = F.dims[0]
    for m in range(0, degmax + 1):
        if m + 1 <= N:
            mult = sgn_mult(F, m + 1)
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
            m,
            {
                alpha: Fraction(char.values[(alpha, one_column(F.outer_n))])
                for alpha in partitions_of(m)
            },
        )
        dec = decompose(cf)
        for lam, mult in dec.mults.items():
            if lam == one_column(m):
                continue
            if mult:
                out[SimpleLabel.C(lam)] = mult
    return out
