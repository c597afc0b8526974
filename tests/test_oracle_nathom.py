from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from finsetrep.partitions import Partition, partitions_of
from finsetrep.oracle import (
    build_const_k,
    build_k0,
    build_kbar,
    build_kfi,
    build_lambda_pbar,
    build_lambda_pfin,
    build_pbar_tensor,
    build_pfin,
    build_proj_cover,
    kernel_functor,
    nat_hom,
    nat_hom_dense_dim,
)
from finsetrep.oracle.functors import SpMat
from finsetrep.oracle.linalg import sparse_from_dense
from finsetrep.oracle.nathom import build_span


def test_yoneda():
    N = 4
    targets = [
        build_pfin(1, N),
        build_kbar(N),
        build_kfi(2, N),
        build_pbar_tensor(2, N),
        build_const_k(N),
        build_k0(N),
    ]
    for n in range(0, 3):
        F = build_pfin(n, N)
        for G in targets:
            assert nat_hom(F, G).dimension == G.dims[n], (n, G.name)


def test_against_dense_reference():
    N = 4
    pairs = [
        (build_pbar_tensor(1, N), build_pbar_tensor(1, N)),
        (build_pbar_tensor(2, N), build_pbar_tensor(1, N)),
        (build_pbar_tensor(1, N), build_pbar_tensor(2, N)),
        (build_kbar(N), build_kbar(N)),
        (build_kfi(2, N), build_pbar_tensor(2, N)),
        (build_k0(N), build_const_k(N)),
        (build_const_k(N), build_k0(N)),
        (build_lambda_pfin(2, N), build_kfi(2, N)),
        (build_proj_cover(1, N), build_pfin(1, N)),
    ]
    for F, G in pairs:
        assert nat_hom(F, G).dimension == nat_hom_dense_dim(F, G), (F.name, G.name)


def test_fundamental_vanishing_and_endomorphisms_small():
    N = 5
    pbars = {s: build_pbar_tensor(s, N) for s in range(4)}
    for s in range(4):
        for t in range(4):
            d = nat_hom(pbars[s], pbars[t]).dimension
            if s > t:
                assert d == 0, (s, t)
            if s == t:
                assert d == factorial(s), s


def test_endo_pbar2_regular_bimodule_character():
    r = nat_hom(build_pbar_tensor(2, 4), build_pbar_tensor(2, 4))
    assert r.dimension == 2
    assert r.outer_bimodule() == {
        (lam, lam): 1 for lam in partitions_of(2)
    }
    r.verify()


def test_outer_character_rejects_a_basis_that_is_not_stable():
    from finsetrep.oracle import OracleError
    from finsetrep.oracle.nathom import NatHomResult

    r = nat_hom(build_pbar_tensor(2, 4), build_pbar_tensor(2, 4))
    # one of the two basis solutions alone: the transposition of the source
    # moves it out of its own span
    half = NatHomResult(r.F, r.G, r.span, r.P_cols[:1], r.blocks)
    with pytest.raises(OracleError, match="leaves the solution space"):
        half.outer_character()


def test_simple_endomorphism_rings():
    for s in range(0, 3):
        L = build_lambda_pbar(s, 5)
        assert nat_hom(L, L).dimension == 1


def test_hom_out_of_covers_hand_values():
    N = 6
    P1 = build_proj_cover(1, N)
    assert nat_hom(P1, build_pfin(1, N)).dimension == 1
    assert nat_hom(P1, build_pfin(2, N)).dimension == 2


def test_solution_basis_is_natural():
    N = 4
    r = nat_hom(build_kfi(2, N), build_pbar_tensor(2, N))
    assert r.dimension == 1
    r.verify()
    r2 = nat_hom(build_pbar_tensor(2, N), build_pbar_tensor(2, N))
    r2.verify()
    # the solution matrices commute with every generator
    F, G = r.F, r.G
    for key in F.gen_keys():
        s, t = F.gen_src_dst(key)
        eta_s, eta_t = r.solution_matrix(0, s), r.solution_matrix(0, t)
        assert eta_s.shape == (G.dims[s], F.dims[s])
        assert eta_t.compose(F.act[key]).equals(G.act[key].compose(eta_s))


def _replayed_span_vectors(span):
    """Every span basis vector, rebuilt by replaying its construction path."""
    F = span.F
    vecs = {}
    for t, idx in span.order:
        path = span.paths[t][idx]
        if path[0] == "gen":
            vecs[(t, idx)] = sparse_from_dense(F.generators[path[1]][1])
        else:
            _, key, s, j = path
            vecs[(t, idx)] = F.act[key].apply_sparse(vecs[(s, j)])
    return vecs


def test_span_pass_records_move_expansions():
    N = 4
    pfin1, k = build_pfin(1, N), build_const_k(N)
    augmentation = [
        SpMat(k.dims[t], pfin1.dims[t], [0] * pfin1.dims[t], range(pfin1.dims[t]),
              [1] * pfin1.dims[t])
        for t in range(N + 1)
    ]
    # every basis vector of the kernel is a generator, so most are redundant
    aug_kernel = kernel_functor(pfin1, k, augmentation, "aug-kernel")
    assert len(aug_kernel.generators) == sum(aug_kernel.dims) > 1
    sources = [
        build_pfin(2, N),
        build_pbar_tensor(2, N),
        build_proj_cover(2, N),
        build_kfi(2, N),
        build_lambda_pbar(2, N),
        aug_kernel,
    ]
    for F in sources:
        span = build_span(F)
        vecs = _replayed_span_vectors(span)
        assert len(vecs) == sum(F.dims), F.name
        for (t, idx), v in vecs.items():
            assert span.cbs[t].expand(v) == {idx: Fraction(1)}, (F.name, t, idx)
        # reference: each move image expanded in the finished basis
        for key in F.gen_keys():
            s, t = F.gen_src_dst(key)
            assert len(span.gammas[key]) == F.dims[s], (F.name, key)
            for j in range(F.dims[s]):
                ref = span.cbs[t].expand(F.act[key].apply_sparse(vecs[(s, j)]))
                assert span.gammas[key][j] == ref, (F.name, key, j)


def test_python_int_path_matches_int64_path(monkeypatch):
    from finsetrep.oracle import linalg

    N = 4
    pairs = [
        (build_pbar_tensor(2, N), build_pbar_tensor(2, N)),
        (build_proj_cover(1, N), build_pfin(2, N)),
    ]
    fast = [nat_hom(F, G) for F, G in pairs]
    # with zero bounds every product and sum runs on Python ints: the sparse
    # applies, W, the Gram sums, the kernel lifts and P itself
    monkeypatch.setattr(linalg, "INT64_BOUND", 0)
    monkeypatch.setattr(linalg, "FLOAT_EXACT_BOUND", 0)
    for (F, G), r in zip(pairs, fast):
        slow = nat_hom(F, G)
        assert r.dimension > 0
        assert slow.dimension == r.dimension
        assert slow.P_cols == r.P_cols
        assert slow.outer_character().values == r.outer_character().values
        assert r._P.dtype == np.int64 and slow._P.dtype == object
        assert {arr.dtype for arr, _ in slow._vcache.values()} == {np.dtype(object)}


def test_stabilization_small():
    # hom dimensions computed at N agree with N+1 for the families used in
    # acceptance, at desk scale
    for s in range(0, 3):
        for t in range(0, 3):
            d5 = nat_hom(
                build_pbar_tensor(s, 5), build_pbar_tensor(t, 5)
            ).dimension
            d6 = nat_hom(
                build_pbar_tensor(s, 6), build_pbar_tensor(t, 6)
            ).dimension
            assert d5 == d6, (s, t)
    for n in range(0, 3):
        for t in range(0, 3):
            d5 = nat_hom(build_pbar_tensor(n, 5), build_pfin(t, 5)).dimension
            d6 = nat_hom(build_pbar_tensor(n, 6), build_pfin(t, 6)).dimension
            assert d5 == d6, (n, t)
    for m in range(0, 3):
        for n in range(0, 3):
            d5 = nat_hom(build_proj_cover(m, 5), build_pfin(n, 5)).dimension
            d6 = nat_hom(build_proj_cover(m, 6), build_pfin(n, 6)).dimension
            assert d5 == d6, (m, n)


def test_stabilization_degree4_full_size():
    # the heaviest acceptance hom computations re-run one truncation higher:
    # the dimensions at N = 6 (asserted in the acceptance suite) must
    # persist at N = 7
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def pbar7(s):
        return build_pbar_tensor(s, 7)

    assert nat_hom(pbar7(4), pbar7(4)).dimension == 24
    assert nat_hom(pbar7(4), build_pfin(4, 7)).dimension == 24
    for t in range(0, 4):
        assert nat_hom(pbar7(4), pbar7(t)).dimension == 0


def test_truncation_mismatch_rejected():
    from finsetrep.oracle import OracleError

    with pytest.raises(OracleError):
        nat_hom(build_kbar(4), build_kbar(5))
