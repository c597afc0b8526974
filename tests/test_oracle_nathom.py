import dataclasses
import itertools
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
from finsetrep.oracle.functors import SpMat, direct_sum
from finsetrep.oracle.nathom import build_span
from test_oracle_functors import apply_sparse, fraction_vector, rescaled


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
        # moves with den != 1 on either side
        (rescaled(build_pfin(2, N)), build_pbar_tensor(2, N)),
        (build_pbar_tensor(2, N), rescaled(build_pfin(2, N))),
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
    half = NatHomResult(r.F, r.G, r.span, r.P[:, :1], r.blocks)
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
    pfin2, pbar2 = build_pfin(2, N), build_pbar_tensor(2, N)
    scaled = rescaled(pfin2)
    scaled.check_functoriality(3)
    assert any(m.den != 1 for m in scaled.act.values())
    assert any(m.den != 1 for m in scaled.outer_act.values())
    # (source, target, its dimension, the unscaled pair or None)
    cases = [
        (build_kfi(2, N), pbar2, 1, None),
        (pbar2, pbar2, 2, None),
        (build_proj_cover(2, N), pbar2, 2, None),
        (scaled, pbar2, 1, (pfin2, pbar2)),
        (pbar2, scaled, 2, (pbar2, pfin2)),
    ]
    for F, G, dim, unscaled in cases:
        r = nat_hom(F, G)
        assert r.dimension == dim, (F.name, G.name)
        r.verify()
        if unscaled is not None:
            ref = nat_hom(*unscaled)
            assert ref.dimension == dim, (F.name, G.name)
            assert r.outer_bimodule() == ref.outer_bimodule(), (F.name, G.name)
        # the solution matrices commute with every generator
        for k in range(r.dimension):
            for key in F.gen_keys():
                s, t = F.gen_src_dst(key)
                eta_s, eta_t = r.solution_matrix(k, s), r.solution_matrix(k, t)
                assert eta_s.shape == (G.dims[s], F.dims[s])
                assert eta_t.compose(F.act[key]).equals(G.act[key].compose(eta_s))


def test_coordinates_read_back_combinations_of_the_basis():
    from finsetrep.oracle import OracleError, linalg

    N = 4
    pbar2 = build_pbar_tensor(2, N)
    rng = np.random.default_rng(12)
    pairs = [
        (pbar2, pbar2),
        (build_proj_cover(2, N), pbar2),
        (pbar2, rescaled(build_pfin(2, N))),
    ]
    for F, G in pairs:
        r = nat_hom(F, G)
        p = r.dimension
        assert 0 < p < r.n_v, (F.name, G.name)
        # combinations with small coefficients and with Python ints past int64
        X = rng.integers(-5, 6, size=(p, 6))
        for Xc in (X, X.astype(object) * ((1 << 70) + 1)):
            Y, D = r.coordinates(linalg.imatmul(r.P, Xc))
            assert D > 0 and (Y == D * Xc).all(), (F.name, G.name)
        # a unit vector outside P's column span is no solution
        i = next(i for i in range(r.n_v)
                 if linalg.rank(np.hstack([r.P, np.eye(r.n_v, dtype=np.int64)[:, [i]]])) > p)
        A = np.hstack([linalg.imatmul(r.P, X), np.eye(r.n_v, dtype=np.int64)[:, [i]]])
        with pytest.raises(OracleError, match="leaves the solution space"):
            r.coordinates(A)


def test_span_values_are_in_lowest_terms():
    from math import gcd

    from finsetrep.oracle.nathom import _span_value

    N = 4
    r = nat_hom(build_pbar_tensor(2, N), rescaled(build_pfin(2, N)))
    # the values on the first parameter space, every basis vector of G at
    # the generator, and on the solutions
    for P in (np.eye(r.n_v, dtype=np.int64), r.P):
        cache = {}
        _span_value(r.span, r.G, r.blocks, P, cache, r.span.order[-1])
        assert len(cache) == len(r.span.order)
        assert max(den for _, den in cache.values()) > 1
        for arr, den in cache.values():
            assert gcd(den, *arr.ravel().tolist()) == 1


def test_verify_rejects_a_non_solution():
    from finsetrep.oracle import OracleError
    from finsetrep.oracle.nathom import NatHomResult

    r = nat_hom(build_pbar_tensor(2, 4), build_pbar_tensor(2, 4))
    assert r.n_v == 4
    NatHomResult(r.F, r.G, r.span, np.array([[0, 1, 0, 0]]).T, r.blocks).verify()
    with pytest.raises(OracleError, match="solution fails naturality"):
        NatHomResult(r.F, r.G, r.span, np.array([[1, 0, 0, 0]]).T, r.blocks).verify()


def _replayed_span_vectors(span):
    """Every span basis vector, rebuilt by replaying its construction path."""
    F = span.F
    vecs = {}
    for t, idx in span.order:
        path = span.paths[t][idx]
        if path[0] == "gen":
            vecs[(t, idx)] = fraction_vector(F.generators[path[1]][1])
        else:
            _, key, s, j = path
            vecs[(t, idx)] = apply_sparse(F.act[key], vecs[(s, j)])
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
        # the same basis with every vector stored as (2 num, 2 den)
        doubled = dataclasses.replace(span, bases={}, vecs=[
            [({i: 2 * v for i, v in num.items()}, 2 * den) for num, den in at_t]
            for at_t in span.vecs
        ])
        for (t, idx), v in vecs.items():
            assert apply_sparse(span.expansion(t), v) == {idx: Fraction(1)}, (F.name, t, idx)
            assert apply_sparse(doubled.expansion(t), v) == {idx: Fraction(1)}, (F.name, t, idx)
        # reference: each move image expanded in the finished basis
        for key in F.gen_keys():
            s, t = F.gen_src_dst(key)
            assert len(span.gammas[key]) == F.dims[s], (F.name, key)
            for j in range(F.dims[s]):
                ref = apply_sparse(span.expansion(t), apply_sparse(F.act[key], vecs[(s, j)]))
                assert span.gammas[key][j] == ref, (F.name, key, j)


def _span_answer(span):
    return span.paths, span.order, span.gen_used, span.gammas


def test_span_pass_survives_unlucky_primes(monkeypatch):
    from finsetrep.oracle import linalg

    N, p0 = 4, 101
    word = list(itertools.islice(linalg._primes(), 5))
    # over Q the first two generators are independent and the third is not;
    # mod p0 the first two coincide, so p0 accepts the third instead
    unlucky = direct_sum([build_pfin(1, N), build_pfin(1, N)], "pfin(1)^2")
    unlucky.generators = [(1, np.array(col)) for col in ([p0, 1], [0, 1], [1, 0])]
    # a move with denominator p0, which p0 cannot invert
    scaled = build_pfin(2, N)
    scaled.act[("inc", 1)] = scaled.act[("inc", 1)].scale(1, p0)
    cases = [
        (unlucky, p0, [p0, word[0]]),
        (scaled, p0, [p0, word[0]]),
        # the right choices mod 7, but expansions of -1 read as 6 / 1: the
        # lift fails its check, and the next prime is CRT-combined with 7
        (build_pbar_tensor(3, N), 7, [7, word[0]]),
    ]
    for F, first, expected_primes in cases:
        ref = _span_answer(build_span(dataclasses.replace(F, span_cache=None)))
        used = []

        def source():
            for p in [first] + word:
                used.append(p)
                yield p

        monkeypatch.setattr(linalg, "_primes", source)
        assert _span_answer(build_span(F)) == ref, F.name
        assert used == expected_primes, F.name
        monkeypatch.undo()
    assert unlucky.span_cache.gen_used == [True, True, False]


def test_span_pass_reports_a_shortfall():
    from finsetrep.oracle import OracleError

    N = 4
    k, k0 = build_const_k(N), build_k0(N)
    zero = [SpMat.zeros(k0.dims[t], k.dims[t]) for t in range(N + 1)]
    # every basis vector is a generator; without the one at size 0 nothing
    # reaches size 0, since no generator move ends there
    K = kernel_functor(k, k0, zero, "k-copy")
    assert [d for d, _ in K.generators] == list(range(N + 1))
    K.generators = K.generators[1:]
    with pytest.raises(OracleError, match="generators span only 0 of 1 dimensions at size 0"):
        build_span(K)


def test_skipped_constraints_are_zero():
    from math import lcm

    from finsetrep.oracle import linalg
    from finsetrep.oracle.nathom import _span_value

    N = 4
    pairs = [
        (build_pbar_tensor(2, N), build_pbar_tensor(2, N)),
        (build_proj_cover(1, N), build_pfin(2, N)),
    ]
    for F, G in pairs:
        span = build_span(F)
        blocks, off = {}, 0
        for a, (d, _) in enumerate(F.generators):
            if span.gen_used[a]:
                blocks[a], off = (d, off), off + G.dims[d]
        P, cache = np.eye(off, dtype=np.int64), {}
        skipped = 0
        # nat_hom skips the move images that the span pass accepted
        for t in range(N + 1):
            for idx, path in enumerate(span.paths[t]):
                if path[0] != "step":
                    continue
                _, key, s, j = path
                # the full constraint: G(key) V(s, j) - sum_i gamma_i V(t, i)
                sarr, sden = _span_value(span, G, blocks, P, cache, (s, j))
                m = G.act[key]
                terms = [(c, *_span_value(span, G, blocks, P, cache, (t, i)))
                         for i, c in span.gammas[key][j].items()]
                assert span.gammas[key][j] == {idx: Fraction(1)}
                L = lcm(m.den * sden, *(c.denominator * d for c, _, d in terms))
                W = linalg.lincomb([(m.apply_dense(sarr), -(L // (m.den * sden)))] + [
                    (arr, c.numerator * (L // (c.denominator * d))) for c, arr, d in terms
                ])
                assert not W.any(), (F.name, key, j)
                skipped += 1
        assert skipped == sum(F.dims) - sum(span.gen_used), F.name
        assert skipped > 0


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
        assert slow.P.tolist() == r.P.tolist()
        assert slow.outer_character().values == r.outer_character().values
        assert r.P.dtype == np.int64 and slow.P.dtype == object
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
