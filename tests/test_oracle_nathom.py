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
from finsetrep.oracle.functors import SpMat, TruncatedFunctor, direct_sum, map_matrix
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
            r = nat_hom(F, G)
            assert r.dimension == G.dims[n], (n, G.name)
            # every span vector of pfin(n) is F(w) of its generator for its
            # own set map w: n -> t, so every constraint is a match
            assert r.constraints["kept"] == r.constraints["implied"] == 0, (n, G.name)


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
    # generators e_0 at size 1 and e_0 + 3 e_1 at size 2: e_1 is a third of
    # their difference, so the span's move expansions have denominator 3
    thirds = direct_sum([build_pfin(1, N)], "pfin(1)/3")
    thirds.generators = [(1, np.array([1])), (2, np.array([1, 3]))]
    thirds_span = build_span(thirds)
    assert max(thirds_span.gamma(key).den for key in thirds.gen_keys()) == 3
    pairs += [(thirds, G) for G in (build_pfin(1, N), build_pbar_tensor(1, N), build_pfin(2, N))]
    for F, G in pairs:
        assert nat_hom(F, G).dimension == nat_hom_dense_dim(F, G), (F.name, G.name)


def test_against_dense_reference_on_random_derived_functors():
    # seeded direct sums, kernels and cokernels of random natural maps at
    # N = 3; the bases carry no outer action, so that the kernel and image
    # of any natural map are subfunctors
    from finsetrep.oracle import quotient_functor

    N = 3
    rng = np.random.default_rng(14)
    base = [build_pfin(1, N), build_pfin(2, N), build_pbar_tensor(1, N),
            build_pbar_tensor(2, N), build_kfi(2, N), build_const_k(N), build_proj_cover(1, N)]
    base = [direct_sum([F], F.name) for F in base]

    def random_map(F, G):
        r = nat_hom(F, G)
        x = rng.integers(-3, 4, size=r.dimension)
        mats = []
        for t in range(N + 1):
            eta = SpMat.zeros(G.dims[t], F.dims[t])
            for k in range(r.dimension):
                eta = eta + r.solution_matrix(k, t).scale(int(x[k]))
            mats.append(eta)
        return mats

    # maps run between base and derived functors alike, so derived ones nest
    derived = []
    while len(derived) < 12:
        pool = base + derived
        A, B = (pool[i] for i in rng.choice(len(pool), 2))
        if not nat_hom(A, B).dimension or sum(A.dims) + sum(B.dims) > 40:
            continue
        mats = random_map(A, B)
        derived += [
            direct_sum([A, B], f"{A.name}+{B.name}"),
            kernel_functor(A, B, mats, f"ker({A.name}->{B.name})"),
            quotient_functor(B, mats, f"coker({A.name}->{B.name})"),
        ]
    for F in derived:
        for G in (base[i] for i in rng.choice(len(base), 3, replace=False)):
            for X, Y in ((F, G), (G, F)):
                r = nat_hom(X, Y)
                assert r.dimension == nat_hom_dense_dim(X, Y), (X.name, Y.name)
                r.verify()


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
        units = np.eye(r.n_v, dtype=np.int64)
        i = next(i for i in range(r.n_v)
                 if linalg.rank(SpMat.from_dense(np.hstack([r.P, units[:, [i]]]))) > p)
        A = np.hstack([linalg.imatmul(r.P, X), np.eye(r.n_v, dtype=np.int64)[:, [i]]])
        with pytest.raises(OracleError, match="leaves the solution space"):
            r.coordinates(A)


def test_span_values_are_in_lowest_terms():
    from math import gcd

    from finsetrep.oracle.nathom import NatHomResult

    N = 4
    r = nat_hom(build_pbar_tensor(2, N), rescaled(build_pfin(2, N)))
    # the values on the first parameter space, every basis vector of G at
    # the generator, and on the solutions
    for P in (np.eye(r.n_v, dtype=np.int64), r.P):
        res = NatHomResult(r.F, r.G, r.span, P, r.blocks)
        for t in range(N + 1):
            for i in range(r.F.dims[t]):
                res._value((t, i))
        cache = res._vcache
        assert len(cache) == sum(r.F.dims)
        assert max(den for _, den in cache.values()) > 1
        for arr, den in cache.values():
            assert gcd(den, *arr.ravel().tolist()) == 1


def test_a_span_value_is_made_from_its_path_alone():
    # reading one span value makes the values on its construction path and
    # no other: each from its parent's, on first read
    from finsetrep.oracle.nathom import NatHomResult

    N = 5
    r = nat_hom(build_pbar_tensor(2, N), build_pfin(2, N))
    span = r.span
    for P in (np.eye(r.n_v, dtype=np.int64), r.P):
        for key in ((N, 0), (N, r.F.dims[N] - 1)):
            res = NatHomResult(r.F, r.G, span, P, r.blocks)
            value = res._value(key)
            on_path, path = [key], span.paths[key[0]][key[1]]
            while path[0] == "step":
                on_path.append(path[2:])
                path = span.paths[path[2]][path[3]]
            assert len(on_path) > 2
            assert sorted(res._vcache) == sorted(on_path)
            # the cached value is served again, not remade
            assert res._value(key) is value
            assert len(res._vcache) == len(on_path)


def test_verify_rejects_a_non_solution():
    from finsetrep.oracle import OracleError
    from finsetrep.oracle.nathom import NatHomResult

    r = nat_hom(build_pbar_tensor(2, 4), build_pbar_tensor(2, 4))
    assert r.n_v == 4
    NatHomResult(r.F, r.G, r.span, np.array([[0, 1, 0, 0]]).T, r.blocks).verify()
    with pytest.raises(OracleError, match="solution fails naturality"):
        NatHomResult(r.F, r.G, r.span, np.array([[1, 0, 0, 0]]).T, r.blocks).verify()


def test_verify_catches_a_single_non_solution_column():
    from finsetrep.oracle import OracleError, linalg
    from finsetrep.oracle.nathom import NatHomResult

    N = 4
    F, G = build_pbar_tensor(2, N), rescaled(build_pfin(2, N))
    r = nat_hom(F, G)
    p = r.dimension
    assert p >= 2 and F.dims != G.dims
    # verify() cross-multiplies denominators other than 1
    assert max(r._value((t, i))[1] for t in range(N + 1) for i in range(F.dims[t])) > 1
    # an invertible integer recombination of the basis is a basis too: a
    # product of two unitriangular factors, of determinant 1
    eye, ones = np.eye(p, dtype=np.int64), np.ones((p, p), dtype=np.int64)
    U = (eye + np.triu(ones, 1)) @ (eye + np.tril(ones, -1))
    NatHomResult(F, G, r.span, linalg.imatmul(r.P, U), r.blocks).verify()
    # a unit vector outside P's column span is no solution
    units = np.eye(r.n_v, dtype=np.int64)
    i = next(i for i in range(r.n_v)
             if linalg.rank(SpMat.from_dense(np.hstack([r.P, units[:, [i]]]))) > p)
    for k in range(p):
        P = r.P.copy()
        P[:, k] = np.eye(r.n_v, dtype=np.int64)[:, i]
        with pytest.raises(OracleError, match="solution fails naturality"):
            NatHomResult(F, G, r.span, P, r.blocks).verify()


def test_precomputed_magnitude_bounds_hold(monkeypatch):
    # every bound handed to lincomb or apply_dense in place of a scan is at
    # least the true max|arr| of its array
    from finsetrep.oracle import linalg

    def true_max(arr):
        return int(np.abs(arr).max(initial=0))

    lincomb, apply_dense = linalg.lincomb, SpMat.apply_dense
    checked = {"lincomb": 0, "apply_dense": 0}

    def checked_lincomb(terms, maxes=None):
        if maxes is not None:
            assert len(maxes) == len(terms)
            assert all(mx >= true_max(arr) for (arr, _), mx in zip(terms, maxes))
            checked["lincomb"] += 1
        return lincomb(terms, maxes)

    def checked_apply_dense(self, X, xmax=None):
        if xmax is not None:
            assert xmax >= true_max(X)
            checked["apply_dense"] += 1
        return apply_dense(self, X, xmax)

    monkeypatch.setattr(linalg, "lincomb", checked_lincomb)
    monkeypatch.setattr(SpMat, "apply_dense", checked_apply_dense)
    N = 4
    pbar2, pfin2 = build_pbar_tensor(2, N), build_pfin(2, N)
    pairs = [
        (rescaled(pfin2), pbar2),
        (pbar2, rescaled(pfin2)),
        (build_proj_cover(1, N), pfin2),
        (build_proj_cover(1, N), rescaled(build_pfin(1, N))),
    ]
    for F, G in pairs:
        r = nat_hom(F, G)
        assert r.dimension > 0, (F.name, G.name)
        r.verify()
        r.outer_bimodule()
    assert all(checked.values()), checked


def _replayed_span_vectors(span):
    """Every span basis vector, rebuilt by replaying its construction path."""
    F = span.F
    vecs = {}

    def replay(t, idx):
        if (t, idx) not in vecs:
            path = span.paths[t][idx]
            if path[0] == "gen":
                vecs[(t, idx)] = fraction_vector(F.generators[path[1]][1])
            else:
                _, key, s, j = path
                vecs[(t, idx)] = apply_sparse(F.act[key], replay(s, j))
        return vecs[(t, idx)]

    for t in range(F.N + 1):
        for idx in range(len(span.paths[t])):
            replay(t, idx)
    return vecs


def _column(M, j):
    """Column j of the SpMat M as a sparse Fraction column."""
    return apply_sparse(M, {j: Fraction(1)})


def _aug_kernel(N):
    """The kernel of the augmentation pfin(1) -> k, with every basis
    vector of it a declared generator."""
    pfin1, k = build_pfin(1, N), build_const_k(N)
    augmentation = [
        SpMat(k.dims[t], pfin1.dims[t], [0] * pfin1.dims[t], range(pfin1.dims[t]),
              [1] * pfin1.dims[t])
        for t in range(N + 1)
    ]
    return kernel_functor(pfin1, k, augmentation, "aug-kernel")


def test_span_pass_records_move_expansions():
    N = 4
    aug_kernel = _aug_kernel(N)
    assert len(aug_kernel.generators) == sum(aug_kernel.dims) > 1
    sources = [
        build_pfin(2, N),
        build_pbar_tensor(2, N),
        build_proj_cover(2, N),
        build_kfi(2, N),
        build_lambda_pbar(2, N),
        aug_kernel,
        rescaled(build_pbar_tensor(2, N)),
    ]
    for F in sources:
        span = build_span(F)
        vecs = _replayed_span_vectors(span)
        assert len(vecs) == sum(F.dims), F.name
        for (t, idx), v in vecs.items():
            assert _column(span.basis[t], idx) == v, (F.name, t, idx)
            assert apply_sparse(span.expansion(t), v) == {idx: Fraction(1)}, (F.name, t, idx)
        # reference: each move image expanded in the finished basis
        for key in F.gen_keys():
            s, t = F.gen_src_dst(key)
            gamma = span.gamma(key)
            assert gamma.shape == (F.dims[t], F.dims[s]), (F.name, key)
            for j in range(F.dims[s]):
                ref = apply_sparse(span.expansion(t), apply_sparse(F.act[key], vecs[(s, j)]))
                assert _column(gamma, j) == ref, (F.name, key, j)
                assert gamma.column_index().get(j, []) == [
                    (i, c * gamma.den) for i, c in sorted(ref.items())
                ], (F.name, key, j)
        # each kept vector is F(w) of its generator, for the set map w of
        # its record
        assert [len(r) for r in span.records] == F.dims, F.name
        for t, records in enumerate(span.records):
            for (a, w), idx in records.items():
                d, col = F.generators[a]
                assert len(w) == d and all(0 <= x < t for x in w), (F.name, t, idx)
                assert apply_sparse(map_matrix(F, w, d, t), fraction_vector(col)) == vecs[(t, idx)], (
                    F.name, t, idx)
        # the declared generators, expanded in the basis of their size
        for d, col in F.generators:
            v = fraction_vector(col)
            assert apply_sparse(span.basis[d], apply_sparse(span.expansion(d), v)) == v, F.name
    # the rescaled source's basis vectors have denominators
    assert max(B.den for B in build_span(sources[-1]).basis) > 1


def test_span_pass_tells_a_shortfall_from_an_unlucky_prime():
    from finsetrep.oracle import OracleError, linalg
    from finsetrep.oracle.nathom import _span_pass, _spans_subfunctor

    N, p0 = 4, 101
    word = next(linalg._primes())
    # the generators coincide mod p0 and are independent over Q, so size 1
    # is short mod p0 and full at a word prime
    unlucky = direct_sum([build_pfin(1, N), build_pfin(1, N)], "pfin(1)^2")
    unlucky.generators = [(1, np.array(col)) for col in ([p0, 1], [0, 1])]
    short = _span_pass(unlucky, p0)
    assert [len(paths) for paths in short.paths] == [0, 1, 2, 3, 4]
    # the kept vectors span the subfunctor of the first generator, which
    # misses the second: the prime was unlucky
    assert not _spans_subfunctor(short)
    assert _spans_subfunctor(_span_pass(unlucky, word))
    # without the second generator that subfunctor is the real span
    unlucky.generators = unlucky.generators[:1]
    assert _spans_subfunctor(_span_pass(unlucky, p0))
    with pytest.raises(OracleError, match="generators span only 1 of 2 dimensions at size 1"):
        build_span(unlucky)
    # a full span with one basis vector dropped at size t: a move image or
    # a generator leaves the span, since the generators generate F
    F = build_pbar_tensor(2, N)
    span = build_span(F)
    for t in range(2, N + 1):
        B = span.basis[t]
        keep = B.cols < B.n - 1
        basis = list(span.basis)
        basis[t] = SpMat(B.m, B.n - 1, B.rows[keep], B.cols[keep], B.vals[keep], B.den)
        assert not _spans_subfunctor(dataclasses.replace(span, basis=basis)), t


def test_span_pass_raises_once_the_primes_run_out(monkeypatch):
    from finsetrep.oracle import linalg

    N, p0 = 4, 101
    # a move with denominator p0, which p0 cannot invert, and no other prime
    scaled = build_pfin(2, N)
    scaled.act[("inc", 1)] = scaled.act[("inc", 1)].scale(1, p0)
    monkeypatch.setattr(linalg, "_primes", lambda: iter([p0]))
    with pytest.raises(ArithmeticError, match="the modular span pass ran out of word primes"):
        build_span(scaled)


def _span_answer(span):
    gammas = {}
    for key in span.F.gen_keys():
        g = span.gamma(key)
        gammas[key] = (g.shape, g.den, g.rows.tolist(), g.cols.tolist(), g.vals.tolist())
    return span.paths, span.gen_used, gammas


def test_span_pass_survives_unlucky_primes(monkeypatch):
    from finsetrep.oracle import linalg, nathom

    N, p0 = 4, 101
    word = list(itertools.islice(linalg._primes(), 5))
    # over Q the generators are independent; mod p0 they coincide, so size
    # 1 is short mod p0
    unlucky = direct_sum([build_pfin(1, N), build_pfin(1, N)], "pfin(1)^2")
    unlucky.generators = [(1, np.array(col)) for col in ([p0, 1], [0, 1])]
    # a move with denominator p0, which p0 cannot invert
    scaled = build_pfin(2, N)
    scaled.act[("inc", 1)] = scaled.act[("inc", 1)].scale(1, p0)
    # over Q the third generator is a combination of the first two; mod p0
    # the first two coincide, so p0 takes the third instead: a full basis
    # mod p0, hence over Q, other than the exact pass's
    other = direct_sum([build_pfin(1, N), build_pfin(1, N)], "pfin(1)^2")
    other.generators = [(1, np.array(col)) for col in ([p0, 1], [0, 1], [1, 0])]
    cases = [
        (unlucky, p0, [p0, word[0]]),
        (scaled, p0, [p0, word[0]]),
        # the exact pass's choices mod 7
        (build_pbar_tensor(3, N), 7, [7]),
        (other, p0, [p0]),
    ]
    span_pass = nathom._span_pass
    for F, first, expected_primes in cases:
        ref = _span_answer(build_span(dataclasses.replace(F, span_cache=None)))
        used = []

        def logged(F, p):
            # the shortfall check's ranks draw primes too: log the span pass's
            used.append(p)
            return span_pass(F, p)

        monkeypatch.setattr(linalg, "_primes", lambda: iter([first] + word))
        monkeypatch.setattr(nathom, "_span_pass", logged)
        answer = _span_answer(build_span(F))
        monkeypatch.undo()
        assert used == expected_primes, F.name
        if F is other:
            assert answer[0] != ref[0] and answer[1] == [True, False, True]
        else:
            assert answer == ref, F.name
    for G in (build_pfin(1, N), build_pbar_tensor(1, N), build_pfin(2, N)):
        r = nat_hom(other, G)
        assert r.dimension == nat_hom_dense_dim(other, G), G.name
        r.verify()


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
    # every constraint that SpanData.matches skips is zero on the identity P,
    # whose columns give the used generators independent values: so it is
    # zero for every P, by G's functoriality alone
    from math import lcm

    from finsetrep.oracle import linalg
    from finsetrep.oracle.nathom import NatHomResult

    pairs = [
        (build_pbar_tensor(2, 4), build_pbar_tensor(2, 4)),
        (build_proj_cover(1, 4), build_pfin(2, 4)),
        # two generators of one size: a match must tell them apart
        (build_proj_cover(3, 5), build_kfi(3, 5)),
    ]
    assert [d for d, _ in pairs[-1][0].generators] == [4, 4]
    for F, G in pairs:
        span = build_span(F)
        blocks, off = {}, 0
        for a, (d, _) in enumerate(F.generators):
            if span.gen_used[a]:
                blocks[a], off = (d, off), off + G.dims[d]
        value = NatHomResult(F, G, span, np.eye(off, dtype=np.int64), blocks)._value
        matched = 0
        for key in F.gen_keys():
            s, t = F.gen_src_dst(key)
            for j in span.matches(key):
                # the full constraint: G(key) V(s, j) - sum_i gamma_i V(t, i)
                sarr, sden = value((s, j))
                m = G.act[key]
                gamma = _column(span.gamma(key), j)
                terms = [(c, *value((t, i))) for i, c in gamma.items()]
                # F(key) b_j is a kept vector
                assert len(gamma) == 1 and list(gamma.values()) == [1], (F.name, key, j)
                L = lcm(m.den * sden, *(c.denominator * d for c, _, d in terms))
                W = linalg.lincomb([(m.apply_dense(sarr), -(L // (m.den * sden)))] + [
                    (arr, c.numerator * (L // (c.denominator * d))) for c, arr, d in terms
                ])
                assert not W.any(), (F.name, key, j)
            # the images the pass accepted along key are among the matches
            accepted = {path[3] for path in span.paths[t] if path[0] == "step" and path[1] == key}
            assert accepted <= span.matches(key) <= span.skips(key), (F.name, key)
            matched += len(span.matches(key))
        # every vector but the generators is an accepted image, and the
        # matches hold more than those
        assert matched > sum(F.dims) - sum(span.gen_used) > 0, F.name


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
    r = nat_hom(pbar7(4), build_pfin(4, 7))
    assert r.dimension == 24
    assert (r.constraints["implied"], r.constraints["kept"]) == (2009, 487)
    for t in range(0, 4):
        assert nat_hom(pbar7(4), pbar7(t)).dimension == 0


def test_relations_behind_the_skips_hold_as_set_maps():
    # the relations of FA that nathom._implied reads (and fold o inc = id,
    # which SpanData.matches finds), composed from the generator maps:
    # inc_t: t -> t+1, fold_t: t+1 -> t merging t-1 with t, tau_{t,i}
    # swapping i-1 and i
    from finsetrep.oracle.functors import _fold_map, _inc_map, _tau_map

    def comp(g, f):  # g o f
        return tuple(g[v] for v in f)

    for t in range(2, 8):
        inc = _inc_map(t - 1)
        for k in range(1, t - 1):
            assert comp(_tau_map(t, k), inc) == comp(inc, _tau_map(t - 1, k))
        # tau_{t-1} moves the new point t-1 into the image: no such relation
        assert t - 1 in comp(_tau_map(t, t - 1), inc)
        for k in range(1, t):
            for l in range(1, t):
                commute = comp(_tau_map(t, k), _tau_map(t, l)) == comp(_tau_map(t, l), _tau_map(t, k))
                assert commute == (abs(k - l) != 1), (t, k, l)
    for u in range(1, 7):
        fold = _fold_map(u)
        assert comp(fold, _inc_map(u)) == tuple(range(u))
        assert comp(fold, _tau_map(u + 1, u)) == fold
        for l in range(1, u):
            commute = comp(fold, _tau_map(u + 1, l)) == comp(_tau_map(u, l), fold)
            assert commute == (l <= u - 2), (u, l)


def test_adjacent_transpositions_must_not_count_as_commuting(monkeypatch):
    # a wrong rule skips a constraint that no kept one implies: the solve
    # then admits a non-solution, and verify() refuses it
    from finsetrep.oracle import OracleError
    from finsetrep.oracle import nathom

    F, G = build_proj_cover(3, 5), build_pfin(3, 5)
    implied = nathom._implied
    monkeypatch.setattr(nathom, "_implied", lambda a, m: implied(a, m) or (
        a[0] == m[0] == "tau" and abs(a[2] - m[2]) == 1))
    r = nat_hom(F, G)
    with pytest.raises(OracleError, match="solution fails naturality"):
        r.verify()
    monkeypatch.undo()
    F.span_cache = None
    r = nat_hom(F, G)
    assert r.dimension == 6
    r.verify()


def test_a_match_must_keep_the_generator_apart(monkeypatch):
    # P_3 has two generators of size 4.  A match keyed on the set map alone
    # takes F(key) b_j for a kept vector that the other generator builds,
    # and skips a constraint that is not zero: the solve then admits
    # non-solutions, and verify() refuses them
    from finsetrep.oracle import OracleError
    from finsetrep.oracle.functors import move_map
    from finsetrep.oracle.nathom import SpanData

    def by_map_alone(self, key):
        s, t = TruncatedFunctor.gen_src_dst(key)
        f, found = move_map(key), {w for _, w in self.records[t]}
        return {j for j, (_, w) in enumerate(self.records[s]) if tuple(f[x] for x in w) in found}

    F, G = build_proj_cover(3, 5), build_pfin(3, 5)
    monkeypatch.setattr(SpanData, "matches", by_map_alone)
    r = nat_hom(F, G)
    assert r.dimension == 33
    with pytest.raises(OracleError, match="solution fails naturality"):
        r.verify()
    monkeypatch.undo()
    F.span_cache = None
    r = nat_hom(F, G)
    assert r.dimension == 6
    r.verify()


def test_constraint_counts():
    F = build_pbar_tensor(4, 5)
    r = nat_hom(F, build_pfin(4, 5))
    assert r.dimension == 24
    assert {k: r.constraints[k] for k in ("matched", "implied", "kept")} == {
        "matched": 1387, "implied": 185, "kept": 180}
    assert 0 < r.constraints["nonzero"] <= r.constraints["kept"]
    # every move's constraints are counted once: the degree-4 pair reaches
    # every move, and F(t) has dims[t] of them per move out of size t
    assert sum(r.constraints[k] for k in ("matched", "implied", "kept")) == sum(
        F.dims[TruncatedFunctor.gen_src_dst(key)[0]] for key in F.gen_keys())
    # the skips changed this pair's P: re-check it on every constraint
    r.verify()


def _gram_sum_nat_hom(F, G):
    """The reference solve with one Gram sum per move: every kept
    constraint W of a move is evaluated on the P the move starts from and
    folded into sum W^T W, whose kernel (x is in it iff W x = 0 for every
    W) cuts P once per move.  Same blocks, move order and skips as
    nat_hom."""
    from finsetrep.oracle import linalg
    from finsetrep.oracle.nathom import NatHomResult

    span = build_span(F)
    blocks, off = {}, 0
    for a, (d, _) in enumerate(F.generators):
        if span.gen_used[a]:
            blocks[a] = (d, off)
            off += G.dims[d]
    counts = dict.fromkeys(("matched", "implied", "kept", "nonzero"), 0)
    res = NatHomResult(F, G, span, np.eye(off, dtype=np.int64), blocks, counts)
    for key in sorted(F.gen_keys(), key=lambda k: (max(TruncatedFunctor.gen_src_dst(k)), k[0] != "tau")):
        s, t = TruncatedFunctor.gen_src_dst(key)
        if not (F.dims[s] and G.dims[t]):
            continue
        if not res.dimension:
            break
        skip = span.skips(key)
        counts["matched"] += len(span.matches(key))
        counts["implied"] += len(skip) - len(span.matches(key))
        counts["kept"] += F.dims[s] - len(skip)
        gram = None
        for W in res._constraints(key, [j for j in range(F.dims[s]) if j not in skip]):
            if W.any():
                counts["nonzero"] += 1
                block = linalg.imatmul(W.T, W)
                gram = block if gram is None else linalg.lincomb([(gram, 1), (block, 1)])
        if gram is not None:
            res.P = linalg.int_array(linalg.imatmul(res.P, linalg.kernel_basis(gram).T))
            res._vcache.clear()
    return res


def test_constraint_cuts_match_the_gram_sum_reference():
    # nat_hom cuts P at each nonzero constraint by that W's own kernel, and
    # evaluates the move's later constraints on the smaller P; once every
    # kept constraint is imposed, col(P) is the reference's
    from finsetrep.cli import _functor_from_descriptor
    from finsetrep.oracle import linalg

    N = 5
    pairs = [("pbar:4", "pbar:4"), ("proj:4", "pfin:3"), ("pbar:4", "pfin:3"), ("proj:3", "pfin:3")]
    targets = [f"{f}:{d}" for f in ("pfin", "pbar", "kfi", "lambda") for d in range(3)] + ["k", "kbar"]
    for src in (f"{f}:{d}" for f in ("pbar", "proj", "lambdabar") for d in range(3)):
        pairs += [(src, tgt) for tgt in targets if src.startswith("proj") or tgt.split(":")[0] in ("pfin", "pbar")]
    functors, cut_within = {}, []
    for src, tgt in pairs:
        for desc in (src, tgt):
            if desc not in functors:
                functors[desc] = _functor_from_descriptor(desc, N)
        F, G = functors[src], functors[tgt]
        r, ref = nat_hom(F, G), _gram_sum_nat_hom(F, G)
        assert r.dimension == ref.dimension, (src, tgt)
        for k in ("matched", "implied", "kept"):
            assert r.constraints[k] == ref.constraints[k], (src, tgt, k)
        # a constraint zero on the uncut P is zero on the cut one too
        assert r.constraints["nonzero"] <= ref.constraints["nonzero"], (src, tgt)
        cut_within.append(r.constraints["nonzero"] < ref.constraints["nonzero"])
        if r.dimension:
            both = SpMat.from_dense(np.hstack([r.P, ref.P]))
            assert linalg.rank(both) == r.dimension, (src, tgt)
            r.verify()
    # the degree-4 pairs cut within a move, so their later constraints vanish
    assert any(cut_within[:3]), cut_within


def test_degree4_endomorphisms_verify():
    # an independent re-check of the degree-4 skips: verify() checks every
    # move on every span basis vector, the skipped constraints too; it holds
    # one span vector's constraint at a time, so at N=6 it needs no more
    # memory than the solve
    for N in (5, 6):
        F = build_pbar_tensor(4, N)
        r = nat_hom(F, F)
        assert r.dimension == 24
        r.verify()


def test_verify_evaluates_every_constraint(monkeypatch):
    # verify() evaluates c(key, b_j) once for every span vector b_j of
    # every move whose target is nonzero, never reading the solve's skips:
    # here the solve kept none of them
    from finsetrep.oracle.nathom import NatHomResult, SpanData

    F, G = build_pfin(2, 4), build_kfi(2, 4)
    r = nat_hom(F, G)
    assert r.dimension > 0 and r.constraints["matched"] > 0 == r.constraints["kept"]
    assert F.dims[2] > 0 and G.dims[1] == 0  # no constraint of fold: 2 -> 1
    calls = []
    constraints = NatHomResult._constraints

    def counted(self, key, js):
        js = list(js)
        for j, W in zip(js, constraints(self, key, js), strict=True):
            calls.append((key, j))
            yield W

    monkeypatch.setattr(NatHomResult, "_constraints", counted)
    monkeypatch.setattr(SpanData, "skips", lambda self, key: pytest.fail("verify() read a skip set"))
    monkeypatch.setattr(SpanData, "matches", lambda self, key: pytest.fail("verify() read a match set"))
    r.verify()
    moves = [TruncatedFunctor.gen_src_dst(key) for key in F.gen_keys()]
    assert len(calls) == len(set(calls)) == sum(F.dims[s] for s, t in moves if G.dims[t] > 0)


def test_truncation_mismatch_rejected():
    from finsetrep.oracle import OracleError

    with pytest.raises(OracleError):
        nat_hom(build_kbar(4), build_kbar(5))


def test_outer_character_refuses_a_non_integral_trace(monkeypatch):
    from finsetrep.oracle import OracleError

    # the target's outer transposition is the only one: its matrix is the
    # whole coordinates call, here patched to one half
    r = nat_hom(build_pbar_tensor(1, 4), build_pfin(2, 4))
    assert r.dimension == 1 and (r.F.outer_n, r.G.outer_n) == (1, 2)
    monkeypatch.setattr(r, "coordinates", lambda A: (np.ones((1, 1), dtype=np.int64), 2))
    with pytest.raises(OracleError, match="non-integral outer character value 1/2"):
        r.outer_character()


def _per_class_outer_character(r):
    """The outer character evaluated one class pair (alpha, beta) at a time:
    the used generators acted on by F's outer_matrix(g) along g's word,
    evaluated on every basis solution, then G's outer_matrix(h), the
    coordinates of the result over the basis and their exact trace."""
    from math import lcm

    from finsetrep.oracle import linalg
    from finsetrep.symrep import representative

    values = {}
    for alpha, beta in itertools.product(partitions_of(r.F.outer_n), partitions_of(r.G.outer_n)):
        if not r.dimension:
            values[(alpha, beta)] = 0
            continue
        g, h = representative(alpha), representative(beta)
        acted = []
        for a, (d, _) in r.blocks.items():
            gmat, E = r.F.outer_matrix(g, d), r.span.expansion(d)
            C = E.apply_dense(gmat.apply_dense(r.F.generators[a][1])).tolist()
            Y, yden = r._evaluate(d, [(i, c) for i, c in enumerate(C) if c], E.den * gmat.den)
            hmat = r.G.outer_matrix(h, d)
            acted.append((hmat.apply_dense(Y), yden * hmat.den))
        den = lcm(*(aden for _, aden in acted))
        Y, D = r.coordinates(np.concatenate([linalg.lincomb([(arr, den // aden)]) for arr, aden in acted]))
        values[(alpha, beta)] = Fraction(int(np.trace(Y)), D * den)
    return values


def test_outer_character_matches_the_per_class_evaluation(monkeypatch):
    # the traces read off the transpositions' matrices against the old
    # route's evaluation per class pair, on outer degrees 0 to 4
    from finsetrep.oracle.nathom import NatHomResult

    N = 4
    cases = [
        (build_pbar_tensor(2, N), build_pbar_tensor(2, N)),
        (build_pbar_tensor(2, N), build_pfin(3, N)),
        (build_pbar_tensor(3, N), build_pbar_tensor(3, N)),
        (build_proj_cover(2, N), build_pfin(2, N)),
        (build_proj_cover(3, N), build_pfin(3, N)),
        (build_proj_cover(2, N), build_pbar_tensor(3, N)),
        (build_kfi(2, N), build_pfin(3, N)),
        (build_pbar_tensor(4, 5), build_pfin(4, 5)),
        # one side of outer degree 0 or 1
        (build_pbar_tensor(1, N), build_pfin(3, N)),
        (build_pfin(3, N), build_pfin(1, N)),
        (build_pfin(2, N), build_kbar(N)),
        (build_const_k(N), build_const_k(N)),
        (build_pfin(1, N), build_pfin(1, N)),
        # zero-dimensional
        (build_pbar_tensor(3, N), build_pbar_tensor(2, N)),
    ]
    calls = {"coordinates": 0, "_evaluate": 0}
    for name in calls:
        method = getattr(NatHomResult, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(NatHomResult, name, counted)
    for k, (F, G) in enumerate(cases):
        r = nat_hom(F, G)
        assert (r.dimension == 0) == (k == len(cases) - 1), (F.name, G.name)
        for name in calls:
            calls[name] = 0
        got = r.outer_character().values
        # one coordinates call, and one acted-generator evaluation per
        # transposition of F and used block
        transpositions = max(F.outer_n - 1, 0) + max(G.outer_n - 1, 0)
        assert calls == {
            "coordinates": int(r.dimension > 0 and transpositions > 0),
            "_evaluate": max(F.outer_n - 1, 0) * len(r.blocks) if r.dimension else 0,
        }, (F.name, G.name)
        assert got == _per_class_outer_character(r), (F.name, G.name)
