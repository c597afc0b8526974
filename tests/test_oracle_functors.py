from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from finsetrep.partitions import Partition, one_column, partitions_of
from finsetrep import symrep as sr
from finsetrep.oracle import (
    OracleError,
    build_const_k,
    build_k0,
    build_kbar,
    build_kfi,
    build_lambda_pbar,
    build_lambda_pfin,
    build_pbar_tensor,
    build_pfin,
    build_proj_cover,
    fb_module_data,
    inner_class,
    isotypic_subfunctor,
    map_matrix,
    quotient_functor,
    sgn_coinvariant_dim,
)
from finsetrep.oracle.functors import SpMat, _block_diagonal, lambda_pbar_embedding


def test_dimension_formulas():
    N = 5
    assert build_pfin(2, N).dims == [t**2 for t in range(N + 1)]
    assert build_pbar_tensor(3, N).dims == [0] + [(t - 1) ** 3 for t in range(1, N + 1)]
    assert build_lambda_pfin(2, N).dims == [comb(t, 2) for t in range(N + 1)]
    assert build_lambda_pbar(2, N).dims == [comb(max(t - 1, 0), 2) for t in range(N + 1)]
    assert build_kfi(2, N).dims == [
        factorial(t) // factorial(t - 2) if t >= 2 else 0 for t in range(N + 1)
    ]
    assert build_kbar(N).dims == [0] + [1] * N
    assert build_k0(N).dims == [1] + [0] * N


def test_functoriality_exhaustive_small():
    N = 4
    for F in [
        build_pfin(2, N),
        build_kfi(2, N),
        build_pbar_tensor(2, N),
        build_lambda_pfin(2, N),
        build_lambda_pbar(1, N),
        build_lambda_pbar(2, N),
        build_lambda_pfin(3, N),
        build_const_k(N),
        build_kbar(N),
        build_k0(N),
        build_proj_cover(1, N),
        build_proj_cover(2, N),
    ]:
        F.check_functoriality(3)


def test_identity_maps_act_as_identity():
    N = 4
    for F in [
        build_pfin(2, N),
        build_pbar_tensor(2, N),
        build_kfi(2, N),
        build_lambda_pbar(2, N),
        build_lambda_pfin(3, N),
        build_const_k(N),
    ]:
        for t in range(N + 1):
            m = map_matrix(F, tuple(range(t)), t, t)
            assert m.equals(SpMat.identity(F.dims[t]))


def _dense_product(m, col):
    rows = m.to_fraction_rows()
    out = {i: sum(row[j] * v for j, v in col.items()) for i, row in enumerate(rows)}
    return {i: v for i, v in out.items() if v}


def test_apply_sparse_matches_dense_product():
    # den != 1 and negative entries; row 0 cancels to zero on the input
    m = SpMat(3, 4, [0, 0, 1, 1, 2, 2], [0, 1, 0, 2, 1, 3], [2, -3, 5, 4, -1, 7], den=6)
    assert m.den == 6
    col = {0: Fraction(3, 2), 1: Fraction(1), 2: Fraction(-5, 8)}
    out = m.apply_sparse(col)
    assert out == _dense_product(m, col)
    assert out == {1: Fraction(5, 6), 2: Fraction(-1, 6)}
    assert 0 not in out
    # the cached column index gives the same answer on every call
    assert m.apply_sparse(col) == out
    assert m.apply_sparse({3: Fraction(6, 7)}) == _dense_product(m, {3: Fraction(6, 7)})
    assert m.apply_sparse({}) == {}


def test_apply_dense_edge_cases():
    # repeated rows (three entries in row 0), empty rows 1 and 3; den is ignored
    m = SpMat(4, 3, [0, 0, 0, 2, 2], [0, 1, 2, 0, 2], [1, -2, 3, 4, 5], den=3)
    dense = np.array(m.int_rows(), dtype=np.int64)
    X = np.arange(6, dtype=np.int64).reshape(3, 2) - 2
    out = m.apply_dense(X)
    assert out.dtype == np.int64 and out.shape == (4, 2)
    assert (out == dense @ X).all()
    assert (out[1] == 0).all() and (out[3] == 0).all()
    v = np.array([1, -1, 2], dtype=np.int64)
    assert (m.apply_dense(v) == dense @ v).all()
    # zero-width input
    assert m.apply_dense(np.zeros((3, 0), dtype=np.int64)).shape == (4, 0)
    # no entries at all
    z = SpMat.zeros(4, 3)
    assert z.nnz == 0
    assert (z.apply_dense(X) == np.zeros((4, 2), dtype=np.int64)).all()


def test_apply_dense_is_exact_past_int64():
    # 2**40 * 2**24 would wrap to 0 in int64: it runs on Python ints
    out = SpMat(1, 1, [0], [0], [2**40]).apply_dense(np.array([[2**24]]))
    assert out.tolist() == [[2**64]]
    # each product fits, but a row of 16 sums to 2**64
    row = SpMat(1, 16, [0] * 16, range(16), [2**40] * 16)
    out = row.apply_dense(np.full((16, 1), 2**20, dtype=np.int64))
    assert out.tolist() == [[2**64]]
    # well inside the bound the product stays on int64
    out = row.apply_dense(np.ones((16, 1), dtype=np.int64))
    assert out.dtype == np.int64 and out[0, 0] == 2**44
    # a Python-int input is taken as well
    X = np.array([[2**70], [1]] + [[0]] * 14, dtype=object)
    assert row.apply_dense(X).tolist() == [[2**110 + 2**40]]


def test_spmat_sum_and_scale_do_not_wrap():
    # the sum is (2**70 + 3) / (3 * 2**30), whose numerator no SpMat holds;
    # int64 arithmetic would wrap 2**40 * 2**30 to 0
    a, b = SpMat(1, 1, [0], [0], [2**40], den=3), SpMat(1, 1, [0], [0], [1], den=2**30)
    with pytest.raises(OracleError):
        a + b
    with pytest.raises(OracleError):
        _block_diagonal([a, b])
    with pytest.raises(OracleError):
        SpMat(1, 1, [0], [0], [2**40]).scale(2**30)
    # below the guard the answers are exact
    s = SpMat(1, 1, [0], [0], [2**20], den=3) + SpMat(1, 1, [0], [0], [1], den=2**30)
    assert s.trace() == Fraction(2**20, 3) + Fraction(1, 2**30)
    assert SpMat(1, 1, [0], [0], [2**20]).scale(-(2**30), 7).trace() == Fraction(-(2**50), 7)


def test_pbar_basis_example():
    # the reduced projective has dimension 2 on a 3-set
    F = build_pbar_tensor(1, 4)
    assert F.dims[3] == 2


def test_lambda_pbar_top_value_is_sign():
    for t in range(1, 4):
        F = build_lambda_pbar(t, t + 2)
        assert F.dims[t + 1] == 1
        dec = inner_class(F, t + 1)
        assert dec.mults == {one_column(t + 1): 1}


def test_kfi_examples():
    F = build_kfi(2, 4)
    assert F.dims[1] == 0
    dec = inner_class(F, 3)
    # injections 2 -> 3 form the class triv (x) induction: dimension 6
    assert dec.dim() == 6


def test_inner_characters_match_symbolic():
    # evaluation classes of the standard projective match the fixed-point
    # character formula
    F = build_pfin(2, 5)
    for t in range(1, 6):
        vals = {
            beta: Fraction(sum(1 for d in beta if d == 1) ** 2)
            for beta in partitions_of(t)
        }
        assert inner_class(F, t) == sr.decompose(sr.ClassFunction(t, vals))


def test_proj_cover_dims():
    # covers: dim = C(t, n+1) + ((t-1)^n - C(t-1, n))
    for n in range(0, 4):
        P = build_proj_cover(n, 6)
        for t in range(7):
            pbar_dim = (t - 1) ** n if (t >= 1 and n >= 1) else (1 if t >= 1 else 0)
            lam_dim = comb(t - 1, n) if t >= 1 else 0
            expected = comb(t, n + 1) + (pbar_dim - lam_dim if n >= 1 else 0)
            assert P.dims[t] == expected, (n, t)


def test_quotient_rejects_unstable_span():
    # a random non-stable subspace of the standard projective must be
    # rejected by the stability check
    F = build_pfin(1, 3)
    cols = [[], [{0: Fraction(1)}], [], []]
    with pytest.raises(OracleError):
        quotient_functor(F, cols, name="bogus")


def test_lambda_embedding_matches_wedge_dims():
    cols = lambda_pbar_embedding(2, 5)
    for t in range(6):
        assert len(cols[t]) == comb(max(t - 1, 0), 2)


def test_isotypic_subfunctor_dims_and_sum():
    F = build_pbar_tensor(2, 5)
    pieces = {lam: isotypic_subfunctor(F, lam) for lam in partitions_of(2)}
    for t in range(6):
        assert sum(p.dims[t] for p in pieces.values()) == F.dims[t]
    # symmetric-square piece has the Schur dimensions (multiplicity one)
    sym = pieces[Partition((2,))]
    for t in range(1, 6):
        assert sym.dims[t] == comb(t - 1 + 1, 2)
    alt = pieces[Partition((1, 1))]
    for t in range(1, 6):
        assert alt.dims[t] == comb(t - 1, 2)
    sym.check_functoriality(3)


def test_kernel_functor_recovers_reduced_projective():
    from finsetrep.oracle import kernel_functor, nat_hom

    N = 5
    F = build_pfin(1, N)
    G = build_const_k(N)
    mats = [
        SpMat(G.dims[t], F.dims[t], [0] * F.dims[t], list(range(F.dims[t])),
              [1] * F.dims[t])
        if F.dims[t]
        else SpMat.zeros(G.dims[t], 0)
        for t in range(N + 1)
    ]
    K = kernel_functor(F, G, mats, "aug-kernel")
    assert K.dims == [0, 0, 1, 2, 3, 4]
    K.check_functoriality(3)
    pb = build_pbar_tensor(1, N)
    assert nat_hom(K, pb).dimension == 1
    assert nat_hom(pb, K).dimension == 1
    assert nat_hom(K, K).dimension == 1


def test_kernel_functor_rejects_non_natural_maps():
    from finsetrep.oracle import kernel_functor

    N = 4
    F = build_pfin(1, N)
    G = build_const_k(N)
    mats = [SpMat.zeros(G.dims[t], F.dims[t]) for t in range(N + 1)]
    # corrupt one size: send only the first basis vector to 1
    mats[2] = SpMat(1, 2, [0], [0], [1])
    with pytest.raises(OracleError):
        kernel_functor(F, G, mats, "broken")


def test_kernel_functor_rejects_a_kernel_the_outer_action_moves():
    from finsetrep.oracle import kernel_functor, nat_hom

    # a natural map pfin(3) -> pfin(2) that does not commute with the outer
    # S_3 action on the source's tensor positions
    res = nat_hom(build_pfin(3, 5), build_pfin(2, 5))
    mats = [res.solution_matrix(0, t) for t in range(6)]
    with pytest.raises(OracleError, match="not stable under the outer action"):
        kernel_functor(build_pfin(3, 5), build_pfin(2, 5), mats, "kernel")


def test_sgn_coinvariant_dims():
    # sign-coinvariants of the standard projective: dimension of
    # sgn_t (x) k[t]^{(x)n}
    F = build_pfin(2, 5)
    for t in range(1, 6):
        dec = inner_class(F, t)
        assert sgn_coinvariant_dim(F, t) == dec[one_column(t)]


def test_fb_module_data_extraction():
    F = build_kfi(2, 5)
    data = fb_module_data(F)
    assert data.F0_dim == 0
    assert data.degree(3).dim() == 6
    for t in range(1, 6):
        assert data.degree(t).dim() == F.dims[t]


def test_outer_action_is_natural():
    # outer transpositions commute with every generator action
    for F in [build_pfin(2, 4), build_pbar_tensor(2, 4), build_kfi(2, 4)]:
        for key in F.gen_keys():
            s, t = F.gen_src_dst(key)
            for i in range(1, F.outer_n):
                lhs = F.outer_act[(i, t)].compose(F.act[key])
                rhs = F.act[key].compose(F.outer_act[(i, s)])
                assert lhs.equals(rhs)
