import itertools
from fractions import Fraction
from math import comb, factorial, lcm

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
)
from finsetrep.oracle.functors import (
    SpMat,
    TruncatedFunctor,
    _block_diagonal,
    _cleared,
    is_natural,
    lambda_pbar_embedding,
    move_map,
    sgn_coinvariant_reduction,
    subspace_maps,
)


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


def test_inner_and_outer_permutation_orders():
    """map_matrix composes covariantly; outer_matrix is a right action."""
    F, t = build_pfin(3, 4), 3
    perms = list(itertools.permutations(range(3)))
    for g in perms:
        for h in perms:
            gh = tuple(g[h[i]] for i in range(3))
            hg = tuple(h[g[i]] for i in range(3))
            assert map_matrix(F, g, t, t).compose(map_matrix(F, h, t, t)).equals(
                map_matrix(F, gh, t, t))
            assert F.outer_matrix(g, t).compose(F.outer_matrix(h, t)).equals(
                F.outer_matrix(hg, t))


def apply_sparse(m, col):
    """m @ col for a sparse Fraction column (exact; includes m.den): the
    tests' reference product through a SpMat."""
    idx = m.column_index()
    out = {}
    for c, cv in col.items():
        for r, v in idx.get(c, ()):
            nv = out.get(r, Fraction(0)) + Fraction(v, m.den) * cv
            if nv:
                out[r] = nv
            elif r in out:
                del out[r]
    return out


def fraction_vector(x, den=1):
    """The integer vector x / den as a sparse Fraction column."""
    return {i: Fraction(int(v), den) for i, v in enumerate(x) if v}


def _from_fraction_columns(m, columns):
    """The m x len(columns) SpMat with the given sparse Fraction columns."""
    den = lcm(*(v.denominator for col in columns for v in col.values()))
    A = np.zeros((m, len(columns)), dtype=object)
    for j, col in enumerate(columns):
        for i, v in col.items():
            A[i, j] = int(v * den)
    return SpMat.from_dense(A, den)


def _cleared_reference(col, dim):
    """Dense integer multiple of a sparse Fraction column: its entries
    times the lcm of their denominators."""
    den = lcm(*(v.denominator for v in col.values()))
    vec = np.zeros(dim, dtype=np.int64)
    for i, v in col.items():
        vec[i] = int(v * den)
    return vec


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


def test_apply_dense_gathers_the_rows_of_a_one_entry_matrix():
    # every row one entry equal to 1 (den ignored): a permutation, and a
    # map whose rows share a column, are row gathers of X on X's dtype; a
    # sign, a 2 or an empty row takes the bucketed product
    cases = [
        (SpMat(3, 3, [0, 1, 2], [2, 0, 1], [1, 1, 1], den=5), True),
        (SpMat(4, 2, [0, 1, 2, 3], [1, 1, 0, 1], [1, 1, 1, 1]), True),
        (SpMat(3, 3, [0, 1, 2], [2, 0, 1], [1, -1, 1]), False),
        (SpMat(3, 3, [0, 1, 2], [2, 0, 1], [1, 2, 1]), False),
        (SpMat(3, 3, [0, 2], [2, 1], [1, 1]), False),
    ]
    for A, gather in cases:
        assert A._buckets()[4] is gather
        dense = np.array(A.int_rows(), dtype=object)
        for X in (np.arange(A.n, dtype=np.int64) - 1,
                  np.arange(2 * A.n, dtype=np.int64).reshape(A.n, 2) * 7,
                  np.array([[2**70 + i] for i in range(A.n)], dtype=object)):
            out = A.apply_dense(X)
            assert (out == np.tensordot(dense, X.astype(object), axes=1)).all()
            if gather:
                assert out.dtype == X.dtype
                out[...] = 0  # a copy: X keeps its entries
                assert X.any()


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
    # the sum is (2**70 + 3) / (3 * 2**30), past int64: int64 arithmetic
    # would wrap 2**40 * 2**30 to 0
    a, b = SpMat(1, 1, [0], [0], [2**40], den=3), SpMat(1, 1, [0], [0], [1], den=2**30)
    assert (a + b).trace() == Fraction(2**70 + 3, 3 * 2**30)
    assert _block_diagonal([a, b]).trace() == Fraction(2**40, 3) + Fraction(1, 2**30)
    assert SpMat(1, 1, [0], [0], [2**40]).scale(2**30).trace() == 2**70
    # a product past int64, and duplicate entries whose sum is past it
    row = SpMat(1, 2, [0, 0], [0, 1], [2**40, 2**40], den=3)
    assert row.compose(SpMat(2, 1, [0, 1], [0, 0], [2**40, 2**41])).trace() == 2**80
    assert SpMat(1, 1, [0, 0], [0, 0], [2**62 - 1, 2**62 - 1]).trace() == 2**63 - 2
    # a list that numpy alone would read as floats
    assert SpMat(1, 2, [0, 0], [0, 1], [-1, 2**63 + 1]).vals.tolist() == [-1, 2**63 + 1]
    # below int64's bound the answers are exact too
    s = SpMat(1, 1, [0], [0], [2**20], den=3) + SpMat(1, 1, [0], [0], [1], den=2**30)
    assert s.trace() == Fraction(2**20, 3) + Fraction(1, 2**30)
    assert SpMat(1, 1, [0], [0], [2**20]).scale(-(2**30), 7).trace() == Fraction(-(2**50), 7)


def test_spmat_equals_compares_the_canonical_form():
    A = SpMat(2, 3, [0, 1, 1], [2, 0, 1], [3, -4, 6], den=5)
    same = [
        # duplicate entries, out of order, and a zero entry
        SpMat(2, 3, [1, 0, 1, 1, 0], [0, 2, 1, 0, 0], [-1, 3, 6, -3, 0], den=5),
        # a scaled (and negative) denominator
        SpMat(2, 3, [0, 1, 1], [2, 0, 1], [-21, 28, -42], den=-35),
        SpMat(2, 3, [0, 1, 1], [2, 0, 1], np.array([3, -4, 6], dtype=object), den=5),
    ]
    different = [
        SpMat(3, 3, [0, 1, 1], [2, 0, 1], [3, -4, 6], den=5),
        SpMat(2, 3, [0, 1, 1], [2, 0, 1], [3, -4, 6], den=7),
        SpMat(2, 3, [0, 1, 1], [2, 0, 1], [3, -4, 7], den=5),
        SpMat(2, 3, [0, 1, 1], [2, 0, 2], [3, -4, 6], den=5),
    ]
    for B in same:
        assert A.equals(B) and B.equals(A)
    for B in different:
        assert not A.equals(B) and not B.equals(A)
    # entries past int64, one of them a sum of duplicates
    big = SpMat(1, 2, [0, 0], [0, 1], [2**70, -1])
    assert big.equals(SpMat(1, 2, [0, 0, 0], [1, 0, 0], [-1, 2**69, 2**69]))
    assert not big.equals(SpMat(1, 2, [0, 0], [0, 1], [2**70 + 1, -1]))


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


def test_subspace_maps_expand_and_project():
    from finsetrep.oracle import linalg

    rng = np.random.default_rng(2024)
    checked = big = 0
    for trial in range(24):
        n, k = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        k = min(k, n - 1)
        S = rng.integers(-3, 4, size=(n, k))
        if linalg.rank(SpMat.from_dense(S)) < k:
            continue
        u = rng.integers(-3, 4, size=(n, 1))
        if linalg.rank(SpMat.from_dense(np.hstack([S, u]))) == k:
            continue
        if trial % 2:
            # whole rows scaled past 2^62, so every array is on Python ints
            scales = np.array([int(rng.choice([1, -3])) << 63 | 1 for _ in range(n)], dtype=object)
            S, u = S.astype(object) * scales[:, None], u.astype(object) * scales[:, None]
            big += 1
        Sub = SpMat.from_dense(S)
        E, pi, free, J = subspace_maps(Sub)
        D = linalg.row_inverse(Sub)[2].den
        assert J == list(range(k))
        assert E.den == D and E.shape == (k, n) and pi.shape == (n - k, n)
        assert E.compose(Sub).equals(SpMat.identity(k))
        assert (E.apply_dense(S) == D * np.eye(k, dtype=object)).all()
        assert pi.compose(Sub).is_zero()
        # pi restricted to the free coordinates is the identity, D I / D
        assert pi.compose(SpMat.unit_columns(n, free)).equals(SpMat.identity(n - k))
        assert (pi.apply_dense(S) == 0).all()
        # a vector outside the span: a combination of S's columns plus u
        v = S @ rng.integers(-2, 3, size=(k, 1)) + u
        assert pi.apply_dense(v).any()
        assert (pi.apply_dense(v) == pi.apply_dense(u)).all()
        checked += 1
    assert checked > 12 and big > 5


def test_quotient_rejects_unstable_span():
    # a random non-stable subspace of the standard projective must be
    # rejected by the stability check
    F = build_pfin(1, 3)
    cols = [SpMat.zeros(d, 0) for d in F.dims]
    cols[1] = SpMat.identity(1)
    with pytest.raises(OracleError):
        quotient_functor(F, cols, name="bogus")


def test_lambda_embedding_matches_wedge_dims():
    cols = lambda_pbar_embedding(2, 5)
    for t in range(6):
        assert cols[t].shape == (max(t - 1, 0) ** 2, comb(max(t - 1, 0), 2))
    # Lambda^0(Pbar) is all of pbar(0): the quotient by it is zero
    cols = lambda_pbar_embedding(0, 4)
    assert [c.int_rows().tolist() for c in cols] == [[]] + [[[1]]] * 4
    assert quotient_functor(build_pbar_tensor(0, 4), cols, name="pbar(0)/lambda").dims == [0] * 5


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


def test_isotypic_pieces_of_a_rescaled_functor_at_size_5():
    # the projectors' dens reach lcm(1..25)
    F = rescaled(build_pfin(2, 5))
    pieces = [isotypic_subfunctor(F, lam) for lam in partitions_of(2)]
    assert [sum(p.dims[t] for p in pieces) for t in range(6)] == F.dims
    assert pieces[0].dims != F.dims and pieces[1].dims != F.dims
    pieces[0].check_functoriality(3)


def test_a_functor_with_entries_past_int64_is_solved_exactly():
    from finsetrep.oracle import nat_hom

    # the basis 2**(20 i) e_i puts entries up to 2**160 in the moves
    pbar2, pfin2 = build_pbar_tensor(2, 4), build_pfin(2, 4)
    F = rescaled(pbar2, diagonal=lambda n: [2 ** (20 * i) for i in range(n)])
    assert max(abs(v) for m in F.act.values() for v in m.vals.tolist()) >= 2**100
    F.check_functoriality(3)
    res = nat_hom(F, pfin2)
    assert res.dimension == 2
    res.verify()
    assert res.outer_bimodule() == nat_hom(pbar2, pfin2).outer_bimodule()
    for lam in partitions_of(2):
        assert isotypic_subfunctor(F, lam).dims == isotypic_subfunctor(pbar2, lam).dims


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
        assert len(sgn_coinvariant_reduction(F, t)[2]) == dec[one_column(t)]


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
        for i in range(1, F.outer_n):
            assert is_natural(F, F, [F.outer_transposition(i, t) for t in range(F.N + 1)])


def test_bucketed_apply_dense_matches_the_dense_product():
    rng = np.random.default_rng(7)
    for trial in range(40):
        m, n = int(rng.integers(3, 9)), int(rng.integers(1, 9))
        rows, cols = [], []
        # row 0 is full, row 1 has one entry and row 2 none; the others are
        # random, some with a repeated (row, col) pair that the constructor sums
        for r in [0, 1] + list(range(3, m)):
            k = {0: n, 1: 1}.get(r, int(rng.integers(1, n + 1)))
            cs = list(range(n)) if r == 0 else rng.integers(0, n, size=k).tolist()
            if r > 2 and trial % 3 == 0:
                cs.append(cs[0])
            rows += [r] * len(cs)
            cols += cs
        vals = rng.choice([-3, -2, -1, 1, 2, 4], size=len(rows))
        # every fifth matrix, with its inputs, is past the int64 bound
        big = trial % 5 == 4
        A = SpMat(m, n, rows, cols, vals * (1 << 40) if big else vals, den=int(rng.integers(1, 4)))
        dense = np.array(A.int_rows(), dtype=object)
        for shape in [(n,), (n, 3), (n, 2, 2)]:
            X = rng.integers(-9, 10, size=shape) * ((1 << 24) if big else 1)
            X.flat[0] = 1 << 24 if big else 1
            out = A.apply_dense(X)
            assert out.shape == (m,) + shape[1:]
            assert (out == np.tensordot(dense, X.astype(object), axes=1)).all(), (trial, shape)
            assert np.all(out[2] == 0)
            assert out.dtype == (object if big else np.int64)
        # A composed with a random B, which has no entries every seventh
        # trial; with A's, B's entries reach 2**80 in the big trials
        p, nb = int(rng.integers(1, 6)), 0 if trial % 7 == 6 else int(rng.integers(1, 3 * n))
        bvals = rng.choice([-3, -1, 1, 2, 5], size=nb) * ((1 << 40) if big else 1)
        B = SpMat(n, p, rng.integers(0, n, size=nb), rng.integers(0, p, size=nb), bvals,
                  den=int(rng.integers(1, 4)))
        C = A.compose(B)
        want = dense @ np.array(B.int_rows(), dtype=object)
        assert (np.array(C.int_rows(), dtype=object) * (A.den * B.den) == want * C.den).all()
        assert C.vals.dtype == (object if big and C.nnz else np.int64), trial
        # [A | A] times [B ; -B] cancels to zero in every entry
        AA = SpMat(m, 2 * n, np.r_[A.rows, A.rows], np.r_[A.cols, A.cols + n],
                   np.r_[A.vals, A.vals])
        BB = SpMat(2 * n, p, np.r_[B.rows, B.rows + n], np.r_[B.cols, B.cols],
                   np.r_[B.vals, -B.vals])
        assert AA.compose(BB).is_zero() and AA.compose(BB).den == 1


def rescaled(F, diagonal=lambda n: range(1, n + 1)):
    """F in the basis d_i e_i of each value, d = diagonal(dims[t]):
    F'(m) = D_t^-1 F(m) D_s with D_t = diag(d), the outer action likewise,
    and each generator D_d^-1 v with its denominators cleared."""
    D, inv = [], []
    for n in F.dims:
        d = list(diagonal(n))
        big = lcm(*d)
        D.append(SpMat(n, n, range(n), range(n), d))
        inv.append(SpMat(n, n, range(n), range(n), [big // x for x in d], big))
    act = {}
    for key, m in F.act.items():
        s, t = F.gen_src_dst(key)
        act[key] = inv[t].compose(m).compose(D[s])
    outer = {(i, t): inv[t].compose(m).compose(D[t]) for (i, t), m in F.outer_act.items()}
    gens = [(d, _cleared(inv[d].apply_dense(v), inv[d].den)) for d, v in F.generators]
    return TruncatedFunctor(F.N, F.dims, act, gens, name=F.name + "'", outer_n=F.outer_n,
                            outer_act=outer)


def _reference_quotient(parent, sub_columns, name):
    """The quotient by per-column Fraction arithmetic: reduce each image in
    a ColumnBasis of the sub columns and read the residual's coordinates."""
    from finsetrep.oracle import linalg
    from finsetrep.oracle.functors import TruncatedFunctor

    sub_columns = [S.int_rows() for S in sub_columns]
    reducers, quot_coords = [], []
    for t in range(parent.N + 1):
        cb = linalg.ColumnBasis(parent.dims[t])
        for col in sub_columns[t].T:
            cb.add(fraction_vector(col))
        reducers.append(cb)
        quot_coords.append([j for j in range(parent.dims[t]) if j not in cb.pivots])
    dims = [len(q) for q in quot_coords]
    lookups = [{c: i for i, c in enumerate(q)} for q in quot_coords]

    def project(t, vec):
        residual, _ = reducers[t].reduce(vec)
        return {lookups[t][c]: v for c, v in residual.items()}

    def induced(m, s, t):
        for col in sub_columns[s].T:
            assert not reducers[t].reduce(apply_sparse(m, fraction_vector(col)))[0]
        cols = [project(t, apply_sparse(m, {j: Fraction(1)})) for j in quot_coords[s]]
        return _from_fraction_columns(dims[t], cols)

    act = {key: induced(parent.act[key], *parent.gen_src_dst(key)) for key in parent.gen_keys()}
    gens = []
    for d, col in parent.generators:
        pc = project(d, fraction_vector(col))
        if pc:
            gens.append((d, _cleared_reference(pc, dims[d])))
    outer = {(i, t): induced(m, t, t) for (i, t), m in parent.outer_act.items()}
    return TruncatedFunctor(parent.N, dims, act, gens, name=name, outer_n=parent.outer_n,
                            outer_act=outer)


def _reference_subfunctor(F, columns, gens, name):
    """The subfunctor by per-column Fraction arithmetic: expand the image
    of every basis column, and every generator, in a ColumnBasis of the
    columns of its size, which keeps the independent ones, left to right,
    as the basis."""
    from finsetrep.oracle import linalg
    from finsetrep.oracle.functors import TruncatedFunctor

    columns = [[fraction_vector(col) for col in S.int_rows().T] for S in columns]
    reducers = []
    for t, cols in enumerate(columns):
        cb = linalg.ColumnBasis(F.dims[t])
        columns[t] = [col for col in cols if cb.add(col)[0] is not None]
        reducers.append(cb)

    def expand(t, vec):
        residual, combo = reducers[t].reduce(vec)
        assert not residual
        return combo

    def restrict(m, s, t):
        cols = [expand(t, apply_sparse(m, col)) for col in columns[s]]
        return _from_fraction_columns(len(columns[t]), cols)

    act = {key: restrict(F.act[key], *F.gen_src_dst(key)) for key in F.gen_keys()}
    outer = {(i, t): restrict(m, t, t) for (i, t), m in F.outer_act.items()}
    gens = [
        (d, _cleared_reference(expand(d, fraction_vector(x, den)), len(columns[d])))
        for d, x, den in gens
    ]
    return TruncatedFunctor(F.N, [len(c) for c in columns], act, gens, name=name,
                            outer_n=F.outer_n, outer_act=outer)


def _functor_fields(F):
    spmat = lambda m: (m.shape, m.rows.tolist(), m.cols.tolist(), m.vals.tolist(), m.den)
    return (
        F.dims,
        {key: spmat(m) for key, m in F.act.items()},
        {key: spmat(m) for key, m in F.outer_act.items()},
        [(d, col.tolist()) for d, col in F.generators],
    )


def test_quotients_and_subfunctors_match_per_column_references(monkeypatch):
    from finsetrep.oracle import functors, kernel_functor

    N = 6
    pbar2 = build_pbar_tensor(2, 5)
    pfin1, k = build_pfin(1, 5), build_const_k(5)
    augmentation = [
        SpMat(1, pfin1.dims[t], [0] * pfin1.dims[t], range(pfin1.dims[t]), [1] * pfin1.dims[t])
        for t in range(6)
    ]
    pfin3 = build_pfin(3, 5)
    # a dependent spanning set: each size's Lambda^2 columns, plus the sum
    # of the first two where there are two
    dependent = []
    for cols in lambda_pbar_embedding(2, 5):
        if cols.n > 1:
            dense = cols.int_rows()
            cols = SpMat.from_dense(np.hstack([dense, dense[:, :1] + dense[:, 1:2]]))
        dependent.append(cols)
    builds = [lambda n=n: build_proj_cover(n, N) for n in range(1, 4)]
    builds.append(lambda: build_proj_cover(4, 5))
    builds += [lambda lam=lam: isotypic_subfunctor(pbar2, lam) for lam in partitions_of(2)]
    # the projector columns of pfin(3) overlap: the reference back-eliminates
    builds += [lambda lam=lam: isotypic_subfunctor(pfin3, lam) for lam in partitions_of(3)]
    # moves with denominators: isotypic projectors and a residual map with
    # den != 1, and generators six times primitive ones, so that the den
    # their images carry decides the cleared generators
    # (the quotient's scales decrease, so that each wedge column is smallest
    # at its first entry: the reference pivots on a column's smallest entry,
    # the library on its first independent row)
    decreasing = lambda n: range(n, 0, -1)
    scaled = rescaled(build_pfin(2, 4))
    scaled_pbar2 = rescaled(build_pbar_tensor(2, 4), decreasing)
    for F in (scaled, scaled_pbar2):
        F.generators = [(d, 6 * v) for d, v in F.generators]
    builds += [lambda lam=lam: isotypic_subfunctor(scaled, lam) for lam in partitions_of(2)]
    # by hand: at size 2 the (2) piece has the basis 12 e_0, 6 e_1 + 4 e_2
    # and 12 e_3 (the projector's columns times its den 6), and the
    # generator 6 e_1 projects to 6 e_1 + 4 e_2, the second of them
    sym = isotypic_subfunctor(scaled, Partition((2,)))
    assert [(d, v.tolist()) for d, v in sym.generators] == [(2, [0, 1, 0])]
    # the image of Lambda^2 in scaled_pbar2's basis, cleared to integers
    scaled_wedge = [
        SpMat.from_dense(cols.int_rows() * (lcm(*decreasing(cols.m)) // np.array(decreasing(cols.m)))[:, None])
        for cols in lambda_pbar_embedding(2, 4)
    ]
    builds.append(lambda: functors.quotient_functor(scaled_pbar2, scaled_wedge, "scaled quotient"))
    builds.append(lambda: kernel_functor(pfin1, k, augmentation, "aug-kernel"))
    builds.append(lambda: functors.quotient_functor(pbar2, dependent, "pbar(2)/dependent"))
    got = [_functor_fields(build()) for build in builds]
    monkeypatch.setattr(functors, "quotient_functor", _reference_quotient)
    monkeypatch.setattr(functors, "_subfunctor", _reference_subfunctor)
    want = [_functor_fields(build()) for build in builds]
    for g, w in zip(got, want):
        assert g == w


# -- the per-tuple builder skeleton: the reference for the array builders ----


def _per_tuple_functor(N, bases, action, gen, outer_n=0):
    """The builder skeleton one basis tuple at a time: bases[t] lists the
    tuples, and action(g, tup) gives the signed image tuples of tup under
    the set map g (an image tuple); tuples outside the target basis count
    as zero."""
    index = [{tup: i for i, tup in enumerate(basis)} for basis in bases]
    dims = [len(basis) for basis in bases]

    def matrix(s, t, images):
        rows, cols, vals = [], [], []
        for j, tup in enumerate(bases[s]):
            for img, sign in images(tup):
                i = index[t].get(img)
                if i is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(sign)
        return SpMat(dims[t], dims[s], rows, cols, vals)

    F = TruncatedFunctor(N, dims, {}, [], outer_n=outer_n)
    for key in F.gen_keys():
        g = move_map(key)
        F.act[key] = matrix(*F.gen_src_dst(key), lambda tup: action(g, tup))
    for i in range(1, outer_n):
        for t in range(N + 1):
            F.outer_act[(i, t)] = matrix(
                t, t, lambda tup: [(tup[: i - 1] + (tup[i], tup[i - 1]) + tup[i + 1:], 1)])
    if gen is not None:
        d, tup = gen
        col = np.zeros(dims[d], dtype=np.int64)
        col[index[d][tup]] = 1
        F.generators.append((d, col))
    return F


def _per_tuple_values(g, tup):
    return [(tuple(g[v] for v in tup), 1)]


def _per_tuple_differences(g, tup):
    """The product over y in tup of ([g(y)] - [g(0)]), [0] = 0."""
    terms = [((), 1)]
    for y in tup:
        image = [(p + (g[y],), sign) for p, sign in terms] if g[y] else []
        base = [(p + (g[0],), -sign) for p, sign in terms] if g[0] else []
        terms = image + base
    return terms


def _per_tuple_wedge(action):
    """Image tuples sorted with the sign of the sort, zero on a repeat."""

    def wedged(g, tup):
        out = []
        for img, sign in action(g, tup):
            if len(set(img)) == len(img):
                inversions = sum(a > b for a, b in itertools.combinations(img, 2))
                out.append((tuple(sorted(img)), sign * (-1) ** inversions))
        return out

    return wedged


def _per_tuple_builders():
    """Each builder's per-tuple reference, (degree, N) -> functor."""
    ranges = lambda lo, N: [range(lo, t) for t in range(N + 1)]
    unit = lambda N, where: [[()] if where(t) else [] for t in range(N + 1)]
    kbar = lambda N: _per_tuple_functor(N, unit(N, lambda t: t >= 1), _per_tuple_values, (1, ()))
    const_k = lambda N: _per_tuple_functor(N, unit(N, lambda t: True), _per_tuple_values, (0, ()))

    def product(lo, n, N, action, gen, outer_n):
        bases = [list(itertools.product(r, repeat=n)) for r in ranges(lo, N)]
        return _per_tuple_functor(N, bases, action, gen, outer_n)

    def subsets(lo, k, N, action, gen):
        return _per_tuple_functor(N, [list(itertools.combinations(r, k)) for r in ranges(lo, N)], action, gen)

    return {
        "pfin": lambda n, N: product(0, n, N, _per_tuple_values, (n, tuple(range(n))), n),
        "pbar_tensor": lambda n, N: kbar(N) if n == 0 else product(
            1, n, N, _per_tuple_differences, (n + 1, tuple(range(1, n + 1))), n),
        "kfi": lambda n, N: _per_tuple_functor(
            N, [list(itertools.permutations(r, n)) for r in ranges(0, N)], _per_tuple_values,
            (n, tuple(range(n))) if n <= N else None, n),
        "lambda_pfin": lambda k, N: const_k(N) if k == 0 else subsets(
            0, k, N, _per_tuple_wedge(_per_tuple_values), (k, tuple(range(k)))),
        "lambda_pbar": lambda k, N: kbar(N) if k == 0 else subsets(
            1, k, N, _per_tuple_wedge(_per_tuple_differences), (k + 1, tuple(range(1, k + 1)))),
        "const_k": lambda N: const_k(N),
        "kbar": lambda N: kbar(N),
        "k0": lambda N: _per_tuple_functor(N, unit(N, lambda t: t == 0), _per_tuple_values, (0, ())),
    }


def _same_functor(F, R):
    assert F.dims == R.dims and F.outer_n == R.outer_n
    assert F.act.keys() == R.act.keys()
    assert all(F.act[key].equals(R.act[key]) for key in R.act)
    # every outer transposition at every size, the 0 x 0 ones included
    outer = [(i, t) for i in range(1, R.outer_n) for t in range(R.N + 1)]
    assert all(F.outer_transposition(i, t).equals(R.outer_transposition(i, t)) for i, t in outer)
    assert [(d, col.tolist()) for d, col in F.generators] == [(d, col.tolist()) for d, col in R.generators]


def test_array_builders_match_the_per_tuple_reference(monkeypatch):
    from finsetrep.oracle import functors

    refs = _per_tuple_builders()
    for N in range(2, 7):
        for name in ("const_k", "kbar", "k0"):
            _same_functor(getattr(functors, f"build_{name}")(N), refs[name](N))
        for n in range(5):
            # the degrees each builder accepts at N
            for name, top in (("pfin", N), ("kfi", N + 1), ("pbar_tensor", N - 1),
                              ("lambda_pfin", N), ("lambda_pbar", N - 1)):
                if n <= top:
                    _same_functor(getattr(functors, f"build_{name}")(n, N), refs[name](n, N))
    # proj_cover, from the reference exterior and tensor powers through the
    # same quotient and direct sum
    covers = [(n, N) for N in range(2, 7) for n in range(min(N - 1, 4) + 1)]
    got = [build_proj_cover(n, N) for n, N in covers]
    monkeypatch.setattr(functors, "build_lambda_pfin", refs["lambda_pfin"])
    monkeypatch.setattr(functors, "build_pbar_tensor", refs["pbar_tensor"])
    for F, (n, N) in zip(got, covers):
        _same_functor(F, build_proj_cover(n, N))


def test_refusals_name_what_they_refuse():
    from finsetrep.oracle import kernel_functor

    F = build_pfin(1, 3)
    with pytest.raises(OracleError, match=r"^map exceeds truncation$"):
        map_matrix(F, (0,), 1, 4)
    with pytest.raises(OracleError, match=r"^pfin\(4\) needs N >= 4$"):
        build_pfin(4, 3)
    with pytest.raises(OracleError, match=r"^truncations differ$"):
        kernel_functor(F, build_pfin(1, 4), [], "K")
    with pytest.raises(ValueError, match=r"^3 is not a partition of the outer degree 2$"):
        isotypic_subfunctor(build_pfin(2, 3), Partition((3,)))


def test_basic_builders_refuse_before_any_tuple_is_made(monkeypatch):
    from finsetrep.oracle import functors

    def no_tuples(*args):
        raise AssertionError("a basis tuple was made before the refusal")

    monkeypatch.setattr(functors, "_tuples", no_tuples)
    for build, message in (
        (lambda: build_pfin(4, 3), r"^pfin\(4\) needs N >= 4$"),
        (lambda: build_pbar_tensor(3, 3), r"^pbar\(3\) needs N >= 4$"),
        (lambda: build_lambda_pfin(4, 3), r"^lambda_pfin\(4\) needs N >= 4$"),
        (lambda: build_lambda_pbar(3, 3), r"^lambda_pbar\(3\) needs N >= 4$"),
        (lambda: build_const_k(1), r"^truncation below 2 leaves nothing to check$"),
        (lambda: build_k0(1), r"^truncation below 2 leaves nothing to check$"),
        (lambda: build_kbar(1), r"^truncation below 2 leaves nothing to check$"),
        (lambda: build_kfi(1, 1), r"^truncation below 2 leaves nothing to check$"),
    ):
        with pytest.raises(OracleError, match=message):
            build()
    monkeypatch.undo()
    # above N the injection module has no generator and is zero
    F = build_kfi(5, 3)
    assert F.dims == [0, 0, 0, 0] and F.generators == []

