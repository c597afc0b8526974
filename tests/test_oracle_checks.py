from math import comb, factorial, perm

import numpy as np
import pytest

from finsetrep.partitions import Partition, one_column
from finsetrep import facalc as fc
from finsetrep.oracle import (
    SpMat,
    build_const_k,
    build_kfi,
    build_lambda_pfin,
    build_pbar_tensor,
    build_pfin,
    fb_module_data,
    hom_from_lambda_bar,
    oracle_multiplicities,
    pi_element,
    pi_idempotent_check,
    surjection_count,
    verify_almost_surjectivity,
    verify_lambda_complex,
    verify_norm_map,
    verify_refine_surjection,
    verify_right_aug,
)


def test_pi_element_small():
    # n = 0: only the identity
    assert pi_element(0) == {(0,): 1}
    # n = 1: [id] - [f_{1}]
    assert pi_element(1) == {(0, 1): 1, (0, 0): -1}


def test_pi_idempotent_symbolic():
    for n in range(0, 7):
        assert pi_idempotent_check(n).passed


def test_pi_idempotent_image():
    for n in range(0, 3):
        rep = pi_idempotent_check(n, image_sizes=[2, 3, 4])
        assert rep.passed, rep.computed


def test_right_augmentation_dims_and_kernel():
    N = 5
    for n in range(0, 4):
        for t in range(0, 4):
            rep = verify_right_aug(n, t, N)
            assert rep.passed, (n, t, rep.computed)


def test_hom_from_lambda_bar_pfin():
    # hom(Lambda^s(Pbar), standard projective t) has the dimension of
    # sgn_s (x) surjections(t -> s)
    N = 5
    from finsetrep.symrep import perm_character_maps, joint_decompose, irr_dim

    for t in range(0, 4):
        F = build_pfin(t, N)
        for s in range(0, 3):
            got = hom_from_lambda_bar(F, s)
            # expected dimension: multiplicity-space dim of sgn_s in kFS(t,s)
            if s <= t:
                dec = joint_decompose(perm_character_maps(t, s, True))
                exp = sum(
                    c * irr_dim(lam)
                    for (lam, mu), c in dec.items()
                    if mu == one_column(s)
                )
            else:
                exp = 0
            assert got == exp, (t, s, got, exp)


def test_hom_from_lambda_bar_lambda_pfin():
    # hom(Lambda^s(Pbar), Lambda^k(full)) is one-dimensional iff s = k
    N = 5
    for k in range(0, 3):
        F = build_lambda_pfin(k, N)
        for s in range(0, 3):
            got = hom_from_lambda_bar(F, s)
            assert got == (1 if s == k else 0), (k, s, got)


def test_hom_from_lambda_bar_self():
    # simple endomorphism rings via the signed-inclusion kernel route
    from finsetrep.oracle import build_lambda_pbar

    for s in range(0, 3):
        F = build_lambda_pbar(s, 5)
        assert hom_from_lambda_bar(F, s) == 1
        if s >= 1:
            assert hom_from_lambda_bar(F, s - 1) == 0


def test_lambda_complex_exactness():
    rep = verify_lambda_complex(5)
    assert rep.passed, rep.computed


def test_norm_map_kernels():
    for n in range(1, 4):
        rep = verify_norm_map(n, 5)
        assert rep.passed, rep.computed


def test_refine_and_almost_surjectivity():
    for n in range(1, 4):
        assert verify_refine_surjection(n, 5).passed
        assert verify_almost_surjectivity(n, 5).passed



def test_refine_and_almost_surjectivity_reject_degree_zero():
    from finsetrep.oracle import OracleError

    for check in (verify_refine_surjection, verify_almost_surjectivity):
        with pytest.raises(OracleError):
            check(0, 5)


def test_surjection_count():
    assert surjection_count(3, 2) == 6
    assert surjection_count(4, 4) == 24
    assert surjection_count(2, 3) == 0
    assert surjection_count(0, 0) == 1


def test_oracle_multiplicities_examples():
    N = 6
    m = oracle_multiplicities(build_pfin(1, N), degmax=3)
    assert {str(k): v for k, v in m.items()} == {"L0": 1, "L1": 1}
    m = oracle_multiplicities(build_kfi(2, N), degmax=3)
    assert {str(k): v for k, v in m.items()} == {"L1": 1, "L2": 1, "C(2)": 1}
    m = oracle_multiplicities(build_pbar_tensor(2, N), degmax=3)
    assert {str(k): v for k, v in m.items()} == {"L2": 1, "C(2)": 1}
    m = oracle_multiplicities(build_const_k(N), degmax=3)
    assert {str(k): v for k, v in m.items()} == {"k0": 1, "L0": 1}


def test_hom_projcover_formula_vs_oracle_dims():
    # the hom-class formula evaluated on extracted data agrees with the
    # solver dimension degree by degree, on a module outside the
    # acceptance family
    from finsetrep.oracle import build_proj_cover, nat_hom

    F = build_kfi(3, 6)
    data = fb_module_data(F)
    out = fc.hom_projcover(data)
    for m in range(0, 4):
        got = nat_hom(build_proj_cover(m, 6), F).dimension
        assert got == out.degree(m).dim(), m


def test_oracle_vs_symbolic_multiplicities():
    from finsetrep.oracle import build_proj_cover, isotypic_subfunctor
    from finsetrep.oracle.functors import direct_sum
    from test_oracle_nathom import _aug_kernel

    # the two routes on basic functors at N = 6, and on derived ones at N = 5:
    # isotypic pieces, a direct sum, a kernel and a projective cover
    N = 5
    derived = [
        isotypic_subfunctor(build_pfin(2, N), Partition([2])),
        isotypic_subfunctor(build_pfin(2, N), Partition([1, 1])),
        isotypic_subfunctor(build_pbar_tensor(2, N), Partition([1, 1])),
        direct_sum([build_pfin(1, N), build_kfi(2, N)], "pfin(1)+kfi(2)"),
        _aug_kernel(N),
        build_proj_cover(2, N),
    ]
    for F in [build_pfin(2, 6), build_kfi(2, 6)] + derived:
        N = F.N
        data = fb_module_data(F)
        sym = fc.multiplicities(data)
        orc = oracle_multiplicities(F, degmax=3)
        sym_cut = {
            k: v
            for k, v in sym.items()
            if k.kind == "k0" or k.n <= 3
        }
        assert orc == sym_cut, F.name
        for t in range(0, N):
            total = sum(v * fc.simple_dim(k, t) for k, v in sym.items())
            assert total == F.dims[t], (F.name, t)


# -- each check can fail: a builder mutated so that a rank it reads changes --


def _cut_to_first_term(images, base):
    from finsetrep.oracle.functors import _difference_terms

    return _difference_terms(images, base)[:1]


def test_pi_idempotent_image_fails_on_a_wrong_split_summand(monkeypatch):
    from finsetrep.oracle import checks

    # the columns [x0] (x) [y] span a space of the expected rank, but not
    # pi_n's image: [E M] gains rank, and pi_n's own matrix is untouched
    monkeypatch.setattr(checks, "_difference_terms", _cut_to_first_term)
    rep = pi_idempotent_check(2, image_sizes=[2, 3])
    assert rep.passed is False
    for t, rank in ((2, 2), (3, 12)):
        assert rep.computed[f"size_{t}"] == {"rank": rank, "expected_rank": rank,
                                             "matrix_idempotent": True, "span_matches": False}


def test_refine_surjection_fails_on_a_wrong_base_point(monkeypatch):
    from finsetrep.oracle import checks, functors

    # prod([y_i] - [0]) in place of prod([y_i] - [x0]): for x0 != 0 the
    # column at y = 0 vanishes and the rank drops by t - 1
    monkeypatch.setattr(checks, "_difference_terms",
                        lambda images, base: functors._difference_terms(images, 0))
    rep = verify_refine_surjection(2, 4)
    assert rep.passed is False
    assert rep.computed == {f"t={t}": {"rank": perm(t, 2) - (t - 1), "target_dim": perm(t, 2)}
                            for t in (2, 3, 4)}


def test_almost_surjectivity_fails_on_cut_difference_terms(monkeypatch):
    from finsetrep.oracle import checks

    # the columns [y] alone: the injective ones of {1..t-1}^2, rank (t-1)(t-2)
    monkeypatch.setattr(checks, "_difference_terms", _cut_to_first_term)
    rep = verify_almost_surjectivity(2, 4)
    assert rep.passed is False
    assert rep.computed == {f"t={t}": {"coker": perm(t, 2) - perm(t - 1, 2), "expected": comb(t - 1, 1)}
                            for t in (2, 3, 4)}


def test_right_augmentation_fails_on_a_lost_column_or_a_wrong_generator(monkeypatch):
    from finsetrep.oracle import checks, functors

    # the column of the surjective alpha = (0, 1) lost: the image rank
    # drops to 1, and the kernel gains it
    class LosesColumn1(functors._TupleBasis):
        def matrix(self, ncols, terms):
            M = super().matrix(ncols, terms)
            keep = M.cols != 1
            return SpMat(M.m, M.n, M.rows[keep], M.cols[keep], M.vals[keep])

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_TupleBasis", LosesColumn1)
        rep = verify_right_aug(2, 2, 4)
    assert rep.passed is False
    assert rep.computed == {"dim": 2, "expected_dim": 2, "kernel_dim": 3, "nonsurjective": 2,
                            "kernel_is_nonsurjective_span": False, "image_rank_matches": False}
    # [1] (x) [2] in place of the generator: its images are no solutions
    monkeypatch.setattr(checks, "_difference_terms", _cut_to_first_term)
    rep = verify_right_aug(2, 2, 4)
    assert rep.passed is False
    assert rep.computed == "a restricted Yoneda morphism is no natural transformation"


def test_lambda_complex_fails_on_a_zero_boundary(monkeypatch):
    from finsetrep.oracle import checks

    # d_1 = 0 is natural, and leaves a cokernel at every size and no image
    # for d_2's kernel; every natural Lambda^(t+1) -> Lambda^t is a multiple
    # of d_(t+1), so a mutant that passes is_natural keeps d^2 = 0
    boundary = checks.lambda_boundary
    monkeypatch.setattr(checks, "lambda_boundary",
                        lambda N, t: [d.scale(0) if t == 1 else d for d in boundary(N, t)])
    rep = verify_lambda_complex(4)
    assert rep.passed is False
    assert rep.computed == {key: value for m in range(1, 5) for key, value in (
        (f"exactness_1_{m}", {"kernel": m, "image": m - 1}), (f"coker_{m}", 1))}
    # one sign flipped: no longer natural
    def flipped(N, t):
        mats = boundary(N, t)
        d = mats[N]
        mats[N] = SpMat(d.m, d.n, d.rows, d.cols, np.concatenate([-d.vals[:1], d.vals[1:]]))
        return mats

    monkeypatch.setattr(checks, "lambda_boundary", flipped)
    rep = verify_lambda_complex(4)
    assert rep.passed is False
    assert rep.computed == "boundary not natural at degree 1"


def test_lambda_complex_fails_on_a_nonzero_square(monkeypatch):
    from finsetrep.oracle import checks

    # the unsigned contraction, let past is_natural: d_t d_(t+1) sends each
    # (t+1)-subset to twice the sum of its (t-1)-subsets, nonzero at every
    # size m >= t + 1, and equal kernel and image dimensions there would not
    # show exactness
    boundary = checks.lambda_boundary
    monkeypatch.setattr(checks, "is_natural", lambda F, G, mats: True)
    monkeypatch.setattr(checks, "lambda_boundary", lambda N, t: [
        SpMat(d.m, d.n, d.rows, d.cols, abs(d.vals)) for d in boundary(N, t)])
    rep = verify_lambda_complex(4)
    assert rep.passed is False
    assert rep.computed == {f"d2_{t}_{m}": "nonzero composite" for m in range(5) for t in range(1, min(m, 4))}


def test_refusals_name_what_they_refuse():
    from finsetrep.oracle import OracleError

    with pytest.raises(ValueError, match=r"^n <= 8 for the symbolic expansion$"):
        pi_idempotent_check(9)
    with pytest.raises(OracleError, match=r"^needs truncation >= s\+2$"):
        hom_from_lambda_bar(build_pfin(1, 3), 2)
