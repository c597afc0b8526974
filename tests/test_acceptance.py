"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is pinned here at its stated tolerance (all checks
are exact); nothing is deferred to later calibration.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

import pytest

from finsetrep.partitions import Partition, one_column, partitions_of
from finsetrep import facalc as fc
from finsetrep import fbgroth as fg
from finsetrep import symrep as sr
from finsetrep.oracle import (
    build_const_k,
    build_kfi,
    build_pbar_tensor,
    build_pfin,
    build_proj_cover,
    fb_module_data,
    inner_class,
    isotypic_subfunctor,
    nat_hom,
    oracle_multiplicities,
    pi_element,
    surjection_count,
    verify_lambda_complex,
    verify_norm_map,
)
from finsetrep.oracle.checks import _compose_elements

N = 6


@lru_cache(maxsize=None)
def pbar(s):
    return build_pbar_tensor(s, N)


@lru_cache(maxsize=None)
def pfin(n):
    return build_pfin(n, N)


@lru_cache(maxsize=None)
def proj_cover(m):
    return build_proj_cover(m, N)


def report(criterion, ok, detail=""):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_vanishing_and_endomorphisms():
    """Hom between reduced tensor powers: zero above the diagonal, the
    regular bimodule on it (s, t <= 4 at N = 6)."""
    t0 = time.time()
    for s in range(0, 5):
        for t in range(0, s):
            d = nat_hom(pbar(s), pbar(t)).dimension
            assert d == 0, (s, t, d)
    for t in range(0, 5):
        r = nat_hom(pbar(t), pbar(t))
        assert r.dimension == factorial(t), t
        bm = r.outer_bimodule()
        assert bm == {(lam, lam): 1 for lam in partitions_of(t)}, t
    report(1, True, f"dims 0 / t! with regular characters ({time.time()-t0:.0f}s)")


def test_criterion_02_idempotent():
    t0 = time.time()
    for n in range(0, 7):
        pi = pi_element(n)
        assert _compose_elements(pi, pi) == pi, n
    elapsed = time.time() - t0
    report(2, elapsed < 1.0, f"pi_n^2 = pi_n for n <= 6 in {elapsed:.3f}s")


def test_criterion_03_right_augmentation():
    t0 = time.time()
    for n in range(0, 5):
        for t in range(0, 5):
            d = nat_hom(pbar(n), pfin(t)).dimension
            assert d == surjection_count(t, n), (n, t, d)
    report(3, True, f"hom dims match surjection counts ({time.time()-t0:.0f}s)")


def test_criterion_04_grothendieck_identities():
    t0 = time.time()
    T = 12
    assert fg.day(fg.triv_class(T), fg.series_S(0, T)) == fg.unit(T)
    for k in range(0, 9):
        assert fg.series_S(k, T) + fg.series_S(k + 1, T) == fg.sgn_class(k, T), k
        assert fg.series_H(k, T) + fg.series_H(k + 1, T) == fg.day(
            fg.sgn_class(k, T), fg.triv_class(T)
        ), k
        assert fg.invert_triv(fg.series_H(k, T)) == fg.series_S(k, T), k
    elapsed = time.time() - t0
    report(4, elapsed < 10.0, f"all identities exact at trunc 12 in {elapsed:.1f}s")


def test_criterion_05_kfs_cross_computation():
    t0 = time.time()
    fc.fs_class(6, cross_check=True)  # raises on any bidegree mismatch
    report(5, True, f"surjection characters = S(0) (.) all-maps ({time.time()-t0:.0f}s)")


def test_criterion_06_hom_projcover_pfin_vs_oracle():
    t0 = time.time()
    for n in range(0, 4):
        formula = fc.hom_projcover_pfin(n, 4)
        for m in range(0, 5):
            r = nat_hom(proj_cover(m), pfin(n))
            got = {k: v for k, v in r.outer_bimodule().items() if v}
            want = {
                (mu, lam): c
                for (lam, mu), c in formula.coeffs.items()
                if lam.size == n and mu.size == m
            }
            assert got == want, (n, m, got, want)
    assert nat_hom(proj_cover(1), pfin(1)).dimension == 1
    assert nat_hom(proj_cover(1), pfin(2)).dimension == 2
    report(6, True, f"bimodule characters agree, n<=3, bullet<=4 ({time.time()-t0:.0f}s)")


def test_criterion_07_endo_pbar_vs_oracle():
    t0 = time.time()
    formula = fc.hom_pbar_pbar(3, 3)
    for s in range(0, 4):
        for t in range(0, 4):
            r = nat_hom(pbar(s), pbar(t))
            got = {k: v for k, v in r.outer_bimodule().items() if v}
            want = {
                (mu, lam): c
                for (lam, mu), c in formula.coeffs.items()
                if lam.size == t and mu.size == s
            }
            assert got == want, (s, t)
    assert nat_hom(pbar(1), pbar(2)).dimension == 0
    assert nat_hom(pbar(0), pbar(1)).dimension == 0
    report(7, True, f"full bimodule characters agree, s,t<=3 ({time.time()-t0:.0f}s)")


def test_criterion_08_kfi_composition_factors():
    t0 = time.time()
    for n in range(1, 4):
        F = build_kfi(n, N)
        mults = oracle_multiplicities(F, degmax=4)
        expected = {fc.SimpleLabel.L(n): 1, fc.SimpleLabel.L(n - 1): 1}
        for lam in partitions_of(n):
            if lam != one_column(n):
                expected[fc.SimpleLabel.C(lam)] = sr.irr_dim(lam)
        assert mults == expected, (n, mults)
        for t in range(0, 7):
            total = sum(m * fc.simple_dim(lbl, t) for lbl, m in mults.items())
            assert total == (perm(t, n) if t >= n else 0), (n, t)
    report(8, True, f"injection-module factors and dims, n<=3 ({time.time()-t0:.0f}s)")


def test_criterion_09_schur_projective_dimensions():
    t0 = time.time()
    for n in range(1, 5):
        for lam in partitions_of(n):
            labels = fc.decompose_schur_pfin(lam)
            for m in range(0, 7):
                total = sum(fc.proj_dim(l, m) for l in labels)
                assert total == sr.schur_dim(lam, m), (lam, m)
    # the worked case: 8 = 2 + 3 + 3 at m = 3
    dims = sorted(fc.proj_dim(l, 3) for l in fc.decompose_schur_pfin(Partition((2, 1))))
    assert dims == [2, 3, 3] and sum(dims) == 8
    report(9, True, f"dimension identities for all |lam|<=4, m<=6 ({time.time()-t0:.0f}s)")


def test_criterion_10_lambda_complex_and_norm_map():
    t0 = time.time()
    rep = verify_lambda_complex(5)
    assert rep.passed, rep.computed
    for n in range(1, 4):
        rep = verify_norm_map(n, 5)
        assert rep.passed, rep.computed
    report(10, True, f"exactness and kernel dims C(t-1,n) ({time.time()-t0:.0f}s)")


def test_criterion_11_multiplicities_formula_vs_oracle():
    t0 = time.time()
    family = [
        build_const_k(N),
        pfin(1),
        pfin(2),
        build_kfi(2, N),
        pbar(2),
    ]
    for F in family:
        data = fb_module_data(F)
        sym = fc.multiplicities(data)
        orc = oracle_multiplicities(F, degmax=4)
        sym_cut = {k: v for k, v in sym.items() if k.kind == "k0" or k.n <= 4}
        assert orc == sym_cut, (F.name, orc, sym_cut)
        for t in range(0, 6):
            total = sum(m * fc.simple_dim(lbl, t) for lbl, m in sym.items())
            assert total == F.dims[t], (F.name, t)
    report(11, True, f"five modules, factors and dims agree ({time.time()-t0:.0f}s)")


def test_cartan_matrix_vs_oracle():
    # beside the eleven criteria: the paper's hom spaces between the
    # projective covers, and out of them into the tensor powers
    t0 = time.time()
    endo = fc.endo_projcover(3, 3)
    into_pbar = fc.hom_projcover_pbar(3, 3)
    for m in range(0, 4):
        for n in range(0, 4):
            for target, formula in ((proj_cover(n), endo), (pbar(n), into_pbar)):
                got = {k: v for k, v in nat_hom(proj_cover(m), target).outer_bimodule().items() if v}
                want = {k: v for k, v in fc.hom_entry(formula, m, n).items() if v}
                assert got == want, (m, n, target.name, got, want)
    report("cartan", True, f"hom(P_m, P_n) and hom(P_m, pbar(n)) agree, m,n<=3 ({time.time()-t0:.0f}s)")


def test_isotypic_pieces_of_kfi_are_simples():
    # beside the eleven criteria: the lambda-isotypic piece of kfi(n) is
    # dim(lambda) copies of the simple C(lambda), lambda not the column
    t0 = time.time()
    for n in (2, 3):
        F = build_kfi(n, 5)
        for lam in partitions_of(n):
            if lam == one_column(n):
                continue
            piece = isotypic_subfunctor(F, lam)
            for t in range(6):
                want = fc.simple_eval(fc.SimpleLabel.C(lam), t).scale(sr.irr_dim(lam))
                assert inner_class(piece, t) == want, (n, lam, t)
    report("simples", True, f"kfi(2), kfi(3) pieces are C(lambda)^dim ({time.time()-t0:.1f}s)")
