from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from finsetrep.partitions import Partition, one_column, one_row, partitions_of
from finsetrep import facalc as fc
from finsetrep import fbgroth as fg
from finsetrep import symrep as sr


@lru_cache(maxsize=None)
def kfa6():
    return fc.kfa_class(6)


@lru_cache(maxsize=None)
def fs6():
    return fc.fs_class(6, cross_check=False)


def pfin_class(n, t):
    """S_t-class of the degree-n standard projective at a t-set: the
    character is (number of fixed points)^n."""
    vals = {
        beta: Fraction(sum(1 for d in beta if d == 1) ** n)
        for beta in partitions_of(t)
    }
    return sr.decompose(sr.ClassFunction(t, vals))


def pfin_data(n, trunc):
    return fc.FBModuleData(
        trunc,
        1 if n == 0 else 0,
        {t: pfin_class(n, t) for t in range(1, trunc + 1)},
    )


# ---------------------------------------------------------------------------
# surjection bimodule


def test_fs_class_cross_check_and_examples():
    fs = fc.fs_class(5, cross_check=True)
    assert fs.bidegree(2, 2) == {
        (Partition((2,)), Partition((2,))): 1,
        (Partition((1, 1)), Partition((1, 1))): 1,
    }
    assert fs.dim_at(3, 2) == 6
    for n in range(6):
        for k in range(n + 1, 6):
            assert fs.bidegree(n, k) == {}


def test_fs_diagonal_is_regular():
    fs = fs6()
    for n in range(5):
        assert fs.bidegree(n, n) == {
            (lam, lam): 1 for lam in partitions_of(n)
        }


# ---------------------------------------------------------------------------
# simples


def test_simple_eval_examples():
    c2 = fc.SimpleLabel.C(Partition((2,)))
    assert fc.simple_eval(c2, 3).mults == {
        Partition((3,)): 1,
        Partition((2, 1)): 1,
    }
    assert fc.simple_eval(fc.SimpleLabel.L(1), 3).mults == {Partition((2, 1)): 1}
    # at its own degree a simple evaluates to its labelling irreducible
    for n in range(1, 6):
        for lam in partitions_of(n):
            if lam == one_column(n):
                continue
            assert fc.simple_eval(fc.SimpleLabel.C(lam), n).mults == {lam: 1}
    assert fc.simple_eval(fc.SimpleLabel.K0(), 0).mults == {Partition(()): 1}
    assert fc.simple_eval(fc.SimpleLabel.K0(), 2).mults == {}
    assert fc.simple_eval(fc.SimpleLabel.L(0), 3).mults == {Partition((3,)): 1}
    assert fc.simple_eval(fc.SimpleLabel.L(2), 2).mults == {}


def test_simple_label_constraints():
    with pytest.raises(ValueError):
        fc.SimpleLabel.C(Partition((1, 1)))
    with pytest.raises(ValueError):
        fc.SimpleLabel.C(Partition(()))
    assert str(fc.ctilde(Partition((1, 1, 1)))) == "L2"
    assert str(fc.ctilde(Partition(()))) == "k0"
    assert str(fc.ctilde(Partition((2, 1)))) == "C(2,1)"


# ---------------------------------------------------------------------------
# projective decompositions


def test_decompose_schur_pfin_examples():
    got = {str(l) for l in fc.decompose_schur_pfin(Partition((2,)))}
    assert got == {"S(2)(Pbar)", "Lambda^1(PFA)"}
    got = [str(l) for l in fc.decompose_schur_pfin(Partition((1, 1)))]
    assert got == ["Lambda^2(PFA)"]
    got = {str(l) for l in fc.decompose_schur_pfin(Partition((2, 1)))}
    assert got == {"S(2,1)(Pbar)", "S(2)(Pbar)", "Lambda^2(PFA)"}


def test_decompose_schur_pfin_dimension_identity():
    # acceptance criterion 9 content: summand dimensions reproduce the
    # Schur polynomial dimension at every m <= 6 for |lam| <= 4
    for n in range(1, 5):
        for lam in partitions_of(n):
            labels = fc.decompose_schur_pfin(lam)
            for m in range(0, 7):
                total = sum(fc.proj_dim(l, m) for l in labels)
                assert total == sr.schur_dim(lam, m), (lam, m)


def test_structure_kfi():
    proj, simples = fc.structure_kfi(1)
    assert str(proj) == "Lambda^1(PFA)" and simples == {}
    proj, simples = fc.structure_kfi(2)
    assert str(proj) == "Lambda^2(PFA)"
    assert {str(k): v for k, v in simples.items()} == {"C(2)": 1}
    # dimension bookkeeping against the injection count
    for n in range(1, 5):
        proj, simples = fc.structure_kfi(n)
        for t in range(0, 7):
            total = fc.proj_dim(proj, t) + sum(
                v * fc.simple_dim(k, t) for k, v in simples.items()
            )
            expected = 0
            if t >= n:
                expected = factorial(t) // factorial(t - n)
            assert total == expected, (n, t)


# ---------------------------------------------------------------------------
# hom(P_bullet, -)


def test_hom_projcover_examples():
    # the point-supported module
    assert fc.hom_projcover(fc.FBModuleData(6, 1, {})).coeffs == {}
    # the constant module
    Fk = fc.FBModuleData(6, 1, {k: sr.trivial_class(k) for k in range(1, 7)})
    assert fc.hom_projcover(Fk).coeffs == {Partition(()): 1}
    # the degree-one standard projective
    Fp = pfin_data(1, 6)
    out = fc.hom_projcover(Fp)
    assert out.coeffs == {Partition(()): 1, Partition((1,)): 1}


def test_multiplicities_examples_and_contract():
    Fp = pfin_data(1, 6)
    mults = fc.multiplicities(Fp)
    assert {str(k): v for k, v in mults.items()} == {"L0": 1, "L1": 1}
    fc.check_multiplicity_dimensions(Fp, mults)

    Fk = fc.FBModuleData(6, 1, {k: sr.trivial_class(k) for k in range(1, 7)})
    mults = fc.multiplicities(Fk)
    assert {str(k): v for k, v in mults.items()} == {"k0": 1, "L0": 1}
    fc.check_multiplicity_dimensions(Fk, mults)

    # a simple module has a one-step series
    lam = Partition((2,))
    data = fc.FBModuleData(
        6,
        0,
        {
            t: fc.simple_eval(fc.SimpleLabel.C(lam), t)
            for t in range(1, 7)
            if fc.simple_eval(fc.SimpleLabel.C(lam), t).mults
        },
    )
    mults = fc.multiplicities(data)
    assert {str(k): v for k, v in mults.items()} == {"C(2)": 1}


def test_multiplicities_pfin_answer_at_desk_scale():
    # composition series of the standard projectives: dimension t^n at all
    # t <= 6 (multiplicities exact up to degree trunc-1 = 6)
    for n in range(0, 4):
        data = pfin_data(n, 7)
        mults = fc.multiplicities(data)
        for t in range(0, 7):
            total = sum(m * fc.simple_dim(lbl, t) for lbl, m in mults.items())
            assert total == t**n, (n, t)


def test_multiplicities_flags_non_effective():
    bad = fc.FBModuleData(4, 0, {2: sr.sign_class(2)})
    # sign in degree 2 alone is not the data of a genuine module: its
    # hom-class acquires a negative coefficient
    with pytest.raises(fc.VerificationError):
        fc.multiplicities(bad)


# ---------------------------------------------------------------------------
# hom-space bimodule formulas


def test_hom_projcover_pfin_examples():
    hp = fc.hom_projcover_pfin(1, 4)
    assert [hp.dim_at(1, m) for m in range(5)] == [1, 1, 0, 0, 0]
    hp2 = fc.hom_projcover_pfin(2, 4)
    assert hp2.dim_at(2, 1) == 2
    hp0 = fc.hom_projcover_pfin(0, 4)
    assert hp0.coeffs == {(Partition(()), Partition(())): 1}


def _surjection_row_hom(n, trunc):
    """hom(P_bullet, pfin(n)) by the surjection-row formula: the row at n
    of the surjection class plus, for each 1 <= k <= min(n, trunc + 1),
    its sign column at 1^k moved to sgn_{k-1}."""
    coeffs = {}
    for (lam, mu), c in fc.fs_class(max(trunc, n), cross_check=False).coeffs.items():
        k = mu.size
        if lam.size != n:
            continue
        if k <= trunc:
            coeffs[(lam, mu)] = coeffs.get((lam, mu), 0) + c
        if 1 <= k <= min(n, trunc + 1) and mu == one_column(k):
            key = (lam, one_column(k - 1))
            coeffs[key] = coeffs.get(key, 0) + c
    return fg.VirtualFBBimod(n, trunc, coeffs)


def test_hom_projcover_pfin_matches_the_surjection_row():
    for n in range(7):
        for t in range(7):
            assert fc.hom_projcover_pfin(n, t) == _surjection_row_hom(n, t), (n, t)


def test_hom_projcover_pfin_refuses_the_degree_bound_before_any_block(monkeypatch):
    def no_block(*args):
        raise AssertionError(f"map block {args} built past the bound")

    monkeypatch.setattr(fc, "_map_block", no_block)
    bound = sr.degree_bound()
    with pytest.raises(sr.DegreeBoundError):
        fc.hom_projcover_pfin(bound, bound)


def test_map_blocks_are_computed_once(monkeypatch):
    fc.fs_class(5, cross_check=False)
    fc.kfa_class(5)
    calls, enumerate_maps = [], sr.enumerated_character

    def counted(*args):
        calls.append(args)
        return enumerate_maps(*args)

    monkeypatch.setattr(sr, "enumerated_character", counted)
    fc.fs_class(5, cross_check=False)
    for n in range(4):
        fc.hom_projcover_pfin(n, 5)
    fc.hom_pbar_pbar(3, 3)
    assert calls == []


def test_hom_pbar_pbar_entries():
    hb = fc.hom_pbar_pbar(4, 4)
    for t in range(5):
        assert fc.hom_entry(hb, t, t) == {
            (lam, lam): 1 for lam in partitions_of(t)
        }
        assert fc.hom_entry_dim(hb, t, t) == factorial(t)
    for s in range(5):
        for t in range(s):
            assert fc.hom_entry(hb, s, t) == {}
    assert fc.hom_entry(hb, 1, 2) == {}
    assert fc.hom_entry(hb, 0, 1) == {}


def test_endo_projcover_entries():
    ep = fc.endo_projcover(4, 4)
    for n in range(4):
        assert fc.hom_entry(ep, n, n) == {
            (lam, lam): 1 for lam in partitions_of(n)
        }
    # extra summand at hom(P_{l+1}, P_l)
    for l in range(0, 3):
        entry = fc.hom_entry(ep, l + 1, l)
        assert entry[(one_column(l + 1), one_column(l))] == 1
    assert fc.hom_entry_dim(ep, 0, 1) == 0
    diff = ep - fc.hom_projcover_pbar(4, 4)
    assert diff.coeffs == {
        (one_column(l), one_column(l + 1)): 1 for l in range(0, 4)
    }


def test_hom_projcover_pbar_entries():
    hpb = fc.hom_projcover_pbar(4, 4)
    assert fc.hom_entry(hpb, 0, 0) == {(Partition(()), Partition(())): 1}
    assert fc.hom_entry_dim(hpb, 1, 1) == 1


def test_hom_lambdabar_pbar():
    assert fc.hom_lambdabar_pbar(0, 4).dim_at(0) == 1
    assert fc.hom_lambdabar_pbar(1, 4).dim_at(0) == 0
    for t in range(1, 5):
        cls = fc.hom_lambdabar_pbar(t, 4).degree(t)
        assert cls.mults == {one_column(t): 1}


def test_hom_lambdabar_pbar_reads_only_the_surjection_blocks_onto_s(monkeypatch):
    # the sign column (1^s) of the surjection class comes from the maps n -> s
    # alone; the blocks are memoized, so the memo starts and ends empty
    calls, real = [], fc.perm_character_maps

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fc, "perm_character_maps", recorded)
    fc._map_block.cache_clear()
    try:
        fc.hom_lambdabar_pbar(3, 8)
        assert calls == [(n, 3, True) for n in range(3, 9)]
        assert fc._map_block.cache_info().currsize == 6
        fc._map_block.cache_clear()
        bound = sr.degree_bound()
        with pytest.raises(sr.DegreeBoundError, match=rf"^degree {bound + 1} exceeds configured bound {bound}$"):
            fc.hom_lambdabar_pbar(2, bound + 1)
        assert fc._map_block.cache_info().misses == 0
    finally:
        fc._map_block.cache_clear()


def test_hom_lambdabar_pbar_is_the_sign_column_of_hom_pbar_pbar():
    for s_ in range(7):
        for t in range(7):
            column = fc.hom_pbar_pbar(t, s_).left_class(one_column(s_))
            assert fc.hom_lambdabar_pbar(s_, t) == column, (s_, t)


# ---------------------------------------------------------------------------
# structural identities at the class level


def test_pbar_tensor_class_matches_direct_characters():
    """The inversion route to the reduced tensor powers agrees with the
    direct product-of-(fixed-points-minus-one) character formula (on
    nonempty sets; the value on the empty set is zero)."""
    pb = fc.pbar_tensor_class(5)
    for u in range(0, 6):
        assert pb.bidegree(u, 0) == {}
        for t in range(1, 6):
            vals = {}
            for alpha in partitions_of(u):
                for beta in partitions_of(t):
                    prod = 1
                    for c in alpha:
                        fix = sum(d for d in beta if c % d == 0)
                        prod *= fix - 1
                    vals[(alpha, beta)] = prod
            direct = sr.joint_decompose(sr.JointClassFunction(u, t, vals))
            got = pb.bidegree(u, t)
            assert got == {k: v for k, v in direct.items() if v}, (u, t)


def test_pfin_lambda_identity():
    """The standard projectives split as the exceptional hook block plus
    the trivially-convolved reduced block (degrees <= 6)."""
    kfa = kfa6()
    lhs = kfa
    rhs = fc.pfin_lambda_class(6) + fg.bimod_convolve_left(
        fc.pbar_over_lambda_class(6), fg.triv_class(6)
    )
    assert lhs == rhs


def test_calculate_sgn_otimes_pfin():
    kfa = kfa6()
    fs = fs6()
    for t in range(0, 7):
        for n in range(0, 7):
            lhs = {
                lam: c
                for (lam, mu), c in kfa.coeffs.items()
                if mu == one_column(t) and lam.size == n
            }
            rhs = {}
            for k in (t - 1, t):
                if k < 0:
                    continue
                for (lam, mu), c in fs.coeffs.items():
                    if mu == one_column(k) and lam.size == n:
                        rhs[lam] = rhs.get(lam, 0) + c
            assert lhs == rhs, (t, n)


def test_relate_hom_projcover_hom_pbar_otimes():
    """hom out of the covers minus hom out of the tensor powers equals the
    correction sum of homs out of reduced exterior powers into the reduced
    block.  (The correction terms are hom(Lambda^k(Pbar), -): they are
    derived here from the evaluation contractions via the short exact
    sequence hom(Lambda^{k-1}(Pbar)) -> sgn_k (x) eval_k -> hom(Lambda^k(Pbar)),
    independently of their closed form.)"""
    N = 5
    lhs = fc.hom_projcover_pbar(N, N) - fc.hom_pbar_pbar(N, N)
    pol = fc.pbar_over_lambda_class(N)
    # contraction at k: class of sgn_k (x) (reduced block)(k), which equals
    # hom(Lambda^k of the full projective, reduced block)
    contract = {
        k: pol.left_class(one_column(k)) for k in range(0, N + 1)
    }
    assert contract[0].coeffs == {}
    G = {0: fg.VirtualFB(N, {})}
    for k in range(1, N + 1):
        G[k] = contract[k] - G[k - 1]
    rhs = fg.VirtualFBBimod(N, N, {})
    for k in range(1, N + 1):
        rhs = rhs + fg.external_product(G[k], fg.sgn_class(k - 1, N))
    assert lhs == rhs
    # and each correction term agrees with its closed form
    fs_all = fc.fs_class(N, cross_check=False)
    for k in range(1, N + 1):
        kfs_contract = fg.VirtualFB(
            N,
            {
                lam: c
                for (lam, mu), c in fs_all.coeffs.items()
                if mu == one_column(k)
            },
        )
        closed = fg.day(kfs_contract, fg.series_S(0, N)) - fg.series_S(k, N)
        assert G[k] == closed, k


def test_fb_module_data_json_round_trip():
    data = pfin_data(2, 5)
    again = fc.FBModuleData.from_json(data.to_json())
    assert again.trunc == data.trunc
    assert again.F0_dim == data.F0_dim
    assert again.degrees == data.degrees


def test_fb_module_data_refuses_duplicate_entries():
    one = {"n": 1, "mults": [{"partition": [1], "mult": 1}]}
    # one partition twice in a degree's mults
    twice = {"n": 1, "mults": [{"partition": [1], "mult": 1}, {"partition": [1], "mult": 2}]}
    with pytest.raises(ValueError, match=r"partition \[1\] given twice"):
        fc.FBModuleData.from_json({"trunc": 2, "F0_dim": 1, "degrees": {"1": twice}})
    # two degree keys that parse to the same integer
    with pytest.raises(ValueError, match="degree 1 given twice"):
        fc.FBModuleData.from_json({"trunc": 2, "F0_dim": 1, "degrees": {"1": one, "01": one}})


def test_report_json_turns_numpy_integers_into_ints():
    import json

    import numpy as np

    from finsetrep.oracle import Report

    assert Report is fc.Report
    r = Report(
        "claim", {"n": 2},
        [np.int64(3), (np.int32(-1), [np.int64(2**40)])],
        {"a": np.int64(5), 7: [np.uint8(1), {"b": np.int16(-2)}], "c": True},
        True,
    )
    doc = r.to_json()
    assert doc == {
        "claim": "claim", "parameters": {"n": 2},
        "expected": [3, [-1, [2**40]]],
        "computed": {"a": 5, "7": [1, {"b": -2}], "c": True},
        "pass": True,
    }
    ints = [doc["expected"][0], doc["expected"][1][0], doc["expected"][1][1][0],
            doc["computed"]["a"], doc["computed"]["7"][0], doc["computed"]["7"][1]["b"]]
    assert all(type(x) is int for x in ints)
    assert doc["computed"]["c"] is True
    json.dumps(doc)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fc.ProjLabel.schur_pbar(Partition((1, 1))), ValueError, "no schur-projective for 1,1"),
        (lambda: fc.ProjLabel.schur_pbar(Partition(())), ValueError, "schur-projectives need a nonempty partition"),
        (lambda: fc.decompose_schur_pfin(Partition(())), ValueError, "needs a partition of a positive integer"),
        (lambda: fc.hom_projcover(fc.FBModuleData(0, 1)), ValueError, "needs trunc >= 1"),
        # the constant module k without its L0 factor: dim k(0) = 1, but no
        # simple accounts for it
        (lambda: fc.check_multiplicity_dimensions(fc.FBModuleData(2, 1), {}), fc.VerificationError,
         "dimension bookkeeping fails at t=0: 0 != 1"),
    ],
)
def test_refusals_name_what_they_refuse(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_fs_class_refuses_a_surjection_class_off_the_convolution_route(monkeypatch):
    # the surjection blocks read as all-maps blocks; the blocks are memoized,
    # so the memo starts and ends empty
    real = fc.perm_character_maps
    monkeypatch.setattr(fc, "perm_character_maps", lambda s, t, surjective_only: real(s, t, False))
    fc._map_block.cache_clear()
    try:
        with pytest.raises(fc.VerificationError, match=r"^surjection class disagrees with the convolution route$"):
            fc.fs_class(2, cross_check=True)
    finally:
        fc._map_block.cache_clear()
