import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from finsetrep.partitions import (
    Partition,
    contains,
    is_horizontal_strip,
    one_column,
    one_row,
    partitions_of,
)
from finsetrep import facalc as fc
from finsetrep import fbgroth as fg
from finsetrep import symrep as sr


def brute_force_table_3():
    """Character table of the degree-3 symmetric group from explicit 3x3
    permutation matrices: the independent oracle for the recursion."""
    perms = list(itertools.permutations(range(3)))

    def cycle_type(g):
        seen, lens = [False] * 3, []
        for i in range(3):
            if seen[i]:
                continue
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = g[j]
                ln += 1
            lens.append(ln)
        return Partition(tuple(sorted(lens, reverse=True)))

    # trivial, sign, and standard-representation characters
    table = {}
    for g in perms:
        fix = sum(1 for i in range(3) if g[i] == i)
        sign = 1 if cycle_type(g) in (Partition((1, 1, 1)), Partition((3,))) else -1
        table[g] = {
            Partition((3,)): 1,
            Partition((1, 1, 1)): sign,
            Partition((2, 1)): fix - 1,  # trace of permutation matrix minus 1
        }
    by_class = {}
    for g in perms:
        ct = cycle_type(g)
        by_class[ct] = table[g]
    return by_class


def test_table_degree_3_against_permutation_matrices():
    table = sr.character_table(3)
    oracle = brute_force_table_3()
    for lam in partitions_of(3):
        for mu in partitions_of(3):
            assert table[(lam, mu)] == oracle[mu][lam]


def test_table_small_cases():
    assert sr.character_table(0) == {(Partition(()), Partition(())): 1}
    assert sr.character_table(1) == {(Partition((1,)), Partition((1,))): 1}
    t2 = sr.character_table(2)
    assert t2[(Partition((2,)), Partition((1, 1)))] == 1
    assert t2[(Partition((2,)), Partition((2,)))] == 1
    assert t2[(Partition((1, 1)), Partition((1, 1)))] == 1
    assert t2[(Partition((1, 1)), Partition((2,)))] == -1


@lru_cache(maxsize=None)
def _mn_value_reference(lam: Partition, mu: Partition) -> int:
    """Murnaghan-Nakayama on Partition keys with beta-sets as Python sets:
    the reference for the tuple recursion behind character_table."""
    if lam.size == 0:
        return 1
    ell = mu[0]
    rest = Partition(mu.parts[1:])
    k = len(lam)
    beta = {lam[i] + k - 1 - i for i in range(k)}
    total = 0
    for b in beta:
        if b - ell >= 0 and (b - ell) not in beta:
            height = sum(1 for c in beta if b - ell < c < b)
            new_beta = sorted((beta - {b}) | {b - ell}, reverse=True)
            parts = [new_beta[i] - (k - 1 - i) for i in range(k)]
            new = Partition(tuple(p for p in parts if p > 0))
            total += (-1) ** height * _mn_value_reference(new, rest)
    return total


def test_table_matches_the_partition_keyed_recursion_up_to_12():
    for n in range(13):
        parts = partitions_of(n)
        assert sr.character_table(n) == {
            (lam, mu): _mn_value_reference(lam, mu) for lam in parts for mu in parts
        }


def test_first_and_second_orthogonality_up_to_8():
    for n in range(9):
        table = sr.character_table(n)
        parts = partitions_of(n)
        order = factorial(n)
        for lam in parts:
            for nu in parts:
                s = sum(
                    sr.class_size(mu) * table[(lam, mu)] * table[(nu, mu)]
                    for mu in parts
                )
                assert s == (order if lam == nu else 0)
        for mu in parts:
            for nu in parts:
                s = sum(table[(lam, mu)] * table[(lam, nu)] for lam in parts)
                assert s == (sr.centralizer_order(mu) if mu == nu else 0)


def test_degree_bound_is_enforced_and_configurable():
    old = sr.degree_bound()
    try:
        sr.set_degree_bound(5)
        with pytest.raises(sr.DegreeBoundError):
            sr.character_table(6)
    finally:
        sr.set_degree_bound(old)


def test_degree_bound_holds_for_cached_tables():
    n = 6
    f = sr.reconstruct(sr.trivial_class(n))
    sr.decompose(f)  # the table of degree n is now cached
    fc.kfa_class(n)  # and so are the map blocks through bidegree n
    fc.fs_class(n, cross_check=False)
    S0 = fg.series_S(0, n)
    fg.day(fg.triv_class(n), S0)  # and so are the induction products to degree n
    bimod = fg.external_product(fg.triv_class(n), fg.triv_class(n))
    fg.bimod_convolve_right(bimod, S0)
    old = sr.degree_bound()
    try:
        sr.set_degree_bound(n - 1)
        with pytest.raises(sr.DegreeBoundError):
            sr.character_table(n)
        with pytest.raises(sr.DegreeBoundError):
            sr.decompose(f)
        with pytest.raises(sr.DegreeBoundError):
            sr.joint_decompose(sr.all_maps_character(n, 1))
        with pytest.raises(sr.DegreeBoundError):
            fc.kfa_class(n)
        with pytest.raises(sr.DegreeBoundError):
            fc.fs_class(n, cross_check=False)
        with pytest.raises(sr.DegreeBoundError):
            fg.day(fg.triv_class(n), S0)
        with pytest.raises(sr.DegreeBoundError):
            fg.bimod_convolve_right(bimod, S0)
    finally:
        sr.set_degree_bound(old)


def _decompose_by_fractions(f):
    """<f, chi_lam> summed term by term in Fractions: the reference for the
    integer path."""
    table = sr.character_table(f.n)
    out = {}
    for lam in partitions_of(f.n):
        val = Fraction(0)
        for mu in partitions_of(f.n):
            val += sr.class_size(mu) * f(mu) * table[(lam, mu)]
        val /= factorial(f.n)
        if val:
            out[lam] = int(val) if val.denominator == 1 else val
    return out


def test_decompose_rational_class_functions_exact():
    rng = random.Random(3)
    for n in range(9):
        parts = partitions_of(n)
        for _ in range(4):
            # arbitrary rational values: non-integral and negative multiplicities
            f = sr.ClassFunction(
                n, {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for mu in parts}
            )
            got = sr.decompose(f)
            want = _decompose_by_fractions(f)
            assert got.mults == want
            assert {lam: type(m) for lam, m in got.mults.items()} == {
                lam: type(m) for lam, m in want.items()
            }
            # a virtual class with mixed int and Fraction multiplicities
            mults = {lam: rng.choice([-2, 3, Fraction(-5, 3), Fraction(1, 4)]) for lam in parts}
            dec = sr.IrrDecomposition(n, mults)
            back = sr.decompose(sr.reconstruct(dec))
            assert back == dec
            for lam, m in back.mults.items():
                assert type(m) is (int if m == int(m) else Fraction)
    half = sr.decompose(
        sr.ClassFunction(2, {Partition((1, 1)): Fraction(1), Partition((2,)): Fraction(0)})
    )
    assert half.mults == {Partition((2,)): Fraction(1, 2), Partition((1, 1)): Fraction(1, 2)}
    assert half.is_virtual


def _joint_decompose_by_quadruple_sum(joint):
    """The multiplicity of every (lam, mu) as one sum over both cycle types."""
    s, t = joint.s, joint.t
    table_s, table_t = sr.character_table(s), sr.character_table(t)
    out = {}
    for lam in partitions_of(s):
        for mu in partitions_of(t):
            val = sum(
                sr.class_size(a)
                * sr.class_size(b)
                * joint.value(a, b)
                * table_s[(lam, a)]
                * table_t[(mu, b)]
                for a in partitions_of(s)
                for b in partitions_of(t)
            )
            val = Fraction(val, factorial(s) * factorial(t))
            if val:
                out[(lam, mu)] = val
    return out


def test_joint_decompose_matches_quadruple_sum():
    rng = random.Random(9)
    for s in range(6):
        for t in range(6):
            table_s, table_t = sr.character_table(s), sr.character_table(t)
            # a random virtual bimodule character: sum c chi_lam (x) chi_mu
            coeffs = {
                (lam, mu): rng.randint(-2, 2)
                for lam in partitions_of(s)
                for mu in partitions_of(t)
            }
            values = {
                (a, b): sum(
                    c * table_s[(lam, a)] * table_t[(mu, b)]
                    for (lam, mu), c in coeffs.items()
                )
                for a in partitions_of(s)
                for b in partitions_of(t)
            }
            joints = [
                sr.all_maps_character(s, t),
                sr.surjections_character(s, t),
                sr.JointClassFunction(s, t, values),
            ]
            for joint in joints:
                got = sr.joint_decompose(joint)
                assert got == _joint_decompose_by_quadruple_sum(joint), (s, t)
                assert all(type(c) is int for c in got.values())
            assert got == {key: c for key, c in coeffs.items() if c}
    # the regular character of S_2 on the left only: multiplicities 1/2
    half = sr.JointClassFunction(
        2, 0, {(Partition((1, 1)), Partition(())): 1, (Partition((2,)), Partition(())): 0}
    )
    with pytest.raises(AssertionError):
        sr.joint_decompose(half)


def _count_fixed_maps(s, t, keep):
    """Fixed maps among those passing keep, by looping over every map and
    every pair of representatives."""
    values = {}
    maps = [f for f in itertools.product(range(t), repeat=s) if keep(f)]
    for alpha in partitions_of(s):
        sigma = sr.representative(alpha)
        for beta in partitions_of(t):
            tau = sr.representative(beta)
            values[(alpha, beta)] = sum(
                all(f[sigma[i]] == tau[f[i]] for i in range(s)) for f in maps
            )
    return values


_ENUM_CASES = [(0, t) for t in range(4)] + [(s, 0) for s in range(4)]
_ENUM_CASES += [(s, t) for s in range(1, 5) for t in range(1, 5)]
# lopsided shapes pin the digit weights and digit order of the map codes
_ENUM_CASES += [(6, 2), (2, 6), (5, 3), (3, 5)]


def test_enumerated_character_against_brute_force():
    for s, t in _ENUM_CASES:
        for surj in (False, True):
            got = sr.enumerated_character(s, t, surjective_only=surj)
            want = _count_fixed_maps(s, t, lambda f: not surj or len(set(f)) == t)
            assert got.values == want, (s, t, surj)
    assert sr.enumerated_character(0, 0, True).total() == 1
    assert sr.enumerated_character(0, 3, False).total() == 1
    assert sr.enumerated_character(0, 3, True).total() == 0
    assert sr.enumerated_character(3, 0, False).total() == 0


@pytest.mark.parametrize("block", [1, 2, 5])
def test_enumerated_character_split_into_blocks_against_brute_force(monkeypatch, block):
    # every case above fits in one block of the default size; here the
    # leading digits pick one of many blocks, down to one map per block at
    # size 1.  At size 5 the maps 4 -> 3 vary only their last digit inside
    # a block, so a block such as 000* holds no surjection and is skipped,
    # and the s = 0 and t = 0 edges keep their one block
    monkeypatch.setattr(sr, "_ENUM_BLOCK", block)
    for s, t in _ENUM_CASES:
        for surj in (False, True):
            got = sr.enumerated_character(s, t, surjective_only=surj)
            want = _count_fixed_maps(s, t, lambda f: not surj or len(set(f)) == t)
            assert got.values == want, (s, t, surj, block)


def test_decompose_reconstruct_round_trip():
    rng = random.Random(11)
    for n in range(9):
        for _ in range(4):
            mults = {}
            for lam in partitions_of(n):
                c = rng.randint(-3, 3)
                if c:
                    mults[lam] = c
            dec = sr.IrrDecomposition(n, mults)
            assert sr.decompose(sr.reconstruct(dec)) == dec


def test_decompose_regular_and_trivial():
    # regular character of the degree-3 group: dims as multiplicities
    f = sr.ClassFunction(
        3,
        {
            Partition((1, 1, 1)): Fraction(6),
            Partition((2, 1)): Fraction(0),
            Partition((3,)): Fraction(0),
        },
    )
    assert sr.decompose(f).mults == {
        Partition((3,)): 1,
        Partition((2, 1)): 2,
        Partition((1, 1, 1)): 1,
    }
    assert sr.decompose(sr.reconstruct(sr.trivial_class(4))).mults == {
        Partition((4,)): 1
    }


def test_sign_twist_via_pointwise():
    chi = sr.IrrDecomposition.irreducible(Partition((2, 1)))
    tw = sr.pointwise_product(chi, sr.sign_class(3))
    assert tw.mults == {Partition((2, 1)): 1}
    assert sr.sign_twist(chi) == tw


def test_virtual_flag():
    dec = sr.IrrDecomposition(2, {Partition((2,)): -1})
    assert dec.is_virtual
    assert not sr.trivial_class(2).is_virtual


def test_decompose_flags_non_integral():
    # a class function that is not a virtual character: fractional inner
    # products are kept and flagged rather than raised
    f = sr.ClassFunction(2, {Partition((1, 1)): Fraction(0), Partition((2,)): Fraction(1)})
    dec = sr.decompose(f)
    assert dec.is_virtual
    assert any(
        isinstance(m, Fraction) and m.denominator != 1 for m in dec.mults.values()
    )


def test_induction_product_unit_and_pieri():
    probe = sr.IrrDecomposition(3, {Partition((2, 1)): 2, Partition((3,)): -1})
    unit = sr.IrrDecomposition(0, {Partition(()): 1})
    assert sr.induction_product(probe, unit) == probe
    # Pieri for hooks: triv_{n-k} . sgn_k
    for n in range(1, 8):
        for k in range(1, n + 1):
            prod = sr.induction_product(sr.trivial_class(n - k), sr.sign_class(k))
            expected = {}
            expected[Partition((n - k + 1,) + (1,) * (k - 1))] = 1
            if n - k >= 1:
                expected[Partition((n - k,) + (1,) * k)] = 1
            assert prod.mults == expected


def test_induction_product_commutative_associative_random():
    rng = random.Random(5)
    for _ in range(6):
        degs = [rng.randint(0, 3) for _ in range(3)]
        if sum(degs) > 8:
            continue
        classes = []
        for d in degs:
            mults = {}
            for lam in partitions_of(d):
                c = rng.randint(-2, 2)
                if c:
                    mults[lam] = c
            if not mults:
                mults = {partitions_of(d)[0]: 1}
            classes.append(sr.IrrDecomposition(d, mults))
        a, b, c = classes
        assert sr.induction_product(a, b) == sr.induction_product(b, a)
        lhs = sr.induction_product(sr.induction_product(a, b), c)
        rhs = sr.induction_product(a, sr.induction_product(b, c))
        assert lhs == rhs


def _induction_by_characters(a, b):
    """The induced character over the Young subgroup S_m x S_n at each cycle
    type gamma, summed over the splits of gamma's cycles into alpha |- m and
    beta |- n (z_gamma / (z_alpha z_beta) cycle subsets each), then
    decomposed: the reference for the Littlewood-Richardson route."""
    m, n = a.n, b.n
    fa, fb = sr.reconstruct(a), sr.reconstruct(b)
    values = {}
    for gamma in partitions_of(m + n):
        total = Fraction(0)
        for alpha, ways in sr._split_multiset_all(gamma).items():
            if sum(alpha) == m:
                beta = list(gamma)
                for p in alpha:
                    beta.remove(p)
                total += ways * fa(Partition(alpha)) * fb(Partition(beta))
        values[gamma] = total
    return sr.decompose(sr.ClassFunction(m + n, values))


def test_induction_product_of_every_irreducible_pair():
    # every pair with |lam| + |nu| <= 10, in both orders, against the
    # induced characters
    for m in range(11):
        for n in range(11 - m):
            for a, b in itertools.product(partitions_of(m), partitions_of(n)):
                ia, ib = sr.IrrDecomposition.irreducible(a), sr.IrrDecomposition.irreducible(b)
                prod = sr.induction_product(ia, ib)
                assert prod == _induction_by_characters(ia, ib), (a, b)
                assert prod.dim() == comb(m + n, m) * sr.irr_dim(a) * sr.irr_dim(b), (a, b)


def test_induction_product_pieri_rows_and_columns():
    # lam . (k) is the sum of the rho with rho/lam a horizontal strip, and
    # lam . (1^k) of those with rho/lam a vertical strip, through size 12
    for size in range(13):
        for lam in (lam for m in range(size + 1) for lam in partitions_of(m)):
            k = size - lam.size
            ia = sr.IrrDecomposition.irreducible(lam)
            strips = [rho for rho in partitions_of(size) if contains(rho, lam)]
            row = sr.induction_product(ia, sr.trivial_class(k))
            assert row.mults == {rho: 1 for rho in strips if is_horizontal_strip(rho, lam)}
            column = sr.induction_product(ia, sr.sign_class(k))
            assert column.mults == {
                rho: 1
                for rho in strips
                if is_horizontal_strip(rho.conjugate(), lam.conjugate())
            }


def test_induction_product_of_fractional_classes_keeps_types():
    a = sr.IrrDecomposition(
        2, {Partition((2,)): Fraction(1, 3), Partition((1, 1)): Fraction(2, 3)}
    )
    b = sr.IrrDecomposition(2, {Partition((2,)): Fraction(3, 2), Partition((1, 1)): 1})
    prod = sr.induction_product(a, b)
    # (2,1,1) gets 1/3 + 1 + 2/3 = 2, an int; the others are Fractions
    want = _induction_by_characters(a, b)
    assert prod == want
    assert {rho: type(m) for rho, m in prod.mults.items()} == {
        rho: type(m) for rho, m in want.mults.items()
    }
    assert {type(m) for m in prod.mults.values()} == {int, Fraction}


def test_day_convolution_builds_no_character_table(monkeypatch):
    monkeypatch.setattr(sr, "_table_cache", {})
    assert fg.invert_triv(fg.series_H(3, 12)) == fg.series_S(3, 12)
    assert sr._table_cache == {}


def test_induction_via_regular():
    prod = sr.induction_product(sr.trivial_class(1), sr.trivial_class(1))
    assert prod.mults == {Partition((2,)): 1, Partition((1, 1)): 1}


def test_sgn_coinvariants():
    for n in range(1, 7):
        reg = sr.IrrDecomposition(
            n, {lam: sr.irr_dim(lam) for lam in partitions_of(n)}
        )
        assert sr.sgn_coinvariants(reg) == 1
    for k in range(2, 7):
        assert sr.sgn_coinvariants(sr.trivial_class(k)) == 0
    assert sr.sgn_coinvariants(sr.IrrDecomposition.irreducible(Partition((2, 1)))) == 0


def test_perm_characters_all_maps_examples():
    j = sr.perm_character_maps(1, 2, surjective_only=False)
    assert j.value(Partition((1,)), Partition((1, 1))) == 2
    assert j.value(Partition((1,)), Partition((2,))) == 0
    dec = sr.joint_decompose(j)
    # regular module in the target variable
    assert dec == {
        (Partition((1,)), Partition((2,))): 1,
        (Partition((1,)), Partition((1, 1))): 1,
    }


def test_surjections_count_and_bijections():
    js = sr.perm_character_maps(3, 2, surjective_only=True)
    assert js.total() == 6
    for n in range(4):
        jb = sr.perm_character_maps(n, n, surjective_only=True)
        dec = sr.joint_decompose(jb)
        assert dec == {(lam, lam): 1 for lam in partitions_of(n)}


def test_surjection_enumeration_cross_check_runs():
    # the constructor asserts enumeration == inclusion-exclusion internally
    for s in range(6):
        for t in range(5):
            sr.perm_character_maps(s, t, surjective_only=True)


def _injection_joint_character(s, n):
    """Fixed injections by explicit enumeration (oracle for the induction
    identification)."""
    from finsetrep.symrep import representative

    values = {}
    injections = list(itertools.permutations(range(n), s))
    for alpha in partitions_of(s):
        sigma = representative(alpha)
        for beta in partitions_of(n):
            tau = representative(beta)
            count = 0
            for f in injections:
                if all(f[sigma[i]] == tau[f[i]] for i in range(s)):
                    count += 1
            values[(alpha, beta)] = count
    return sr.JointClassFunction(s, n, values)


def test_identify_induction():
    # tensoring the injection bimodule against an irreducible equals the
    # induction product with the trivial class of the complementary degree
    for n in range(0, 8):
        for s in range(0, n + 1):
            joint = _injection_joint_character(s, n)
            for lam in partitions_of(s):
                table = sr.character_table(s)
                vals = {}
                for beta in partitions_of(n):
                    acc = Fraction(0)
                    for alpha in partitions_of(s):
                        acc += (
                            sr.class_size(alpha)
                            * joint.value(alpha, beta)
                            * table[(lam, alpha)]
                        )
                    vals[beta] = acc / factorial(s)
                got = sr.decompose(sr.ClassFunction(n, vals))
                want = sr.induction_product(
                    sr.trivial_class(n - s), sr.IrrDecomposition.irreducible(lam)
                )
                assert got == want, (n, s, lam)


def test_schur_dims():
    assert sr.schur_dim(Partition((2, 1)), 3) == 8
    assert sr.schur_dim(Partition((1, 1)), 4) == 6
    assert sr.schur_dim(Partition((2,)), 4) == 10
    assert sr.schur_dim(Partition(()), 5) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sr.character_table(-1), "n must be nonnegative"),
        (lambda: sr.ClassFunction(2, {Partition((3,)): 1}), "unexpected cycle types: {Partition([3])}"),
        (lambda: sr.IrrDecomposition(2, {Partition((3,)): 1}), "3 is not a partition of 2"),
        (lambda: sr.json_key_int("-1"), "key '-1' is not a string of decimal digits"),
        # 2^20 maps, above the 500,000 that enumeration accepts
        (lambda: sr.enumerated_character(20, 2, False), "enumeration of 2^20 maps refused"),
    ],
)
def test_refusals_name_what_they_refuse(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_map_characters_refuse_an_enumeration_that_disagrees(monkeypatch):
    # the enumeration reads all maps where surjections were asked for
    real = sr.enumerated_character
    monkeypatch.setattr(sr, "enumerated_character", lambda s, t, surjective_only: real(s, t, False))
    with pytest.raises(AssertionError, match=r"^map-character mismatch at s=2, t=2, surj=True$"):
        sr.perm_character_maps(2, 2, True)
