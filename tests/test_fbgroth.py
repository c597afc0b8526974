import random

import pytest

from finsetrep.partitions import Partition, one_column, partitions_of
from finsetrep import fbgroth as fg


def random_class(rng, trunc):
    coeffs = {}
    for _ in range(5):
        n = rng.randint(0, trunc)
        lam = rng.choice(list(partitions_of(n)))
        coeffs[lam] = coeffs.get(lam, 0) + rng.randint(-3, 3)
    return fg.VirtualFB(trunc, coeffs)


def test_series_S_examples():
    s0 = fg.series_S(0, 2)
    assert s0.coeffs == {
        Partition(()): 1,
        Partition((1,)): -1,
        Partition((1, 1)): 1,
    }
    s2 = fg.series_S(2, 3)
    assert s2.coeffs == {Partition((1, 1)): 1, Partition((1, 1, 1)): -1}
    for k in range(4):
        s = fg.series_S(k, 8)
        for m in range(k):
            assert not s.degree(m).mults
        assert s.degree(k).mults == {one_column(k): 1}


def test_series_H_examples():
    assert fg.series_H(0, 5).coeffs == {Partition(()): 1}
    assert fg.series_H(1, 3).coeffs == {
        Partition((1,)): 1,
        Partition((2,)): 1,
        Partition((3,)): 1,
    }
    assert fg.series_H(2, 4).coeffs == {
        Partition((1, 1)): 1,
        Partition((2, 1)): 1,
        Partition((3, 1)): 1,
    }


def test_invert_triv_examples():
    assert fg.invert_triv(fg.triv_class(6)) == fg.unit(6)
    assert fg.invert_triv(fg.unit(6)) == fg.series_S(0, 6)
    for k in range(0, 7):
        assert fg.invert_triv(fg.series_H(k, 8)) == fg.series_S(k, 8)


def test_W_relations_exact():
    for N in (8, 10):
        for k in range(0, N):
            lhs = fg.series_S(k, N) + fg.series_S(k + 1, N)
            assert lhs == fg.sgn_class(k, N), (k, N)


def test_H_relation():
    for k in range(0, 7):
        lhs = fg.series_H(k, 10) + fg.series_H(k + 1, 10)
        rhs = fg.day(fg.sgn_class(k, 10), fg.triv_class(10))
        assert lhs == rhs


def test_day_unit_sign_example():
    a = fg.VirtualFB(4, {Partition((2, 1)): 2, Partition(()): -1})
    assert fg.day(fg.unit(4), a) == a
    prod = fg.day(fg.sgn_class(1, 4), fg.sgn_class(1, 4))
    assert prod.coeffs == {Partition((2,)): 1, Partition((1, 1)): 1}


def test_day_commutative_associative_random():
    rng = random.Random(23)
    for _ in range(5):
        a, b, c = (random_class(rng, 4) for _ in range(3))
        assert fg.day(a, b) == fg.day(b, a)
        assert fg.day(fg.day(a, b), c) == fg.day(a, fg.day(b, c))


def test_round_trip_random():
    rng = random.Random(31)
    for _ in range(6):
        a = random_class(rng, 6)
        assert fg.invert_triv(fg.day(a, fg.triv_class(6))) == a


def test_pointwise():
    for k in range(1, 6):
        sq = fg.pointwise(fg.sgn_class(k, 6), fg.sgn_class(k, 6))
        assert sq.coeffs == {Partition((k,)) if k > 0 else Partition(()): 1}
    a = fg.VirtualFB(4, {Partition((2, 1)): 1, Partition((2,)): 2})
    assert fg.pointwise(fg.triv_class(4), a) == a
    tw = fg.pointwise(fg.VirtualFB(3, {Partition((2, 1)): 1}), fg.sgn_class(3, 3))
    assert tw.coeffs == {Partition((2, 1)): 1}


def test_truncation_semantics():
    a = fg.VirtualFB(6, {Partition((5,)): 1, Partition((1,)): 1})
    b = fg.VirtualFB(3, {Partition((1,)): 1})
    s = a + b
    assert s.trunc == 3
    assert Partition((5,)) not in s.coeffs
    with pytest.raises(ValueError):
        fg.VirtualFB(2, {Partition((3,)): 1})
    # crop keeps the lesser truncation
    assert fg.series_S(0, 6).crop(3) == fg.series_S(0, 3)
    assert fg.series_S(0, 3).crop(6) == fg.series_S(0, 3)


def test_bimod_truncation_semantics():
    one, two, three = (Partition((n,)) for n in (1, 2, 3))
    # a key past either truncation is refused
    for key in ((three, one), (one, three)):
        with pytest.raises(ValueError):
            fg.VirtualFBBimod(2, 2, {key: 1})
    # a sum or difference is truncated at the lesser truncation of each slot
    a = fg.VirtualFBBimod(3, 2, {(one, two): 1, (three, one): 2})
    b = fg.VirtualFBBimod(2, 3, {(one, two): -1, (two, three): 5})
    assert a + b == fg.VirtualFBBimod(2, 2, {})
    assert a - b == fg.VirtualFBBimod(2, 2, {(one, two): 2})
    assert b.scale(2) == fg.VirtualFBBimod(2, 3, {(one, two): -2, (two, three): 10})
    assert a.crop(5, 1) == fg.VirtualFBBimod(3, 1, {(three, one): 2})


def test_effectivity_flag():
    assert fg.triv_class(4).is_effective()
    assert not fg.series_S(0, 4).is_effective()


def test_bimod_convolutions():
    unit = fg.unit(3)
    bm = fg.external_product(
        fg.VirtualFB(3, {Partition((1,)): 1}), fg.VirtualFB(3, {Partition((2,)): 1})
    )
    assert fg.bimod_convolve_right(bm, unit) == bm
    assert fg.bimod_convolve_left(bm, unit) == bm
    res = fg.bimod_convolve_right(bm, fg.VirtualFB(3, {Partition((1,)): 1}))
    assert res.coeffs == {
        (Partition((1,)), Partition((3,))): 1,
        (Partition((1,)), Partition((2, 1))): 1,
    }
    res_l = fg.bimod_convolve_left(bm, fg.VirtualFB(3, {Partition((1,)): 1}))
    assert res_l.coeffs == {
        (Partition((2,)), Partition((2,))): 1,
        (Partition((1, 1)), Partition((2,))): 1,
    }
    # seeded a, b, c of unequal truncations: each convolution keeps the
    # least truncation of the slot it acts on, and the other slot's own
    rng = random.Random(19)
    for _ in range(40):
        a, b, c = (random_class(rng, rng.randint(0, 6)) for _ in range(3))
        ab = fg.external_product(a, b)
        assert fg.bimod_convolve_left(ab, c) == fg.external_product(fg.day(a, c), b)
        assert fg.bimod_convolve_right(ab, c) == fg.external_product(a, fg.day(b, c))


def test_bimod_bidegree_and_dims():
    bm = fg.external_product(fg.sgn_class(2, 4), fg.triv_class(4))
    assert bm.dim_at(2, 0) == 1
    assert bm.dim_at(2, 3) == 1
    assert bm.bidegree(1, 1) == {}
