import itertools

import pytest

from finsetrep.partitions import (
    Partition,
    contains,
    count_partitions,
    display,
    hook,
    is_horizontal_strip,
    one_column,
    parse,
    partitions_of,
    serialize,
)


def test_enumeration_small_cases():
    assert partitions_of(0) == (Partition(()),)
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(4)) == 5


def test_counts_match_pentagonal_recurrence():
    # independent counting oracle: Euler's pentagonal number recurrence
    for n in range(13):
        assert len(partitions_of(n)) == count_partitions(n)


def test_enumeration_is_reverse_lex_and_deterministic():
    for n in range(9):
        parts = [p.parts for p in partitions_of(n)]
        assert parts == sorted(parts, key=lambda q: tuple(-x for x in q))
        assert len(set(parts)) == len(parts)


def test_canonical_form_rejected_inputs():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_contains_examples():
    assert contains(Partition((2, 1)), Partition((2,)))
    assert not contains(Partition((2, 1)), Partition((1, 1, 1)))
    assert contains(Partition((3, 3, 1)), Partition((2, 2)))


def test_contains_is_partial_order_up_to_8():
    pool = [p for n in range(9) for p in partitions_of(n)]
    for a in pool:
        assert contains(a, a)
    for a, b in itertools.combinations(pool, 2):
        if contains(a, b) and contains(b, a):
            assert a == b
    # transitivity on a size-limited slice (full triple loop is too big)
    small = [p for n in range(7) for p in partitions_of(n)]
    for a in small:
        for b in small:
            if not contains(a, b):
                continue
            for c in small:
                if contains(b, c):
                    assert contains(a, c)


def _brute_strip(lam: Partition, mu: Partition) -> bool:
    # count boxes of lam/mu in each column directly
    width = lam[0] if len(lam) else 0
    for col in range(width):
        boxes = 0
        for i in range(len(lam)):
            in_lam = lam[i] > col
            in_mu = i < len(mu) and mu[i] > col
            if in_lam and not in_mu:
                boxes += 1
        if boxes > 1:
            return False
    return True


def test_horizontal_strip_examples_and_brute_force():
    assert is_horizontal_strip(Partition((2, 1)), Partition((2,)))
    assert not is_horizontal_strip(Partition((2, 2)), Partition((1, 1)))
    assert is_horizontal_strip(Partition((3, 1)), Partition((2,)))
    for n in range(9):
        for lam in partitions_of(n):
            for m in range(n + 1):
                for mu in partitions_of(m):
                    if contains(lam, mu):
                        assert is_horizontal_strip(lam, mu) == _brute_strip(lam, mu)


def test_horizontal_strip_rejects_non_contained():
    with pytest.raises(ValueError):
        is_horizontal_strip(Partition((2,)), Partition((1, 1)))


def test_hooks():
    assert hook(3, 1) == Partition((3,))
    assert hook(3, 3) == Partition((1, 1, 1))
    assert hook(5, 2) == Partition((4, 1))
    with pytest.raises(ValueError):
        hook(3, 4)
    with pytest.raises(ValueError):
        hook(3, 0)


def test_conjugate():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    for n in range(8):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam


def test_serialization_round_trip():
    assert serialize(Partition((2, 1))) == "2,1"
    assert serialize(Partition(())) == ""
    assert display(Partition((2, 1))) == "(2,1)"
    assert display(Partition(())) == "()"
    for n in range(8):
        for lam in partitions_of(n):
            assert parse(serialize(lam)) == lam
            assert parse(display(lam)) == lam
            assert Partition(lam.to_json()) == lam


def test_one_column_edge():
    assert one_column(0) == Partition(())
    assert one_column(3) == Partition((1, 1, 1))


def test_partitions_of_refuses_a_negative_size():
    with pytest.raises(ValueError, match=r"^n must be nonnegative$"):
        partitions_of(-1)
