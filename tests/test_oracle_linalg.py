import random
from fractions import Fraction

import pytest

from finsetrep.oracle import linalg


def _ref_rank(rows):
    """Rank by plain Gauss-Jordan elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                q = work[i][c] / work[r][c]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _matvec(rows, x):
    return [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]


def _random_matrix(rng, m, n, rank, fractions):
    """An m x n matrix of rank <= rank: a product of random factors, with
    Fraction entries scaled in row by row when asked."""
    A = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    M = [[sum(A[i][k] * B[k][j] for k in range(rank)) for j in range(n)] for i in range(m)]
    if fractions:
        M = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in M]
    return M


def _cases():
    rng = random.Random(20240501)
    for trial in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        yield _random_matrix(rng, m, n, rng.randint(0, min(m, n)), trial % 2 == 1), rng


def test_echelon_and_rank_match_reference():
    for M, _ in _cases():
        ech, pivots = linalg.echelon(M)
        assert len(ech) == len(pivots) == linalg.rank(M) == _ref_rank(M)
        assert pivots == sorted(set(pivots))
        for row, pc in zip(ech, pivots):
            assert all(isinstance(x, int) for x in row)
            assert row[pc] and not any(row[:pc])
        # the echelon rows span the row space of M
        assert _ref_rank(M + ech) == len(ech)


def test_kernel_basis_matches_reference():
    for M, _ in _cases():
        n = len(M[0])
        ker = linalg.kernel_basis(M)
        assert len(ker) == n - _ref_rank(M)
        for x in ker:
            assert all(isinstance(v, int) for v in x)
            assert not any(_matvec(M, x))
        if ker:
            assert _ref_rank(ker) == len(ker)


def test_solve_many_right_hand_sides():
    for M, rng in _cases():
        n = len(M[0])
        Y = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(4)]
        B = [_matvec(M, y) for y in Y]
        X = linalg.solve(M, B)
        assert len(X) == len(B)
        for x, b in zip(X, B):
            assert len(x) == n
            assert _matvec(M, x) == b


def test_solve_rejects_an_inconsistent_column():
    rng = random.Random(7)
    checked = 0
    for M, _ in _cases():
        r = _ref_rank(M)
        if r == len(M):
            continue
        b = next(
            v for v in ([rng.randint(-3, 3) for _ in M] for _ in range(100))
            if _ref_rank([row + [x] for row, x in zip(M, v)]) > r
        )
        good = _matvec(M, [1] * len(M[0]))
        with pytest.raises(ValueError):
            linalg.solve(M, [good, b])
        with pytest.raises(ValueError):
            linalg.solve(M, [b, good])
        checked += 1
    assert checked > 5


def test_empty_and_zero_column_inputs():
    assert linalg.echelon([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.kernel_basis([]) == []
    assert linalg.kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.kernel_basis([[], []]) == []
    assert linalg.kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.solve([[], []], [[0, 0]]) == [[]]
    assert linalg.solve([[1, 2]], []) == []
    with pytest.raises(ValueError):
        linalg.solve([[], []], [[0, 1]])


def test_mixed_int_and_fraction_rows():
    M = [[Fraction(1, 2), 3, Fraction(-2, 3)], [1, 6, Fraction(-4, 3)], [0, 0, 5]]
    assert linalg.rank(M) == _ref_rank(M) == 2
    (x,) = linalg.kernel_basis(M)
    assert x == [-6, 1, 0]  # primitive, positive at its free coordinate
    assert linalg.solve(M, [[1, 2, 5]]) == [[Fraction(10, 3), 0, 1]]  # free unknown 0
