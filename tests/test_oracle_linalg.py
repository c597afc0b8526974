import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
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


def test_rank_and_pivots_match_reference():
    for M, _ in _cases():
        pivots = linalg.pivot_columns(M)
        assert len(pivots) == linalg.rank(M) == _ref_rank(M)
        # each pivot column is independent of the columns before it, and
        # every other column is not
        for j in range(len(M[0])):
            grows = _ref_rank([row[: j + 1] for row in M]) > _ref_rank([row[:j] for row in M])
            assert grows == (j in pivots)


def _ref_rref(rows, n):
    """The reduced echelon form over Fractions of n-column rows, by
    Gauss-Jordan elimination: (rows, pivot columns)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                q = work[i][c]
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def _ref_kernel(rows, n):
    """The kernel basis read off the reduced echelon form over Fractions:
    one primitive integer vector per non-pivot column f, positive at f and
    zero at the other non-pivot columns."""
    work, pivots = _ref_rref(rows, n)
    out = []
    for f in (j for j in range(n) if j not in pivots):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -work[i][f]
        den = lcm(*(v.denominator for v in x))
        y = [int(v * den) for v in x]
        g = gcd(*y)
        out.append([v // g for v in y])
    return out


def _counting(monkeypatch, primes):
    """Make kernel_basis draw its moduli from primes; the returned list
    records the ones it took."""
    used = []

    def source():
        for p in primes:
            used.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", source)
    return used


def test_kernel_basis_matches_reference():
    for M, _ in _cases():
        n = len(M[0])
        ker = linalg.kernel_basis(M)
        assert ker == _ref_kernel(M, n)
        for x in ker:
            assert all(isinstance(v, int) for v in x)
            assert not any(_matvec(M, x))


def test_kernel_basis_of_rank_deficient_square_matrices():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(2, 12)
        M = _random_matrix(rng, n, n, rng.randint(0, n - 1), trial % 3 == 0)
        assert linalg.kernel_basis(M) == _ref_kernel(M, n)
        # an int64 array is taken as it is
        int_rows = np.array(linalg._to_int_rows(M), dtype=np.int64)
        assert linalg.kernel_basis(int_rows, n) == _ref_kernel(M, n)


def test_kernel_basis_with_large_entries_takes_several_primes(monkeypatch):
    rng = random.Random(2024)
    primes = list(itertools.islice(linalg._primes(), 100))
    for trial in range(6):
        m, n = rng.randint(2, 6), rng.randint(3, 8)
        r = rng.randint(1, min(m, n - 1))
        A = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(r)] for _ in range(m)]
        B = [[rng.randint(-(1 << 40), 1 << 40) for _ in range(n)] for _ in range(r)]
        M = [[sum(A[i][k] * B[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
        used = _counting(monkeypatch, primes)
        assert linalg.kernel_basis(M) == _ref_kernel(M, n)
        assert len(used) > 1


def test_kernel_basis_survives_unlucky_primes(monkeypatch):
    p0 = 101
    word = list(itertools.islice(linalg._primes(), 10))
    cases = [
        # the rank drops mod p0: p0 sees one pivot, Q sees two
        [[1, 2, 3], [2, 4, 6 + p0]],
        # same rank mod p0, other pivots: p0 sees column 1 first
        [[p0, 1]],
        [[p0, 1, 0, 0], [0, 0, 1, 0], [3 * p0, 3, 2, 0]],
    ]
    for M in cases:
        used = _counting(monkeypatch, [p0] + word)
        assert linalg.kernel_basis(M) == _ref_kernel(M, len(M[0]))
        assert used[:2] == [p0, word[0]]
    # a lucky first prime that cannot reconstruct the large entry, then an
    # unlucky one that starts the lift over, then lucky ones again
    M = [[p0, 1, 0, 0], [0, 0, 1, (1 << 40) + 7]]
    used = _counting(monkeypatch, [word[0], p0] + word[1:])
    assert linalg.kernel_basis(M) == _ref_kernel(M, 4) == [[-1, p0, 0, 0], [0, 0, -(1 << 40) - 7, 1]]
    assert used[:3] == [word[0], p0, word[1]]


def test_imatmul_at_the_float_bound():
    bound = linalg.FLOAT_EXACT_BOUND
    # just below the bound: 2**53 - 1 = 6361 * 69431 * 20394401, on BLAS
    A = np.array([[6361 * 69431]], dtype=np.int64)
    B = np.array([[-20394401]], dtype=np.int64)
    C = linalg.imatmul(A, B)
    assert C.dtype == np.int64 and C.tolist() == [[-(bound - 1)]]
    # at the bound the product 2**53 + 1, which float64 cannot hold, stays exact
    A = np.array([[1 << 26, 1]], dtype=np.int64)
    B = np.array([[1 << 27], [1]], dtype=np.int64)
    C = linalg.imatmul(A, B)
    assert C.dtype == object and C.tolist() == [[bound + 1]]
    rng = random.Random(53)
    for a_bits, b_bits, k in [(20, 30, 7), (26, 24, 8), (40, 12, 2), (1, 1, 5)]:
        a, b = (1 << a_bits) - 1, (1 << b_bits) - 1
        assert a * b * k < bound
        for _ in range(5):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = [[rng.choice([a, -a, rng.randint(-a, a)]) for _ in range(k)] for _ in range(m)]
            B = [[rng.choice([b, -b, rng.randint(-b, b)]) for _ in range(n)] for _ in range(k)]
            ref = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
            for dtype in (np.int64, object):
                C = linalg.imatmul(np.array(A, dtype=dtype), np.array(B, dtype=dtype))
                assert C.dtype == np.int64 and C.tolist() == ref
            # doubling one factor crosses the bound: Python ints, still exact
            B2 = [[2 * x for x in row] for row in B]
            if a * 2 * b * k >= bound:
                C = linalg.imatmul(np.array(A, dtype=np.int64), np.array(B2, dtype=np.int64))
                assert C.dtype == object
                assert C.tolist() == [[2 * x for x in row] for row in ref]
    assert linalg.imatmul(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)).tolist() == [[0] * 3] * 2


def test_lincomb_and_int_array_at_the_int64_bound():
    bound = linalg.INT64_BOUND
    small = np.array([[1, -2]], dtype=object)
    big = np.array([[bound, 1]], dtype=object)
    x = np.array([[3, 4]], dtype=np.int64)
    # small values in an object array come back on int64
    out = linalg.lincomb([(small, 3), (x, 1)])
    assert out.dtype == np.int64 and out.tolist() == [[6, -2]]
    out = linalg.lincomb([(x, -1), (small, 1)])
    assert out.dtype == np.int64 and out.tolist() == [[-2, -6]]
    # a bound at INT64_BOUND, in an entry or a scale, takes Python ints
    assert linalg.lincomb([(x, 1), (big, 1)]).tolist() == [[bound + 3, 5]]
    out = linalg.lincomb([(x, bound // 2)])
    assert out.dtype == object and out.tolist() == [[3 * bound // 2, 2 * bound]]
    # a zero array still counts its scale
    assert linalg.lincomb([(np.zeros((1, 2), dtype=np.int64), 1 << 70)]).dtype == object
    # the caller's arrays are left as they were
    assert small.tolist() == [[1, -2]] and x.tolist() == [[3, 4]]
    assert linalg.int_array([[bound - 1, -(bound - 1)]], 2).dtype == np.int64
    for rows in ([[bound, 0]], [[0, -bound]], [[1 << 64, 0]], [[Fraction(1, 2), bound // 2]]):
        A = linalg.int_array(rows, 2)
        assert A.dtype == object and A.tolist() == linalg._to_int_rows(rows)


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
    assert linalg.pivot_columns([]) == []
    assert linalg.pivot_columns([[0, 0], [0, 3]]) == [1]
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


def _ref_solve(rows, b):
    """The solution of M x = b with every free unknown 0, read off the
    reduced echelon form of [M | b]; None when b is outside the span."""
    n = len(rows[0])
    work, pivots = _ref_rref([list(row) + [v] for row, v in zip(rows, b)], n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = work[i][n]
    return x


def test_rank_and_solve_match_fraction_references_on_int64_and_big_rows():
    rng = random.Random(62)
    checked = 0
    for trial in range(24):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = _random_matrix(rng, m, n, rng.randint(0, min(m, n)), False)
        if trial % 2:
            # scale whole rows past 2**62: rank and solutions stay the same
            M = [[x * rng.choice([1, (1 << 62) + 1, -(1 << 70)]) for x in row] for row in M]
        B = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(3)]
        B.append(_matvec(M, [rng.randint(-3, 3) for _ in range(n)]))
        for rows in (M, np.array(M, dtype=object if trial % 2 else np.int64)):
            assert linalg.rank(rows) == _ref_rank(M)
            refs = [_ref_solve(M, b) for b in B]
            good = [b for b, x in zip(B, refs) if x is not None]
            assert linalg.solve(rows, good) == [x for x in refs if x is not None]
            if len(good) < len(B):
                with pytest.raises(ValueError):
                    linalg.solve(rows, B)
                checked += 1
    assert checked > 5
