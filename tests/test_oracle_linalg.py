import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from finsetrep.oracle import linalg
from finsetrep.oracle.linalg import SpMat


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


def _random_matrix(rng, m, n, rank, scaled):
    """An m x n matrix of rank <= rank: a product of random factors, with
    each entry times a random integer when asked."""
    A = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    M = [[sum(A[i][k] * B[k][j] for k in range(rank)) for j in range(n)] for i in range(m)]
    if scaled:
        M = [[x * rng.randint(1, 6) for x in row] for row in M]
    return M


def _cases():
    """(M, its array, rng): every other array holds Python ints, its rows
    scaled past the int64 bound, which keeps rank and kernel."""
    rng = random.Random(20240501)
    for trial in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = _random_matrix(rng, m, n, rng.randint(0, min(m, n)), trial % 2 == 1)
        if trial % 2:
            M = [[x * rng.choice([1, (1 << 62) + 1, -(1 << 70)]) for x in row] for row in M]
        yield M, np.array(M, dtype=object if trial % 2 else np.int64), rng


def test_rank_and_pivots_match_reference():
    for M, A, rng in _cases():
        # M over a denominator: the same rank and pivots
        S = SpMat.from_dense(A, rng.choice([2, 6, (1 << 64) + 1]))
        pivots = linalg.pivot_columns(S)
        assert len(pivots) == linalg.rank(S) == _ref_rank(M)
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
    """Make kernel_basis and row_inverse draw their moduli from primes;
    the returned list records the ones they took."""
    used = []

    def source():
        for p in primes:
            used.append(p)
            yield p

    monkeypatch.setattr(linalg, "_primes", source)
    return used


def test_kernel_basis_matches_reference():
    for M, A, _ in _cases():
        n = len(M[0])
        ker = linalg.kernel_basis(A)
        assert ker.shape == (len(ker), n)
        assert ker.tolist() == _ref_kernel(M, n)
        for x in ker.tolist():
            assert all(isinstance(v, int) for v in x)
            assert not any(_matvec(M, x))


def test_kernel_basis_of_rank_deficient_square_matrices():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(2, 12)
        M = _random_matrix(rng, n, n, rng.randint(0, n - 1), trial % 3 == 0)
        for dtype in (np.int64, object):
            ker = linalg.kernel_basis(np.array(M, dtype=dtype))
            assert ker.dtype == np.int64 and ker.tolist() == _ref_kernel(M, n)


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
        assert linalg.kernel_basis(np.array(M, dtype=object)).tolist() == _ref_kernel(M, n)
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
        assert linalg.kernel_basis(np.array(M, dtype=np.int64)).tolist() == _ref_kernel(M, len(M[0]))
        assert used[:2] == [p0, word[0]]
    # a lucky first prime that cannot reconstruct the large entry, then an
    # unlucky one that starts the lift over, then lucky ones again; the lift
    # over two primes runs on Python ints and comes back on int64
    M = [[p0, 1, 0, 0], [0, 0, 1, (1 << 40) + 7]]
    used = _counting(monkeypatch, [word[0], p0] + word[1:])
    ker = linalg.kernel_basis(np.array(M, dtype=np.int64))
    assert ker.tolist() == _ref_kernel(M, 4) == [[-1, p0, 0, 0], [0, 0, -(1 << 40) - 7, 1]]
    assert ker.dtype == np.int64
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
    # int_array narrows Python ints to int64 where they allow it
    A = linalg.int_array(np.array([[bound - 1, -(bound - 1)]], dtype=object))
    assert A.dtype == np.int64 and A.tolist() == [[bound - 1, -(bound - 1)]]
    assert linalg.int_array(x) is x
    for rows in ([[bound, 0]], [[0, -bound]], [[1 << 64, 0]]):
        A = linalg.int_array(np.array(rows, dtype=object))
        assert A.dtype == object and A.tolist() == rows


def _assert_inverse(S, J, I, X, C):
    """X = S[I, J]^-1 and C = S[free, J] X, exactly."""
    S = [[row[j] for j in J] for row in S]
    k = len(J)
    Xf = [[Fraction(x, X.den) for x in row] for row in X.int_rows().tolist()]
    for r in range(k):
        for c in range(k):
            assert sum(Xf[r][j] * S[i][c] for j, i in enumerate(I)) == (r == c)
    free = [i for i in range(len(S)) if i not in I]
    want = [[sum(S[f][j] * Xf[j][c] for j in range(k)) for c in range(k)] for f in free]
    assert [[Fraction(x, C.den) for x in row] for row in C.int_rows().tolist()] == want


def test_row_inverse_matches_fraction_reference():
    rng = random.Random(4711)
    checked = deficient = big = 0
    for trial in range(40):
        k = rng.randint(1, 5)
        S = _random_matrix(rng, k, k, k, False)
        # tall: rows that are zero or multiples of a row above them, which
        # are never in I, inserted
        for _ in range(0 if trial % 3 == 0 else rng.randint(1, 4)):
            i = rng.randint(1, len(S))
            S.insert(i, [rng.choice([0, -2, 3]) * x for x in S[rng.randrange(i)]])
        n = len(S)
        if trial % 4 == 3:
            # entries past the int64 bound: whole rows and one whole column scaled
            scales = [rng.choice([1, linalg.INT64_BOUND + 1, -(1 << 70)]) for _ in S]
            S = [[x * a for x in row] for row, a in zip(S, scales)]
            c = rng.randrange(k)
            S = [[x << 66 if j == c else x for j, x in enumerate(row)] for row in S]
            big += 1
        A = SpMat.from_dense(np.array(S, dtype=object if trial % 4 == 3 else np.int64))
        J, I, X, C = linalg.row_inverse(A)
        # J: the columns, left to right, independent of those before them
        grows = [_ref_rank([row[: j + 1] for row in S]) > _ref_rank([row[:j] for row in S])
                 for j in range(k)]
        assert J == [j for j in range(k) if grows[j]]
        # I: the rows of S[:, J], top to bottom, independent of those above them
        SJ = [[row[j] for j in J] for row in S]
        assert I == [i for i in range(n) if _ref_rank(SJ[: i + 1]) > _ref_rank(SJ[:i])]
        # X over its least denominator
        assert X.den > 0 and gcd(X.den, *X.vals.tolist()) == 1
        _assert_inverse(S, J, I, X, C)
        checked += 1
        deficient += len(J) < k
        # a column that is a combination of the others is dropped
        if k > 1:
            dep = [row + [row[0] - 2 * row[-1]] for row in S]
            J2, I2, X2, C2 = linalg.row_inverse(SpMat.from_dense(np.array(dep, dtype=object)))
            assert (J2, I2) == (J, I) and X2.equals(X) and C2.equals(C)
    assert checked == 40 and deficient > 2 and big > 5


def test_row_inverse_survives_unlucky_primes(monkeypatch):
    p0 = 101
    word = list(itertools.islice(linalg._primes(), 10))
    # row 0 is independent over Q and vanishes mod p0, where row 1 takes its
    # place: S[[1, 2]] is invertible, so only the pivot certificate (row 0's
    # coefficient on the later row 1) rejects p0
    S = [[p0, 0], [1, 0], [0, 1]]
    assert linalg._row_inverse_mod(SpMat.from_dense(np.array(S)), p0)[1] == [1, 2]
    used = _counting(monkeypatch, [p0] + word)
    J, I, X, C = linalg.row_inverse(SpMat.from_dense(np.array(S)))
    assert I == [0, 2] and used[:2] == [p0, word[0]]
    _assert_inverse(S, J, I, X, C)
    # the columns are dependent mod p0 only: p0 drops the second, the
    # certificate of the dropped columns rejects it, and the next prime
    # keeps both
    S = [[1, 2], [2, 4 + p0]]
    used = _counting(monkeypatch, [p0] + word)
    J, I, X, C = linalg.row_inverse(SpMat.from_dense(np.array(S)))
    assert I == [0, 1] and used[0] == p0
    _assert_inverse(S, J, I, X, C)
    # entries past 2**64: S^-1 has the denominator 2**70, which takes the
    # CRT of several word primes; an unlucky prime among them starts the
    # lift over, and the lift past int64 comes back exact
    S = [[(1 << 70) + 1, 1], [1, 1], [p0, 0]]
    used = _counting(monkeypatch, word[:2] + [p0] + word[2:])
    J, I, X, C = linalg.row_inverse(SpMat.from_dense(np.array(S, dtype=object)))
    assert I == [0, 1] and X.den == 1 << 70 and X.vals.dtype == object
    _assert_inverse(S, J, I, X, C)
    assert used[:3] == word[:2] + [p0] and len(used) > 5


def test_pivot_columns_survive_unlucky_primes(monkeypatch):
    p0 = 101
    word = list(itertools.islice(linalg._primes(), 10))
    # the columns (1, 2) and (2, 4 + p0) are independent over Q and
    # dependent mod p0, which drops the second: the dropped column is no
    # combination of the kept one, so the certificate rejects p0
    S = SpMat.from_dense(np.array([[1, 2], [2, 4 + p0]]))
    assert linalg._row_inverse_mod(S, p0)[0] == [0]
    used = _counting(monkeypatch, [p0] + word)
    assert linalg.pivot_columns(S) == [0, 1] and linalg.rank(S) == 2
    assert used[:2] == [p0, word[0]]
    # the column (2, 4) is dependent over Q, and every prime drops it
    S = [[1, 2, 0], [2, 4, 1]]
    used = _counting(monkeypatch, [p0] + word)
    J, I, X, C = linalg.row_inverse(SpMat.from_dense(np.array(S)))
    assert J == [0, 2] and I == [0, 1] and used == [p0]
    _assert_inverse(S, J, I, X, C)
    # column 0 is p0 times the later column 1, so it is 0 mod p0, which
    # keeps column 1 instead; column 0 is S[:, 1] y with y = p0, so only the
    # support of y, at a kept column right of 0, rejects p0
    S = SpMat.from_dense(np.array([[p0, 1], [2 * p0, 2]]))
    assert linalg._row_inverse_mod(S, p0)[0] == [1]
    used = _counting(monkeypatch, [p0] + word)
    assert linalg.pivot_columns(S) == [0] and used[:2] == [p0, word[0]]


def test_engines_raise_once_the_primes_run_out(monkeypatch):
    p0 = 101
    # both inputs are independent over Q and dependent mod p0, so the exact
    # check rejects p0, the only prime there is
    used = _counting(monkeypatch, [p0])
    with pytest.raises(ArithmeticError, match="ran out of word primes"):
        linalg.kernel_basis(np.array([[1, 2, 3], [2, 4, 6 + p0]]))
    assert used == [p0]
    used = _counting(monkeypatch, [p0])
    with pytest.raises(ArithmeticError, match="ran out of word primes"):
        linalg.row_inverse(SpMat.from_dense(np.array([[1, 2], [2, 4 + p0]])))
    assert used == [p0]


def test_lifts_combines_primes_of_one_choice_and_restarts_on_another(monkeypatch):
    def residues(x, p):
        # the sparse residues of the rationals x mod p, without the zeros
        keys = sorted(k for k, v in x.items() if v.numerator % p)
        return np.array(keys), np.array([x[k].numerator * pow(x[k].denominator, -1, p) % p for k in keys])

    x = {0: Fraction(1, 3), 2: Fraction(-5, 7), 5: Fraction(103, 3)}
    # rationals of another choice, which must not enter the CRT
    other = {0: Fraction(2), 1: Fraction(5, 11), 5: Fraction(-1, 4)}

    def solve_mod(p):
        # choice "a" at 101 does not reconstruct from one prime; choice "b"
        # from 103 on, which omits key 5 (103/3 is 0 mod 103)
        return ("a", *residues(other, p)) if p == 101 else ("b", *residues(x, p))

    used = _counting(monkeypatch, [101, 103, 107, 109])
    lifts = linalg._lifts(solve_mod)
    # 103 alone and 103 * 107 are too small for b = 721 at key 5; over
    # 103 * 107 * 109 the lift holds, and 101's residues are not in it
    choice, keys, b, D = next(lifts)
    assert used == [101, 103, 107, 109]
    assert (choice, keys.tolist(), b.tolist(), D) == ("b", [0, 2, 5], [7, -15, 721], 21)
    assert {k: Fraction(v, D) for k, v in zip(keys.tolist(), b.tolist())} == x
    # the caller's check rejected it: the primes have run out
    with pytest.raises(ArithmeticError, match="ran out of word primes"):
        next(lifts)


def test_empty_and_zero_column_inputs():
    def zeros(m, n):
        return np.zeros((m, n), dtype=np.int64)

    assert linalg.pivot_columns(SpMat.zeros(0, 0)) == []
    assert linalg.pivot_columns(SpMat.from_dense(np.array([[0, 0], [0, 3]]))) == [1]
    assert linalg.rank(SpMat.zeros(0, 0)) == 0
    assert linalg.rank(SpMat.zeros(2, 0)) == 0
    assert linalg.rank(SpMat.zeros(2, 2)) == 0
    J, I, X, C = linalg.row_inverse(SpMat.zeros(2, 2))
    assert (J, I, X.shape, C.shape) == ([], [], (0, 0), (2, 0))
    assert linalg.kernel_basis(zeros(0, 0)).shape == (0, 0)
    assert linalg.kernel_basis(zeros(0, 3)).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.kernel_basis(zeros(2, 0)).shape == (0, 0)
    assert linalg.kernel_basis(zeros(1, 2)).tolist() == [[1, 0], [0, 1]]


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
        B.append([int(v) for v in _matvec(M, [rng.randint(-3, 3) for _ in range(n)])])
        dtype = object if trial % 2 else np.int64
        # the SpMat M / den: the same rank and pivots
        den = rng.choice([3, (1 << 64) + 1])
        assert linalg.rank(SpMat.from_dense(np.array(M, dtype=dtype), den)) == _ref_rank(M)
        for b in B:
            # M x = b is solvable iff column n of [M | b] is no pivot; then the
            # kernel vector of that column, v with v[n] > 0 and every other
            # free unknown 0, gives the solution x = -v[:n] / v[n]
            Mb = np.array([row + [v] for row, v in zip(M, b)], dtype=dtype)
            want = _ref_solve(M, b)
            assert (n not in linalg.pivot_columns(SpMat.from_dense(Mb, den))) == (want is not None)
            if want is None:
                checked += 1
                continue
            v = [int(x) for x in linalg.kernel_basis(Mb)[-1]]
            assert v[n] > 0
            assert [Fraction(-x, v[n]) for x in v[:n]] == want
    assert checked > 5


def test_mod_column_basis_matches_column_basis():
    p = next(linalg._primes())
    rng = random.Random(31)
    for dim in (1, 3, 6):
        exact, mod = linalg.ColumnBasis(dim), linalg.ModColumnBasis(p)
        added = []
        for _ in range(4 * dim):
            if added and rng.random() < 0.3:
                # a combination of earlier columns
                vec = {}
                for col in rng.sample(added, min(2, len(added))):
                    c = rng.choice([-1, 2])
                    for i, v in col.items():
                        vec[i] = vec.get(i, 0) + c * v
            else:
                # once dim columns are in, a fresh column has rational coefficients
                vec = {i: rng.choice([-2, -1, 1, 3]) for i in rng.sample(range(dim), rng.randint(0, dim))}
            vec = {i: v for i, v in vec.items() if v}
            want = exact.add({i: Fraction(v) for i, v in vec.items()})
            got = mod.add({i: v % p for i, v in vec.items()})
            assert got == want[0]
            if got is not None:
                added.append(vec)
        assert len(mod.rows) == len(added) == exact.ncols
        # repeated vectors: copies of added columns, in a shuffled order, and
        # multiples of them; both reduce to zero and are rejected
        repeats = rng.sample(added, len(added)) + [{i: 2 * v for i, v in vec.items()} for vec in added]
        for vec in repeats:
            want = exact.add({i: Fraction(v) for i, v in vec.items()})
            got = mod.add({i: v % p for i, v in vec.items()})
            assert got is None is want[0]
