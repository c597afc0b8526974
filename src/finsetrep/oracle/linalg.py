"""Exact linear algebra over the rationals.

Every matrix in and out is an integer array, int64 or Python ints (object
dtype), over a denominator that the caller keeps, or a SpMat: a sparse
integer matrix with one denominator, whose product with another is a numpy
join of their entries on the inner index.  Two engines answer every exact
question about a matrix.  Each solves it modulo word primes, and both share
one lift (_lifts): residues of primes that make the same choice are
combined by CRT and rationally reconstructed, and the engine returns the
answer only after an exact check of its own.  The dense one, kernel_basis,
computes only kernels: an integer array's right kernel, by int64
elimination.  The sparse one, row_inverse, makes every choice of
independent columns or rows: it eliminates a SpMat's columns as sparse
rows, each with its expression, skipping a column dependent on those before
it, inverts the kept columns' first independent rows and certifies both
choices by exact sparse products; ranks, pivots, expansions, residual
projections and coordinate read-outs all come off it.  One a-priori bound
(int_dtype) decides where integer arrays, SpMat's entries included, run on
int64 and where on Python ints; imatmul takes exact integer matrix products
on float64 BLAS under a bound of its own.  Both bounds rest on max|arr| of
the operands: imatmul scans both for it, and lincomb and SpMat.apply_dense
scan an array for it unless the caller passes it in, a value that must be
an upper bound on the true max|arr|, fixed before the operation it guards.
ModColumnBasis, an incrementally maintained reduced echelon form mod a
word prime whose column index names the rows that hold each coordinate,
carries row_inverse's elimination and picks the span pass's basis: columns
independent mod p are independent over Q, so as many of them as the
dimension are a basis over Q.  ColumnBasis is its exact Fraction
counterpart: the tests' reference, with no library caller.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def pivot_columns(S: "SpMat") -> List[int]:
    """The pivot columns of the SpMat S over the rationals, row_inverse's
    J: the first columns, left to right, independent of those before them."""
    return row_inverse(S)[0]


def rank(S: "SpMat") -> int:
    return len(pivot_columns(S))


def kernel_basis(M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {x : M x = 0} of the integer array M, as
    the rows of an integer array (int64 when its entries allow it), each a
    primitive vector: the one read off the reduced echelon form of M over
    the rationals, one vector per non-pivot column f, positive at f and
    zero at every other non-pivot column.

    Each prime's reduced echelon form gives its pivots (the choice) and the
    entries of the vectors at the pivot rows (the residues), lifted by
    _lifts; the vectors are returned only once the exact product M K is
    zero, K the vectors as columns.  That check makes the answer exact.  A
    prime's rank is at most the rank over Q, so its n - rank non-pivot
    columns bound the kernel dimension from above; the lifted vectors are
    independent (each is nonzero at its own non-pivot column, 0 at the
    others), so, once all lie in the kernel, the prime's rank is the true
    rank.  Each vector is also zero at every pivot column right of its own
    f, so every non-pivot column of M lies in the span of the pivot columns
    left of it: the prime's pivots are those over Q, and the vectors are
    the basis above.  A prime whose rank or pivots differ from Q's fails
    the check, and the next one is taken."""
    ncols = M.shape[1]

    def solve_mod(p):
        R, pivots = _rref_mod((M % p).astype(np.int64), p)
        free = sorted(set(range(ncols)).difference(pivots))
        return pivots, free, np.arange(R.shape[0] * len(free)), (-R[:, free] % p).ravel()

    for pivots, free, _, b, D in _lifts(solve_mod):
        K = np.zeros((ncols, len(free)), dtype=b.dtype)
        K[pivots] = b.reshape(len(pivots), len(free))
        K[free, np.arange(len(free))] = D
        K = K // np.gcd.reduce(K, axis=0)
        if not imatmul(M, K).any():
            return int_array(K).T


def row_inverse(S: "SpMat") -> Tuple[List[int], List[int], "SpMat", "SpMat"]:
    """(J, I, X, C) for a SpMat S of any rank r: J the first r columns, left
    to right, independent of those before them (its pivot columns), I the
    first r rows of S[:, J], top to bottom, independent of those above
    them, X = S[I, J]^-1 and C = S[free, J] X, the coefficients over the
    rows I of the other rows, free, in order.  Then X v[I] expands a
    vector v of S's column span over the columns J.

    S's columns are eliminated mod a word prime as sparse echelon rows,
    each with its expression (_row_inverse_mod), which gives J, I (the
    choice) and X mod p.  X is lifted by _lifts and certified by one exact
    sparse product S[:, J] X: its rows I must be D times the identity,
    which shows X = S[I, J]^-1, and its row f may be nonzero only at the
    columns c with I[c] < f, which puts every other row in the span of the
    rows of I above it.  Only when a column was dropped, T = X S[I] and one
    more sparse product, C S[I] = S[free], show that every dropped column f
    is S[:, J] y / D, y = X S[I, f] nonzero only at the kept columns left
    of f.  A prime whose J or I differs from Q's fails, and the next is
    taken."""
    n, k = S.shape
    # S's integer entries: S / den has the same independent rows and columns
    Sint = S if S.den == 1 else SpMat(n, k, S.rows, S.cols, S.vals)
    for J, I, keys, b, D in _lifts(lambda p: _row_inverse_mod(Sint, p)):
        r = len(J)
        Jarr, Iarr = np.array(J, dtype=np.int64), np.array(I, dtype=np.int64)
        X = SpMat(r, r, keys // r, keys % r, b)
        SX = Sint.compose(SpMat(k, r, Jarr[X.rows], X.cols, X.vals))
        pos = np.full(n, -1, dtype=np.int64)
        pos[Iarr] = np.arange(r)
        at_I = pos[SX.rows] >= 0
        rest = ~at_I
        if not (np.array_equal(SX.rows[at_I], Iarr) and np.array_equal(SX.cols[at_I], np.arange(r))
                and (SX.vals[at_I] == D).all() and (Iarr[SX.cols[rest]] < SX.rows[rest]).all()):
            continue
        free_index = np.cumsum(pos < 0) - 1
        C = SpMat(n - r, r, free_index[SX.rows[rest]], SX.cols[rest], SX.vals[rest], D)
        if r < k:
            # column f of T is D e_c at the kept column J[c] = f, else y, and
            # S[:, J] T = D S holds at the rows I, and at the others iff C S[I] = S[free]
            on_I = pos[Sint.rows] >= 0
            SI = SpMat(r, k, pos[Sint.rows[on_I]], Sint.cols[on_I], Sint.vals[on_I])
            T = X.compose(SI)
            Sfree = SpMat(n - r, k, free_index[Sint.rows[~on_I]], Sint.cols[~on_I], Sint.vals[~on_I])
            if not ((Jarr[T.rows] <= T.cols).all() and C.compose(SI).equals(Sfree)):
                continue
        return J, I, SpMat(r, r, X.rows, X.cols, X.vals, D).scale(S.den), C


def _row_inverse_mod(S: "SpMat", p: int) -> Tuple[List[int], List[int], np.ndarray, np.ndarray]:
    """(J, I, keys, residues) for the integer SpMat S: J the columns
    independent mod p of those before them, I the first len(J) rows of
    S[:, J] independent mod p, and the entries of S[I, J]^-1 mod p, the one
    at (j, c) as the key j * len(J) + c with its residue.  S's columns go
    into a ModColumnBasis in order, as the span pass's vectors do, and one
    that it does not append is skipped.  Each row's pivot is its least
    coordinate, so rank S[:i, J] counts the pivots below i and the pivots
    are I; the row with pivot I[c] is 1 there and 0 at the other rows of I,
    so its expression is column c of S[I, J]^-1."""
    n, k = S.shape
    # S's entries by column, each column's in row order
    order = np.argsort(S.cols, kind="stable")
    bounds = np.searchsorted(S.cols[order], np.arange(k + 1)).tolist()
    rows, res = S.rows[order].tolist(), (S.vals[order] % p).tolist()
    basis = ModColumnBasis(p, expressions=True)
    J = []
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        if basis.add({i: r for i, r in zip(rows[lo:hi], res[lo:hi]) if r}) is not None:
            J.append(j)
    I = sorted(basis.pivots)
    keys, residues = [], []
    for c, i in enumerate(I):
        for j, v in basis.exprs[basis.pivots[i]].items():
            keys.append(j * len(I) + c)
            residues.append(v)
    return J, I, np.array(keys, dtype=np.int64), np.array(residues, dtype=np.int64)


# An int64 array operation is taken only when an a-priori bound on every
# partial result is below this; otherwise it runs on Python ints.
INT64_BOUND = 1 << 62


def int_dtype(bound: int):
    """The dtype of integer arrays whose entries and partial results are
    at most bound in magnitude: int64 below INT64_BOUND, Python ints above."""
    return np.int64 if bound < INT64_BOUND else object


def lincomb(
    terms: Sequence[Tuple[np.ndarray, int]], maxes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The exact sum of arr * scale over the (arr, scale) terms, integer
    arrays of one shape and integer scales.  Its dtype follows the bound
    sum of max|arr| * |scale|, with max|arr| counted as at least 1, so that
    int64 is never taken for a scale that it cannot hold.  maxes, when
    given, bound each max|arr| in place of a scan."""
    if maxes is None:
        maxes = [int(np.abs(arr).max(initial=0)) for arr, _ in terms]
    dtype = int_dtype(sum(max(mx, 1) * abs(sc) for mx, (_, sc) in zip(maxes, terms)))
    terms = [(arr.astype(dtype, copy=False), sc) for arr, sc in terms]
    out = terms[0][0] * terms[0][1]
    for arr, sc in terms[1:]:
        # a unit scale adds in place, with no temporary (a span value in W)
        out += arr if sc == 1 else arr * sc
    return out


# Float64 holds every integer of magnitude below 2**53 exactly.
FLOAT_EXACT_BOUND = 1 << 53


def imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of two integer arrays (int64 or object dtype).

    It runs on float64 BLAS when max|A| * max|B| * inner < 2**53: every
    product and every partial sum, in any order, is then an integer below
    2**53, which float64 holds exactly.  Otherwise it runs on Python ints.
    """
    amax, bmax = (int(np.abs(X).max(initial=0)) for X in (A, B))
    if amax == 0 or bmax == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if amax * bmax * A.shape[1] < FLOAT_EXACT_BOUND:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    return A.astype(object) @ B.astype(object)


def int_array(A: np.ndarray) -> np.ndarray:
    """The integer array A on the dtype int_dtype gives for its largest
    entry: a Python-int array whose entries allow it comes back on int64.
    An int64 array is taken as it is."""
    if A.dtype == np.int64:
        return A
    return A.astype(int_dtype(max(-int(A.min(initial=0)), int(A.max(initial=0)))), copy=False)


def _is_prime(n: int) -> bool:
    """Strong probable-prime test to the bases 2, 7, 61: exact below 4,759,123,141."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The moduli of kernel_basis, row_inverse and the span pass: the
    primes below 2**31, largest first.  Below 2**31 every product of two
    residues fits in int64."""
    yield (1 << 31) - 1  # a Mersenne prime
    yield from (n for n in range((1 << 31) - 3, 2, -2) if _is_prime(n))


def _rref_mod(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p of A (int64, entries in [0, p)):
    its nonzero rows and their pivot columns."""
    A = A.copy()
    pivots: List[int] = []
    for c in range(A.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), -1, p) % p
        f = A[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        A[hit, c:] = (A[hit, c:] - f[hit, None] * A[r, c:]) % p
        pivots.append(c)
        if r + 1 == A.shape[0]:
            break
    return A[: len(pivots)], pivots


def _ratrecon(a: int, m: int) -> Optional[Tuple[int, int]]:
    """(num, den) with num/den = a mod m, |num| and 0 < den at most
    sqrt(m/2) (Wang's rational reconstruction), or None."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift_denominator(residues: np.ndarray, m: int) -> Optional[Tuple[np.ndarray, int]]:
    """(b, D) for rationals x with the given residues mod m: D > 0 their
    least common denominator and b = D x, each a symmetric residue; None
    when D or some |b| exceeds sqrt(m/2).  D grows by the denominators
    that reconstruction finds."""
    bound = isqrt(m // 2)
    D = 1
    while True:
        # residues times D stay below m * D
        b = residues.astype(int_dtype(m * D)) * D % m
        b[2 * b > m] -= m
        large = np.flatnonzero(np.abs(b) > bound)
        if not large.size:
            return b, D
        frac = _ratrecon(int(b.flat[large[0]]), m)
        if frac is None or D * frac[1] > bound:
            return None
        D *= frac[1]


def _crt_sparse(keys_a: np.ndarray, a: np.ndarray, m: int, keys_b: np.ndarray, b: np.ndarray, p: int):
    """(keys, residues mod m * p) of the sparse residue vectors a mod m and
    b mod p, each given by its entries at distinct keys; a missing key
    reads 0."""
    keys = np.union1d(keys_a, keys_b)
    full_a, full_b = np.zeros(len(keys), dtype=object), np.zeros(len(keys), dtype=object)
    full_a[np.searchsorted(keys, keys_a)] = a
    full_b[np.searchsorted(keys, keys_b)] = b
    return keys, full_a + m * ((full_b - full_a) % p * pow(m, -1, p) % p)


def _lifts(solve_mod: Callable[[int], Tuple]) -> Iterator[Tuple]:
    """The modular lift of both exact engines.  For each word prime p,
    solve_mod(p) returns (*choice, keys, residues): the choice it made mod
    p (the columns or rows it kept) and residues at distinct integer keys.
    While a prime makes the same choice as the primes before it, its
    residues are combined with theirs by CRT; otherwise one side is
    unlucky, and the caller's exact check rejects an unlucky prime, so the
    lift starts over from this prime.  Whenever the residues lift
    (_lift_denominator), this yields (*choice, keys, b, D), b / D the
    rationals at the keys, for the caller to check; it raises
    ArithmeticError once the primes run out."""
    best = None  # (choice, keys, residues, modulus)
    for p in _primes():
        *choice, keys, residues = solve_mod(p)
        if best is not None and best[0] == choice:
            keys, residues = _crt_sparse(best[1], best[2], best[3], keys, residues, p)
            best = (choice, keys, residues, best[3] * p)
        else:
            best = (choice, keys, residues, p)
        lifted = _lift_denominator(residues, best[3])
        if lifted is not None:
            yield (*choice, keys, *lifted)
    raise ArithmeticError("the modular lift ran out of word primes")


class SpMat:
    """Sparse integer matrix with one global denominator."""

    __slots__ = ("m", "n", "rows", "cols", "vals", "den", "_cidx", "_bucketed")

    def __init__(self, m, n, rows, cols, vals, den=1):
        self._cidx = self._bucketed = None
        self.m, self.n = int(m), int(n)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        entries, vals = vals, np.asarray(vals).reshape(-1)
        if vals.dtype.kind == "f":
            # numpy reads a list of ints past int64 beside negative ones (or
            # an empty list) as floats: take its entries as Python ints
            vals = np.array(entries, dtype=object).reshape(-1)
        vals = int_array(vals)
        den = int(den)
        if len(vals):
            keys = rows * (self.n + 1) + cols
            order = np.argsort(keys, kind="stable")
            keys, vals = keys[order], vals[order]
            first = np.concatenate(([True], keys[1:] != keys[:-1]))
            if not first.all():
                starts = first.nonzero()[0]
                # |sum of duplicates| <= max|vals| * the most entries at one
                # (row, col), bounded before the sum is taken
                most = int(np.diff(np.concatenate((starts, [len(keys)]))).max())
                dtype = int_dtype(int(np.abs(vals).max()) * most)
                vals = np.add.reduceat(vals.astype(dtype, copy=False), starts)
                keys = keys[starts]
            keep = vals != 0
            keys, vals = keys[keep], vals[keep]
            rows, cols = keys // (self.n + 1), keys % (self.n + 1)
        if den < 0:
            den, vals = -den, -vals
        if not len(vals):
            den = 1
        elif den != 1:
            g = gcd(int(np.gcd.reduce(np.abs(vals))), den)
            vals, den = vals // g, den // g
        self.rows, self.cols, self.vals, self.den = rows, cols, int_array(vals), den

    @classmethod
    def zeros(cls, m, n):
        return cls(m, n, [], [], [])

    @classmethod
    def identity(cls, n):
        return cls.unit_columns(n, range(n))

    @classmethod
    def unit_columns(cls, m, coords: Sequence[int]):
        """The m x len(coords) matrix whose j-th column is the unit vector at
        coords[j]: the inclusion of those coordinates."""
        return cls(m, len(coords), coords, range(len(coords)), np.ones(len(coords), dtype=np.int64))

    @classmethod
    def from_dense(cls, A: np.ndarray, den: int = 1):
        """The matrix A / den of a dense integer array A."""
        rows, cols = np.nonzero(A)
        return cls(A.shape[0], A.shape[1], rows, cols, A[rows, cols], den)

    @property
    def shape(self):
        return (self.m, self.n)

    @property
    def nnz(self):
        return len(self.vals)

    @property
    def row_bound(self) -> int:
        """max|vals| times the longest row: max|(self * den) @ X| is at
        most row_bound * max|X|."""
        return self._buckets()[3] if self.nnz else 0

    def apply_dense(self, X: np.ndarray, xmax: Optional[int] = None) -> np.ndarray:
        """Exact (self * den) @ X for a dense integer array X (ignore
        self.den); int64 where the bound row_bound * max|X| allows, Python
        ints otherwise.  xmax, when given, bounds max|X| in place of a scan.

        The rows are taken in buckets of equal entry count k: a bucket's
        entries form an (r, k) block, so the bucket is one gather, multiply
        and sum over its k axis (a plain gather and scale when k = 1).  A
        matrix whose every row holds one entry equal to 1 (a permutation,
        say) is one row gather X[cols], on X's dtype."""
        if not (self.nnz and X.size):
            return np.zeros((self.m,) + X.shape[1:], dtype=np.int64)
        buckets, cols, vals, row_bound, gather = self._buckets()
        if gather:
            return X[cols]
        # max|X| counted as at least 1, so that int64 never takes vals past it
        xmax = int(np.abs(X).max()) if xmax is None else xmax
        dtype = int_dtype(row_bound * max(xmax, 1))
        X = X.astype(dtype, copy=False)
        vals = vals.astype(dtype, copy=False)
        out = np.zeros((self.m,) + X.shape[1:], dtype=dtype)
        tail = (1,) * (X.ndim - 1)
        for k, rows, lo, hi in buckets:
            if k == 1:
                out[rows] = vals[lo:hi].reshape((-1,) + tail) * X[cols[lo:hi]]
            else:
                v = vals[lo:hi].reshape((-1, k) + tail)
                out[rows] = (v * X[cols[lo:hi].reshape(-1, k)]).sum(axis=1)
        return out

    def _buckets(self):
        """The row buckets of apply_dense, built once per matrix: (buckets,
        cols, vals, row_bound, gather) with cols and vals one copy of the
        entries in bucket order, each bucket (k, its rows, its slice lo:hi
        of them), and gather whether every row holds one entry equal to 1."""
        if self._bucketed is not None:
            return self._bucketed
        k_of = np.bincount(self.rows)[self.rows]  # each entry's row length
        # entries are sorted by row, so a stable sort by row length keeps
        # each bucket's rows in order and each row's entries together
        order = np.argsort(k_of, kind="stable")
        k_of, rows = k_of[order], self.rows[order]
        edges = [0] + (np.flatnonzero(np.diff(k_of)) + 1).tolist() + [self.nnz]
        buckets = [
            (int(k_of[lo]), rows[lo:hi:k_of[lo]].copy(), lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        # |row sum| <= max|vals| * longest row * max|X|
        row_bound = int(np.abs(self.vals).max()) * int(k_of[-1])
        # one entry per row, so the entries run in row order 0..m-1
        gather = self.nnz == self.m and row_bound == 1 and bool((self.vals > 0).all())
        self._bucketed = (buckets, self.cols[order], self.vals[order], row_bound, gather)
        return self._bucketed

    def column_index(self) -> Dict[int, List[Tuple[int, int]]]:
        """Column -> [(row, value)] over its nonzero entries, in row order;
        built once per matrix."""
        if self._cidx is None:
            self._cidx = {}
            for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
                self._cidx.setdefault(c, []).append((r, v))
        return self._cidx

    def apply_int(self, col: Dict[int, int]) -> Dict[int, int]:
        """Exact (self * den) @ col for a sparse integer column (ignore
        self.den), without its zero entries."""
        idx = self.column_index()
        out: Dict[int, int] = {}
        for c, cv in col.items():
            for r, v in idx.get(c, ()):
                out[r] = out.get(r, 0) + v * cv
        return {r: v for r, v in out.items() if v}

    def int_rows(self) -> np.ndarray:
        """Dense integer rows of self * den, on the dtype of its entries."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def compose(self, other: "SpMat") -> "SpMat":
        """self @ other, as a join on the inner index: other's entries are
        stored sorted by row, so each entry (r, k) of self pairs with the
        run of them at row k, and the constructor sums the products that
        share a (row, col)."""
        assert self.n == other.m, (self.shape, other.shape)
        if not (self.nnz and other.nnz):
            return SpMat.zeros(self.m, other.n)
        lo = np.searchsorted(other.rows, self.cols, side="left")
        counts = np.searchsorted(other.rows, self.cols, side="right") - lo
        i = np.repeat(np.arange(self.nnz), counts)
        # the k-th pair of self's entry e takes other's entry lo[e] + k
        j = np.arange(len(i)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        dtype = int_dtype(int(np.abs(self.vals).max()) * int(np.abs(other.vals).max()))
        vals = self.vals[i].astype(dtype, copy=False) * other.vals[j].astype(dtype, copy=False)
        return SpMat(self.m, other.n, self.rows[i], other.cols[j], vals, self.den * other.den)

    def __add__(self, other: "SpMat") -> "SpMat":
        assert self.shape == other.shape
        big = lcm(self.den, other.den)
        rows = np.concatenate([self.rows, other.rows])
        cols = np.concatenate([self.cols, other.cols])
        vals = np.concatenate([
            lincomb([(self.vals, big // self.den)]),
            lincomb([(other.vals, big // other.den)]),
        ])
        return SpMat(self.m, self.n, rows, cols, vals, big)

    def scale(self, num: int, den: int = 1) -> "SpMat":
        return SpMat(
            self.m, self.n, self.rows, self.cols, lincomb([(self.vals, num)]), self.den * den
        )

    def trace(self) -> Fraction:
        mask = self.rows == self.cols
        return Fraction(sum(self.vals[mask].tolist()), self.den)

    def is_zero(self) -> bool:
        return self.nnz == 0

    def equals(self, other: "SpMat") -> bool:
        # the constructor keeps one canonical form: sorted, no zeros, reduced
        return (self.shape, self.den) == (other.shape, other.den) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("rows", "cols", "vals"))


class ColumnBasis:
    """Incrementally maintained basis of a growing set of columns, in exact
    Fraction arithmetic: the reference that the tests compare the kernel
    engine and ModColumnBasis against.  No library code calls it.

    Stores a reduced echelon of the added columns together with, for each
    echelon row, its expression in the added columns; reduce() then writes
    any vector as (combination of added columns) + residual.
    Rows are sparse dicts; arithmetic is exact (ints and Fractions).
    """

    __slots__ = ("dim", "rows", "pivots", "ncols")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: List[Tuple[int, Dict[int, int], Dict[int, Fraction]]] = []
        # each entry: (pivot, sparse int row, expression over column indices)
        self.pivots: Dict[int, int] = {}  # pivot coordinate -> row index
        self.ncols = 0

    def reduce(self, vec: Dict[int, Fraction]):
        """Return (residual sparse dict, combo dict over added columns)."""
        r = {j: v for j, v in vec.items() if v}
        combo: Dict[int, Fraction] = {}
        # add() keeps every row zero at every other row's pivot, so clearing
        # one pivot leaves the others as they were: one pass clears them all
        for coord in [c for c in r if c in self.pivots]:
            piv, row, expr = self.rows[self.pivots[coord]]
            coeff = Fraction(r[coord], row[piv])
            for j, v in row.items():
                nv = r.get(j, Fraction(0)) - coeff * v
                if nv:
                    r[j] = nv
                elif j in r:
                    del r[j]
            for j, v in expr.items():
                nv = combo.get(j, Fraction(0)) + coeff * v
                if nv:
                    combo[j] = nv
                elif j in combo:
                    del combo[j]
        return r, combo

    def add(self, vec: Dict[int, Fraction]):
        """Add a column.  Returns (index, None) if independent (appended),
        or (None, combo) expressing it over previously added columns."""
        residual, combo = self.reduce(vec)
        if not residual:
            return None, combo
        idx = self.ncols
        self.ncols += 1
        # choose pivot: smallest-magnitude entry for stability
        piv = min(residual, key=lambda c: (abs(residual[c]) != 1, abs(residual[c]), c))
        den = lcm(*(v.denominator for v in residual.values()))
        int_row = {j: int(v * den) for j, v in residual.items()}
        # expression: residual = den_scaled; vec = sum combo * cols + residual
        # so residual(row/den) = vec - sum combo*cols -> row = den*(e_idx - combo)
        expr: Dict[int, Fraction] = {idx: Fraction(den)}
        for j, v in combo.items():
            expr[j] = -Fraction(den) * v
        # back-eliminate the new pivot from existing rows to keep rref-like form
        for k, (p, row, ex) in enumerate(self.rows):
            if piv in row and row[piv]:
                coeff = Fraction(row[piv], int_row[piv])
                newrow: Dict[int, Fraction] = {
                    j: Fraction(v) for j, v in row.items()
                }
                for j, v in int_row.items():
                    nv = newrow.get(j, Fraction(0)) - coeff * v
                    if nv:
                        newrow[j] = nv
                    elif j in newrow:
                        del newrow[j]
                newex: Dict[int, Fraction] = dict(ex)
                for j, v in expr.items():
                    nv = newex.get(j, Fraction(0)) - coeff * v
                    if nv:
                        newex[j] = nv
                    elif j in newex:
                        del newex[j]
                d = lcm(*(v.denominator for v in newrow.values()))
                self.rows[k] = (
                    p,
                    {j: int(v * d) for j, v in newrow.items()},
                    {j: v * d for j, v in newex.items()},
                )
        self.rows.append((piv, int_row, expr))
        self.pivots[piv] = len(self.rows) - 1
        return idx, None


class ModColumnBasis:
    """ColumnBasis over GF(p): the same incrementally maintained reduced
    echelon form, on residues in [0, p) (Python ints), each row scaled to 1
    at its pivot.  holders[c] holds every row that is nonzero at the
    coordinate c (and perhaps some that are zero there again), so that a
    new pivot is cleared from those rows alone.  With expressions, exprs
    holds each row's expression over the added columns, by index."""

    __slots__ = ("p", "rows", "pivots", "holders", "exprs")

    def __init__(self, p: int, expressions: bool = False):
        self.p = p
        self.rows: List[Dict[int, int]] = []  # one sparse row per added column
        self.pivots: Dict[int, int] = {}  # pivot coordinate -> row index
        self.holders: Dict[int, set] = defaultdict(set)  # coordinate -> rows
        self.exprs: Optional[List[Dict[int, int]]] = [] if expressions else None

    def add(self, vec: Dict[int, int]) -> Optional[int]:
        """Add a column of residues: its index if it is independent mod p
        of the columns added before (appended), else None."""
        p, rows, exprs, holders = self.p, self.rows, self.exprs, self.holders
        idx = len(rows)
        r = dict(vec)
        # every row is zero at every other row's pivot: one pass clears them
        steps = [(self.pivots[c], p - r[c]) for c in r if c in self.pivots]
        for k, f in steps:
            _axpy(r, f, rows[k], p)
        if not r:
            return None
        piv = min(r)
        inv = pow(r[piv], -1, p)
        row = {j: v * inv % p for j, v in r.items()}
        e = None
        if exprs is not None:
            # the expression of a column kept, from the same steps
            e = {idx: 1}
            for k, f in steps:
                _axpy(e, f, exprs[k], p)
            e = {j: v * inv % p for j, v in e.items()}
        for k in holders.get(piv, ()):
            f = rows[k].get(piv)
            if f:
                _axpy(rows[k], p - f, row, p, holders, k)
                if e is not None:
                    _axpy(exprs[k], p - f, e, p)
        for j in row:
            holders[j].add(idx)
        holders[piv] = {idx}
        rows.append(row)
        self.pivots[piv] = idx
        if e is not None:
            exprs.append(e)
        return idx


def _axpy(y: Dict[int, int], a: int, x: Dict[int, int], p: int,
          holders: Optional[Dict[int, set]] = None, row: int = 0) -> None:
    """y += a * x mod p in place, for sparse residue vectors and a unit a;
    with holders, y is the row of that index, entered in holders at every
    coordinate it newly holds."""
    for j, v in x.items():
        if j in y:
            nv = (y[j] + a * v) % p
            if nv:
                y[j] = nv
            else:
                del y[j]
        else:
            # a and v are units mod p
            y[j] = a * v % p
            if holders is not None:
                holders[j].add(row)
