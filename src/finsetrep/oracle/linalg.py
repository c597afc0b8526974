"""Exact dense linear algebra over the rationals.

Every matrix in and out is an integer array, int64 or Python ints
(object dtype); a rational matrix is an integer one over a denominator
that the caller keeps.  One engine answers every exact question about a
matrix: its right kernel is computed modulo word primes (vectorized int64
elimination), lifted by rational reconstruction and CRT, and returned with
its pivot columns only after an exact check that certifies both.  Rank,
the choice of independent columns and the integer inverse of a subspace's
independent rows (row_inverse, from which every expansion, residual
projection and coordinate read-out of the oracle is taken) come off it.
One a-priori bound (int_dtype) decides where integer arrays, SpMat's
entries included, run on int64 and where on Python ints; imatmul takes
exact integer matrix products on float64 BLAS under a bound of its own.
Both bounds rest on max|arr| of the operands: lincomb and imatmul (and
SpMat.apply_dense) scan an array for it unless the caller passes it in,
and a value passed in must be an upper bound on the true max|arr|, fixed
before the operation it guards.  ModColumnBasis, an incrementally
maintained column basis mod a word prime, picks the span pass's basis:
columns independent mod p are independent over Q, so as many of them as
the dimension are a basis over Q.  ColumnBasis is its exact Fraction
counterpart: the tests' reference, with no library caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def pivot_columns(M: np.ndarray) -> List[int]:
    """The pivot columns of the reduced echelon form of the integer array
    M over the rationals: the first columns, left to right, independent of
    those before them."""
    return _kernel(M)[0]


def rank(M: np.ndarray) -> int:
    return len(pivot_columns(M))


def kernel_basis(M: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {x : M x = 0} of the integer array M, as
    the rows of an integer array, each a primitive vector.

    The basis is the one read off the reduced echelon form of M over the
    rationals: one vector per non-pivot column f, positive at f and zero at
    every other non-pivot column.  A lift over several primes comes back on
    int64 when its entries allow it."""
    return int_array(_kernel(M)[1]).T


def row_inverse(S: np.ndarray) -> Tuple[List[int], np.ndarray, int]:
    """(I, Q, D) for an integer array S of full column rank k: I the first
    k rows, top to bottom, independent of those above them (the pivot
    columns of S^T), and the integer matrix Q = D * S[I]^-1 with the least
    D > 0.  Then E(v) = Q v[I] / D expands a vector v of S's column span
    over S's columns.  Raises ValueError if S's columns are dependent."""
    n, k = S.shape
    if k == 0:
        return [], np.zeros((0, 0), dtype=np.int64), 1
    # [S^T | Id] has the pivots I when S has full column rank; the kernel
    # vector of its column n + c is d_c at n + c and -(d_c / D) Q^T e_c at I
    pivots, K = _kernel(np.hstack([S.T, np.eye(k, dtype=S.dtype)]))
    if pivots[-1] >= n:
        raise ValueError("the columns are dependent")
    d = [int(x) for x in K[n:, -k:].diagonal()]
    D = lcm(*d)
    scale = [D // x for x in d]
    X = K[pivots, -k:]
    dtype = int_dtype(int(np.abs(X).max()) * max(scale))
    return pivots, -(X.astype(dtype) * np.array(scale, dtype=dtype)).T, D


def _kernel(M: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """(pivots, K) for the integer matrix M: its pivot columns over Q and
    its kernel basis as the columns of K.  They are computed mod word
    primes, lifted by rational reconstruction (over more primes by CRT when
    that fails) and returned only once the exact product M K is zero.

    That check makes the answer exact.  A prime's rank is at most the rank
    over Q, so its n - rank non-pivot columns bound the kernel dimension
    from above; the lifted vectors are independent (each is nonzero at its
    own non-pivot column, 0 at the others), so, once all lie in the kernel,
    the prime's rank is the true rank.  Each vector is also zero at every
    pivot column right of its own f, so every non-pivot column of M lies in
    the span of the pivot columns left of it: the prime's pivots are those
    over Q, and the vectors are the basis above.  A prime whose rank or
    pivots differ from Q's fails the check, and the next one is taken.
    """
    ncols = M.shape[1]
    best = None  # (pivots, residues at the pivot rows, modulus)
    for p in _primes():
        R, pivots = _rref_mod((M % p).astype(np.int64), p)
        residues = -R[:, _non_pivots(pivots, ncols)] % p
        if best is not None and best[0] == pivots:
            best = (pivots, _crt(best[1], best[2], residues, p), best[2] * p)
        else:
            # other pivots than the primes before: one side is unlucky, and
            # the check rejects an unlucky prime, so start over from this one
            best = (pivots, residues, p)
        K = _lift(*best, ncols)
        if K is not None and not imatmul(M, K).any():
            return pivots, K
    raise ArithmeticError("the modular kernel ran out of word primes")


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
        # a unit scale adds in place, with no temporary (the Gram sums)
        out += arr if sc == 1 else arr * sc
    return out


# Float64 holds every integer of magnitude below 2**53 exactly.
FLOAT_EXACT_BOUND = 1 << 53


def imatmul(
    A: np.ndarray, B: np.ndarray, amax: Optional[int] = None, bmax: Optional[int] = None
) -> np.ndarray:
    """Exact product of two integer arrays (int64 or object dtype).

    It runs on float64 BLAS when max|A| * max|B| * inner < 2**53: every
    product and every partial sum, in any order, is then an integer below
    2**53, which float64 holds exactly.  Otherwise it runs on Python ints.
    amax and bmax, when given, bound max|A| and max|B| in place of a scan.
    """
    amax = int(np.abs(A).max(initial=0)) if amax is None else amax
    bmax = int(np.abs(B).max(initial=0)) if bmax is None else bmax
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
    """The moduli of kernel_basis and the span pass: the primes below
    2**31, largest first.  Below 2**31 every product of two residues fits
    in int64."""
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


def _non_pivots(pivots: List[int], ncols: int) -> List[int]:
    pivot_set = set(pivots)
    return [j for j in range(ncols) if j not in pivot_set]


def _crt(a: np.ndarray, m: int, b: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m * p that are a mod m and b mod p."""
    a = a.astype(object)
    return a + m * ((b.astype(object) - a) % p * pow(m, -1, p) % p)


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


def _lift(pivots: List[int], residues: np.ndarray, m: int, ncols: int) -> Optional[np.ndarray]:
    """The primitive integer kernel basis, as columns, whose entries at the
    pivot rows are rationals with the given residues mod m; None when no
    common denominator D <= sqrt(m/2) makes every entry times D a
    symmetric residue of magnitude <= sqrt(m/2).  D grows by the
    denominators that reconstruction finds."""
    bound = isqrt(m // 2)
    D = 1
    while True:
        # residues times D stay below m * D
        dtype = int_dtype(m * D)
        b = residues.astype(dtype) * D % m
        b[2 * b > m] -= m
        large = np.flatnonzero(np.abs(b) > bound)
        if not large.size:
            break
        frac = _ratrecon(int(b.flat[large[0]]), m)
        if frac is None or D * frac[1] > bound:
            return None
        D *= frac[1]
    nfree = residues.shape[1]
    K = np.zeros((ncols, nfree), dtype=dtype)
    K[pivots] = b
    K[_non_pivots(pivots, ncols), np.arange(nfree)] = D
    return K // np.gcd.reduce(K, axis=0)


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

    def __len__(self) -> int:
        return len(self.rows)

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
    """ColumnBasis over GF(p), without expressions: the same incrementally
    maintained reduced echelon form, on residues in [0, p) (Python ints),
    each row scaled to 1 at its pivot."""

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.rows: List[Dict[int, int]] = []  # one sparse row per added column
        self.pivots: Dict[int, int] = {}  # pivot coordinate -> row index

    def add(self, vec: Dict[int, int]) -> Optional[int]:
        """Add a column of residues: its index if it is independent mod p
        of the columns added before (appended), else None."""
        p = self.p
        r = dict(vec)
        # every row is zero at every other row's pivot: one pass clears them
        for coord in [c for c in r if c in self.pivots]:
            _axpy(r, -r[coord], self.rows[self.pivots[coord]], p)
        if not r:
            return None
        idx = len(self.rows)
        piv = min(r)
        inv = pow(r[piv], -1, p)
        row = {j: v * inv % p for j, v in r.items()}
        for krow in self.rows:
            f = krow.get(piv)
            if f:
                _axpy(krow, -f, row, p)
        self.rows.append(row)
        self.pivots[piv] = idx
        return idx


def _axpy(y: Dict[int, int], a: int, x: Dict[int, int], p: int) -> None:
    """y += a * x mod p in place, for sparse residue vectors."""
    for j, v in x.items():
        nv = (y.get(j, 0) + a * v) % p
        if nv:
            y[j] = nv
        else:
            y.pop(j, None)

