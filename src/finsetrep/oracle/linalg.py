"""Exact dense linear algebra over the rationals.

The workhorses are fraction-free integer echelon reduction and an
incrementally maintained column basis (reduced echelon with expansion
bookkeeping).  On top of them sit rank and a linear solve for many
right-hand sides at once.  The right kernel is computed modulo word primes
(vectorized int64 elimination), lifted by rational reconstruction and CRT,
and returned only after an exact check that certifies it; imatmul takes
exact integer matrix products on float64 BLAS under an a-priori bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


Row = List[int]


def _to_int_rows(rows: Sequence[Sequence]) -> List[Row]:
    """Fresh integer rows, each a positive multiple of the given row."""
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row if isinstance(x, Fraction)])
        if den == 1:
            out.append(list(map(int, row)))
        else:
            out.append([
                x.numerator * (den // x.denominator) if isinstance(x, Fraction) else int(x) * den
                for x in row
            ])
    return out


def _row_gcd_reduce(row: Row) -> Row:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def echelon(rows: Sequence[Sequence]):
    """Integer echelon form by fraction-free elimination.

    Returns (ech, pivots): integer rows in echelon form (zero rows dropped,
    each gcd-reduced) and their pivot column indices.
    """
    work = _to_int_rows(rows)
    ncols = len(work[0]) if work else 0
    ech: List[Row] = []
    pivots: List[int] = []
    col = 0
    while work and col < ncols:
        best = None
        for i, r in enumerate(work):
            if r[col]:
                if best is None or abs(r[col]) < abs(work[best][col]):
                    best = i
                    if abs(r[col]) == 1:
                        break
        if best is None:
            col += 1
            continue
        piv_row = _row_gcd_reduce(work.pop(best))
        p = piv_row[col]
        new_work = []
        for r in work:
            if r[col]:
                q = r[col]
                nr = _row_gcd_reduce([p * a - q * b for a, b in zip(r, piv_row)])
                if any(nr):
                    new_work.append(nr)
            elif any(r):
                new_work.append(r)
        work = new_work
        ech.append(piv_row)
        pivots.append(col)
        col += 1
    return ech, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon(rows)[0])


def _back_substitute(ech: List[Row], pivots: List[int], ncols: int, free: int):
    """The x with ech x = 0, x[free] = 1 and every other non-pivot
    coordinate 0, as (y, d): integers y and d > 0 with x = y / d."""
    y = [0] * ncols
    y[free] = d = 1
    for row, pc in zip(reversed(ech), reversed(pivots)):
        s = sum(a * b for a, b in zip(row[pc + 1 :], y[pc + 1 :]) if b)
        if s:
            r = row[pc]
            g = gcd(s, r)
            m = abs(r) // g
            if m != 1:
                y = [v * m for v in y]
                d *= m
            y[pc] = -(s // g) if r > 0 else s // g
    return y, d


def kernel_basis(rows: Sequence[Sequence], ncols: Optional[int] = None) -> List[Row]:
    """Basis of the right kernel {x : M x = 0}, as primitive integer vectors.

    The basis is the one read off the reduced echelon form of M over the
    rationals: one vector per non-pivot column f, positive at f and zero at
    every other non-pivot column.  It is computed mod word primes, lifted by
    rational reconstruction (over more primes by CRT when that fails) and
    returned only once the exact product M K is zero.

    That check makes the answer exact.  A prime's rank is at most the rank
    over Q, so its n - rank non-pivot columns bound the kernel dimension
    from above; the lifted vectors are independent (each is 1 at its own
    non-pivot column, 0 at the others), so, once all lie in the kernel, the
    prime's rank is the true rank.  Each vector is also zero at every pivot
    column right of its own f, so every non-pivot column of M lies in the
    span of the pivot columns left of it: the prime's pivots are those over
    Q, and the vectors are the basis above.  A prime whose rank or pivots
    differ from Q's fails the check, and the next one is taken.
    """
    if ncols is None:
        ncols = len(rows[0]) if len(rows) else 0
    if ncols == 0:
        return []
    M = _int_array(rows, ncols)
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
            return K.T.tolist()
    raise ArithmeticError("kernel_basis ran out of word primes")


# Float64 holds every integer of magnitude below 2**53 exactly.
FLOAT_EXACT_BOUND = 1 << 53


def imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of two integer arrays (int64 or object dtype).

    It runs on float64 BLAS when max|A| * max|B| * inner < 2**53: every
    product and every partial sum, in any order, is then an integer below
    2**53, which float64 holds exactly.  Otherwise it runs on Python ints.
    """
    amax = int(np.abs(A).max(initial=0))
    bmax = int(np.abs(B).max(initial=0))
    if amax == 0 or bmax == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if amax * bmax * A.shape[1] < FLOAT_EXACT_BOUND:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    return A.astype(object) @ B.astype(object)


def _int_array(rows: Sequence[Sequence], ncols: int) -> np.ndarray:
    """The rows cleared to integers, as an int64 array when they fit.  An
    int64 array is taken as it is."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
        return rows.reshape(-1, ncols)
    int_rows = _to_int_rows(rows)
    try:
        return np.array(int_rows, dtype=np.int64).reshape(len(int_rows), ncols)
    except OverflowError:
        return np.array(int_rows, dtype=object).reshape(len(int_rows), ncols)


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
    """The moduli of kernel_basis: the primes below 2**31, largest first.
    Below 2**31 every product of two residues fits in int64."""
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
        # residues times D stay below m * D, which int64 holds below 2**62
        dtype = np.int64 if m * D < 1 << 62 else object
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


def solve(rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]) -> List[List[Fraction]]:
    """One exact solution x of M x = b for every column b, with M given by
    its rows (at least one), from one echelon of [M | B].  The free
    unknowns are set to 0.  Raises ValueError if any b is outside M's
    column span."""
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(rows)]
    ech, pivots = echelon(aug)
    if pivots and pivots[-1] >= n:
        raise ValueError("inconsistent system")
    out = []
    for c in range(len(rhs_columns)):
        # x with M x + b = 0 is the kernel vector of [M | B] that is 1 at b
        y, d = _back_substitute(ech, pivots, n + len(rhs_columns), n + c)
        out.append([Fraction(-v, d) for v in y[:n]])
    return out


class ColumnBasis:
    """Incrementally maintained basis of a growing set of columns.

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

    def expand(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Expansion of a vector known to lie in the span; raises otherwise."""
        residual, combo = self.reduce(vec)
        if residual:
            raise ValueError("vector outside span")
        return combo


def sparse_from_dense(vec, den: int = 1) -> Dict[int, Fraction]:
    return {i: Fraction(int(v), den) for i, v in enumerate(vec) if v}
