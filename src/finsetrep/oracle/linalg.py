"""Exact dense linear algebra over the rationals.

The workhorses are fraction-free integer echelon reduction and an
incrementally maintained column basis (reduced echelon with expansion
bookkeeping).  On top of them sit rank, right-kernel, and linear-solve
primitives, plus the RationalMatrix wrapper used in verification reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple


Row = List[int]


def _to_int_rows(rows: Sequence[Sequence]) -> List[Row]:
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        out.append([int(x * den) for x in row])
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
    work = [list(r) for r in _to_int_rows(rows)]
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
    if not rows:
        return 0
    return len(echelon(rows)[0])


def kernel_basis(rows: Sequence[Sequence], ncols: Optional[int] = None) -> List[Row]:
    """Basis of the right kernel {x : M x = 0}, as integer vectors."""
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    ech, pivots = echelon(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in range(len(ech) - 1, -1, -1):
            row, pc = ech[i], pivots[i]
            s = sum(row[j] * x[j] for j in range(pc + 1, ncols) if x[j])
            x[pc] = -Fraction(s, row[pc])
        den = lcm(*(v.denominator for v in x))
        basis.append(_row_gcd_reduce([int(v * den) for v in x]))
    return basis


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
        r = dict(vec)
        combo: Dict[int, Fraction] = {}
        # repeatedly clear coordinates that are pivots
        changed = True
        while changed:
            changed = False
            for coord in list(r.keys()):
                val = r.get(coord)
                if val is None:
                    continue
                if not val:
                    del r[coord]
                    continue
                ridx = self.pivots.get(coord)
                if ridx is None:
                    continue
                piv, row, expr = self.rows[ridx]
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
                changed = True
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


class RationalMatrix:
    """Dense exact-rational matrix with rank and solve primitives."""

    def __init__(self, rows: Sequence[Sequence]):
        self.data = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "RationalMatrix":
        if not cols:
            return cls([])
        return cls([[col[i] for col in cols] for i in range(len(cols[0]))])

    def rank(self) -> int:
        return rank(self.data)

    def solve(self, rhs: Sequence) -> List[Fraction]:
        """One exact solution of self @ x = rhs, or ValueError."""
        aug = [list(row) + [rhs[i]] for i, row in enumerate(self.data)]
        ech, pivots = echelon(aug)
        n = self.ncols
        if n in pivots:
            raise ValueError("inconsistent system")
        x = [Fraction(0)] * n
        for i in range(len(ech) - 1, -1, -1):
            row, pc = ech[i], pivots[i]
            s = sum(row[j] * x[j] for j in range(pc + 1, n) if x[j])
            x[pc] = Fraction(row[n] - s, row[pc])
        return x
