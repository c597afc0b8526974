"""Exact dense linear algebra over the rationals.

The workhorses are fraction-free integer echelon reduction and an
incrementally maintained column basis (reduced echelon with expansion
bookkeeping).  On top of them sit rank, right kernel and a linear solve
for many right-hand sides at once; the kernel and the solve share one
fraction-free back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple


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
    """Basis of the right kernel {x : M x = 0}, as primitive integer vectors."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    ech, pivots = echelon(rows)
    pivot_set = set(pivots)
    return [
        _row_gcd_reduce(_back_substitute(ech, pivots, ncols, f)[0])
        for f in range(ncols)
        if f not in pivot_set
    ]


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
