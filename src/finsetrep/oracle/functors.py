"""Explicit matrix realizations of modules over the finite-set category.

A TruncatedFunctor stores dimensions and generator-action matrices on all
set sizes <= N.  The category is presented by the adjacent transpositions
within each automorphism group, the order-preserving inclusion t -> t+1,
and the surjection t+1 -> t folding the top two points; every map between
skeleton objects factors as a word in these, so naturality need only be
imposed on generators (with exhaustive small-size functoriality checks as
a safety net).

Matrices are exact sparse integer matrices with one denominator (SpMat).
Vectors of a value F(t), and blocks of them, are dense integer arrays: a
rational one is an integer array x with a denominator den, standing for
x / den.  apply_dense multiplies them through a matrix: it groups the
matrix's rows by entry count once and then runs each group as one
vectorized gather, multiply and sum.  Quotients and subfunctors are
induced by sparse products: the linalg.row_inverse (I, Q, D) of the
subspace's independent columns S at each size gives the expansion map
E_t(v) = Q v[I] / D onto its basis and the residual projection
pi_t(v) = v[free] - S[free] E_t(v) along it onto the rows outside I,
each one SpMat, so that a move m: s -> t induces pi_t m on the quotient
and E_t m Sub_s on the subfunctor, and pi_t m Sub_s = 0 certifies that
the subspace is stable.

Set elements are 0-indexed: the object of size t is {0, .., t-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import ClassFunction, IrrDecomposition, character_table, decompose
from . import linalg

MAX_ABS_GUARD = 1 << 55


class OracleError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Sparse exact matrices


class SpMat:
    """Sparse integer matrix with one global denominator."""

    __slots__ = ("m", "n", "rows", "cols", "vals", "den", "_cidx", "_bucketed")

    def __init__(self, m, n, rows, cols, vals, den=1):
        self._cidx = self._bucketed = None
        self.m, self.n = int(m), int(n)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        vals = np.asarray(vals).reshape(-1)
        if len(vals) and np.abs(vals).max() > MAX_ABS_GUARD:
            raise OracleError("integer magnitude guard tripped")
        vals = vals.astype(np.int64, copy=False)
        if len(vals):
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            keys = rows * (self.n + 1) + cols
            uniq, idx = np.unique(keys, return_index=True)
            sums = np.add.reduceat(vals, idx)
            keep = sums != 0
            rows = (uniq // (self.n + 1))[keep]
            cols = (uniq % (self.n + 1))[keep]
            vals = sums[keep]
        self.rows, self.cols, self.vals = rows, cols, vals
        self.den = int(den)
        self._normalize()

    def _normalize(self):
        if self.den < 0:
            self.den = -self.den
            self.vals = -self.vals
        if self.den != 1:
            if not len(self.vals):
                self.den = 1
                return
            g = int(np.gcd.reduce(np.abs(self.vals)))
            g = gcd(g, self.den)
            if g > 1:
                self.vals = self.vals // g
                self.den //= g

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
        """The matrix A / den of a dense integer array A.  A and den are
        divided by their gcd first, so that the magnitude guard sees the
        reduced entries."""
        rows, cols = np.nonzero(A)
        vals = A[rows, cols]
        g = gcd(den, *vals.tolist())
        return cls(A.shape[0], A.shape[1], rows, cols, vals // g, den // g)

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
        and sum over its k axis (a plain gather and scale when k = 1)."""
        if not (self.nnz and X.size):
            return np.zeros((self.m,) + X.shape[1:], dtype=np.int64)
        buckets, cols, vals, row_bound = self._buckets()
        dtype = linalg.int_dtype(row_bound * (int(np.abs(X).max()) if xmax is None else xmax))
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
        cols, vals, row_bound) with cols and vals one copy of the entries in
        bucket order and each bucket (k, its rows, its slice lo:hi of them)."""
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
        self._bucketed = (buckets, self.cols[order], self.vals[order], row_bound)
        return self._bucketed

    def _colindex(self) -> Dict[int, List[Tuple[int, int]]]:
        """Column -> [(row, value)], built once per matrix."""
        if self._cidx is None:
            self._cidx = {}
            for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
                self._cidx.setdefault(c, []).append((r, v))
        return self._cidx

    def apply_int(self, col: Dict[int, int]) -> Dict[int, int]:
        """Exact (self * den) @ col for a sparse integer column (ignore
        self.den), without its zero entries."""
        idx = self._colindex()
        out: Dict[int, int] = {}
        for c, cv in col.items():
            for r, v in idx.get(c, ()):
                out[r] = out.get(r, 0) + v * cv
        return {r: v for r, v in out.items() if v}

    def int_rows(self) -> np.ndarray:
        """Dense integer rows of self * den, as an int64 array."""
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def compose(self, other: "SpMat") -> "SpMat":
        assert self.n == other.m, (self.shape, other.shape)
        self_cols = self._colindex()
        acc: Dict[Tuple[int, int], int] = {}
        for r, c, v in zip(other.rows.tolist(), other.cols.tolist(), other.vals.tolist()):
            for rr, vv in self_cols.get(r, ()):
                key = (rr, c)
                acc[key] = acc.get(key, 0) + vv * v
        rows = [k[0] for k, v in acc.items() if v]
        cols = [k[1] for k, v in acc.items() if v]
        vals = [v for v in acc.values() if v]
        # reduced by their gcd first, as in from_dense, so that the
        # magnitude guard sees the reduced entries
        den = self.den * other.den
        g = gcd(den, *vals)
        return SpMat(self.m, other.n, rows, cols, [v // g for v in vals], den // g)

    def __add__(self, other: "SpMat") -> "SpMat":
        assert self.shape == other.shape
        big = lcm(self.den, other.den)
        rows = np.concatenate([self.rows, other.rows])
        cols = np.concatenate([self.cols, other.cols])
        vals = np.concatenate([
            linalg.lincomb([(self.vals, big // self.den)]),
            linalg.lincomb([(other.vals, big // other.den)]),
        ])
        return SpMat(self.m, self.n, rows, cols, vals, big)

    def scale(self, num: int, den: int = 1) -> "SpMat":
        return SpMat(
            self.m, self.n, self.rows, self.cols, linalg.lincomb([(self.vals, num)]), self.den * den
        )

    def trace(self) -> Fraction:
        mask = self.rows == self.cols
        return Fraction(int(self.vals[mask].sum()), self.den)

    def is_zero(self) -> bool:
        return self.nnz == 0

    def equals(self, other: "SpMat") -> bool:
        return (self + other.scale(-1)).is_zero()


# ---------------------------------------------------------------------------
# Generator words and map factorization


def perm_word(g: Tuple[int, ...]) -> List[int]:
    """Adjacent-transposition word for g (as an image tuple on 0..n-1).

    Returns w with g = s_{w[0]} o ... o s_{w[-1]} (rightmost applied
    first), where s_i swaps i-1 and i (1-indexed label)."""
    arr = list(g)
    n = len(arr)
    swaps: List[int] = []
    for _ in range(n):
        done = True
        for j in range(n - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                swaps.append(j + 1)
                done = False
        if done:
            break
    return swaps[::-1]


def _transport_perm(t: int, a: int, b: int) -> Tuple[int, ...]:
    p = list(range(t))
    p[a], p[b] = p[b], p[a]
    return tuple(p)


def _transport_pair_perm(s: int, x: int, y: int) -> Tuple[int, ...]:
    rest = [i for i in range(s) if i not in (x, y)]
    p = [0] * s
    for pos, i in enumerate(rest):
        p[i] = pos
    p[x], p[y] = s - 2, s - 1
    return tuple(p)


@lru_cache(maxsize=65536)
def factor_map(f: Tuple[int, ...], s: int, t: int) -> Tuple[Tuple, ...]:
    """Factor a set map f: s -> t into generator steps, first step first."""
    if s == t and sorted(f) == list(range(t)):
        return tuple(("tau", t, i) for i in reversed(perm_word(f)))
    image = set(f)
    if len(image) < t:
        missing = next(c for c in range(t - 1, -1, -1) if c not in image)
        p = _transport_perm(t, missing, t - 1)
        pf = tuple(p[x] for x in f)
        inner = factor_map(pf, s, t - 1)
        return inner + (("inc", t - 1),) + tuple(
            ("tau", t, i) for i in reversed(perm_word(p))
        )
    # surjective with s > t: merge a doubled pair through the fold
    seen: Dict[int, int] = {}
    x = y = -1
    for i, v in enumerate(f):
        if v in seen:
            x, y = seen[v], i
            break
        seen[v] = i
    rho = _transport_pair_perm(s, x, y)
    rho_inv = tuple(rho.index(i) for i in range(s))
    f2 = tuple(f[rho_inv[i]] for i in range(s - 1))
    inner = factor_map(f2, s - 1, t)
    return tuple(("tau", s, i) for i in reversed(perm_word(rho))) + (
        ("fold", s - 1),
    ) + inner


def _tau_map(t: int, i: int) -> Tuple[int, ...]:
    g = list(range(t))
    g[i - 1], g[i] = g[i], g[i - 1]
    return tuple(g)


def _inc_map(t: int) -> Tuple[int, ...]:
    return tuple(range(t))


def _fold_map(t: int) -> Tuple[int, ...]:
    """The fold t+1 -> t sending t to t-1."""
    return tuple(list(range(t)) + [t - 1])


# ---------------------------------------------------------------------------
# Truncated functors


GenKey = Tuple


@dataclass
class TruncatedFunctor:
    """A module over the finite-set category realized on sizes 0..N."""

    N: int
    dims: List[int]
    act: Dict[GenKey, SpMat]
    generators: List[Tuple[int, np.ndarray]]
    name: str = "F"
    outer_n: int = 0
    outer_act: Dict[Tuple[int, int], SpMat] = field(default_factory=dict)
    span_cache: Optional[object] = None

    def dim(self, t: int) -> int:
        return self.dims[t]

    def gen_keys(self) -> List[GenKey]:
        keys: List[GenKey] = [("inc", t) for t in range(self.N)]
        keys += [("fold", t) for t in range(1, self.N)]
        for t in range(2, self.N + 1):
            keys += [("tau", t, i) for i in range(1, t)]
        return keys

    @staticmethod
    def gen_src_dst(key: GenKey) -> Tuple[int, int]:
        if key[0] == "inc":
            return key[1], key[1] + 1
        if key[0] == "fold":
            return key[1] + 1, key[1]
        return key[1], key[1]

    def perm_matrix(self, g: Tuple[int, ...], t: int) -> SpMat:
        return self._word_product(g, t, lambda i: self.act[("tau", t, i)])

    def outer_matrix(self, g: Tuple[int, ...], t: int) -> SpMat:
        return self._word_product(g, t, lambda i: self.outer_act[(i, t)])

    def _word_product(self, g: Tuple[int, ...], t: int, transposition) -> SpMat:
        """Product along g's adjacent-transposition word of the matrices
        transposition(i) acting at size t."""
        mat = SpMat.identity(self.dims[t])
        for i in perm_word(g):
            mat = transposition(i).compose(mat)
        return mat

    def check_functoriality(self, max_size: int = 4) -> None:
        top = min(max_size, self.N)
        memo: Dict[Tuple, SpMat] = {}

        def mat(f: Tuple[int, ...], s: int, t: int) -> SpMat:
            if (f, s, t) not in memo:
                memo[(f, s, t)] = map_matrix(self, f, s, t)
            return memo[(f, s, t)]

        for s in range(top + 1):
            for u in range(top + 1):
                for h in _all_maps(s, u):
                    Fh = mat(h, s, u)
                    for t in range(top + 1):
                        for g in _all_maps(u, t):
                            comp = tuple(g[h[i]] for i in range(s))
                            lhs = mat(comp, s, t)
                            rhs = mat(g, u, t).compose(Fh)
                            if not lhs.equals(rhs):
                                raise OracleError(
                                    f"{self.name}: functoriality fails at "
                                    f"{h}: {s}->{u}, {g}: {u}->{t}"
                                )


@lru_cache(maxsize=None)
def _all_maps(s: int, t: int) -> Tuple[Tuple[int, ...], ...]:
    if s == 0:
        return ((),)
    return tuple(itertools.product(range(t), repeat=s))


def map_matrix(F: TruncatedFunctor, f: Tuple[int, ...], s: int, t: int) -> SpMat:
    """Matrix of F on an arbitrary set map f: s -> t (image tuple)."""
    if s > F.N or t > F.N:
        raise OracleError("map exceeds truncation")
    mat = SpMat.identity(F.dims[s])
    for step in factor_map(tuple(f), s, t):
        mat = F.act[(step[0],) + tuple(step[1:])].compose(mat)
    return mat


# ---------------------------------------------------------------------------
# Basic builders


def _check_truncation(N: int) -> None:
    if N < 2:
        raise OracleError("truncation below 2 leaves nothing to check")


Terms = List[Tuple[Tuple[int, ...], int]]


def _functor_from_action(
    N: int,
    bases: List[List[Tuple[int, ...]]],
    action: Callable[[Tuple[int, ...], Tuple[int, ...]], Terms],
    gen: Optional[Tuple[int, Tuple[int, ...]]],
    name: str,
    outer_n: int = 0,
) -> TruncatedFunctor:
    """The functor with basis bases[t] at size t, on which a set map g
    sends the basis tuple tup to the signed tuples action(g, tup); tuples
    outside the target basis count as zero.  With outer_n > 0 the basis
    tuples are tensor positions, permuted by the outer transpositions.
    gen is the generating basis tuple with its size, if any."""
    index = [{tup: i for i, tup in enumerate(basis)} for basis in bases]
    dims = [len(basis) for basis in bases]

    def matrix(s: int, t: int, images: Callable[[Tuple[int, ...]], Terms]) -> SpMat:
        rows, cols, vals = [], [], []
        for j, tup in enumerate(bases[s]):
            for img, sign in images(tup):
                i = index[t].get(img)
                if i is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(sign)
        return SpMat(dims[t], dims[s], rows, cols, vals)

    F = TruncatedFunctor(N, dims, {}, [], name=name, outer_n=outer_n)
    gen_maps = {"inc": _inc_map, "fold": _fold_map, "tau": _tau_map}
    for key in F.gen_keys():
        g = gen_maps[key[0]](*key[1:])
        F.act[key] = matrix(*F.gen_src_dst(key), lambda tup: action(g, tup))
    for i in range(1, outer_n):
        for t in range(N + 1):
            F.outer_act[(i, t)] = matrix(
                t, t, lambda tup: [(tup[: i - 1] + (tup[i], tup[i - 1]) + tup[i + 1 :], 1)]
            )
    if gen is not None:
        d, tup = gen
        col = np.zeros(dims[d], dtype=np.int64)
        col[index[d][tup]] = 1
        F.generators.append((d, col))
    return F


def _values(g: Tuple[int, ...], tup: Tuple[int, ...]) -> Terms:
    """A set map applied value by value."""
    return [(tuple(g[v] for v in tup), 1)]


def _differences(g: Tuple[int, ...], tup: Tuple[int, ...]) -> Terms:
    """Expansion of the product over y in tup of ([g(y)] - [g(0)]), in the
    difference basis with base point 0 (so [0] = 0)."""
    terms: Terms = [((), 1)]
    for y in tup:
        image = [(p + (g[y],), sign) for p, sign in terms] if g[y] else []
        base = [(p + (g[0],), -sign) for p, sign in terms] if g[0] else []
        terms = image + base
    return terms


def _wedge(terms: Terms) -> Terms:
    """Tensor terms read in the exterior power: sorted with the sign of the
    sorting permutation, zero on repeated entries."""
    out = []
    for tup, sign in terms:
        sorted_tup, s = _sort_sign(tup)
        if sorted_tup is not None:
            out.append((sorted_tup, sign * s))
    return out


def build_pfin(n: int, N: int) -> TruncatedFunctor:
    """Standard projective of degree n: X |-> k[X]^{(x)n}, basis = tuples.

    Outer action: place permutations of the n tensor positions."""
    _check_truncation(N)
    if n > N:
        raise OracleError(f"pfin({n}) needs N >= {n}")
    bases = [list(itertools.product(range(t), repeat=n)) for t in range(N + 1)]
    return _functor_from_action(
        N, bases, _values, (n, tuple(range(n))), f"pfin({n})", outer_n=n
    )


def build_k0(N: int) -> TruncatedFunctor:
    """The module supported on the empty set."""
    _check_truncation(N)
    return _functor_from_action(N, [[()]] + [[]] * N, _values, (0, ()), "k0")


def build_const_k(N: int) -> TruncatedFunctor:
    """The constant module k."""
    _check_truncation(N)
    return _functor_from_action(N, [[()]] * (N + 1), _values, (0, ()), "k")


def build_kbar(N: int) -> TruncatedFunctor:
    """The constant module restricted to nonempty sets."""
    _check_truncation(N)
    return _functor_from_action(N, [[]] + [[()]] * N, _values, (1, ()), "kbar")


def build_kfi(n: int, N: int) -> TruncatedFunctor:
    """Injection module of degree n; non-injective composites act by 0."""
    _check_truncation(N)
    bases = [list(itertools.permutations(range(t), n)) for t in range(N + 1)]
    gen = (n, tuple(range(n))) if n <= N else None
    return _functor_from_action(N, bases, _values, gen, f"kfi({n})", outer_n=n)


def build_pbar_tensor(n: int, N: int) -> TruncatedFunctor:
    """Tensor power of the reduced standard projective, in the difference
    basis with base point 0: value at t >= 1 has basis {1..t-1}^n, the
    tuple y standing for the product of ([y_i] - [0])."""
    _check_truncation(N)
    if n == 0:
        return build_kbar(N)
    if n + 1 > N:
        raise OracleError(f"pbar_tensor({n}) needs N >= {n + 1}")
    bases = [list(itertools.product(range(1, t), repeat=n)) for t in range(N + 1)]
    gen = (n + 1, tuple(range(1, n + 1)))
    return _functor_from_action(N, bases, _differences, gen, f"pbar({n})", outer_n=n)


# ---------------------------------------------------------------------------
# Exterior powers (direct wedge-basis constructions)


def _sort_sign(tup: Tuple[int, ...]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sort a tuple, returning (sorted tuple, permutation sign); None on
    repeated entries."""
    if len(set(tup)) != len(tup):
        return None, 0
    order = sorted(range(len(tup)), key=lambda i: tup[i])
    sign = 1
    seen = [False] * len(tup)
    for start in range(len(tup)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(sorted(tup)), sign


def build_lambda_pfin(k: int, N: int) -> TruncatedFunctor:
    """k-th exterior power of the standard degree-one projective.

    Basis at t: k-subsets of {0..t-1}; a set map acts by the wedge of its
    values (zero on collisions)."""
    _check_truncation(N)
    if k == 0:
        return build_const_k(N)
    if k > N:
        raise OracleError(f"lambda_pfin({k}) needs N >= {k}")
    bases = [list(itertools.combinations(range(t), k)) for t in range(N + 1)]
    return _functor_from_action(
        N, bases, lambda g, S: _wedge(_values(g, S)), (k, tuple(range(k))),
        f"lambda_pfin({k})",
    )


def build_lambda_pbar(k: int, N: int) -> TruncatedFunctor:
    """k-th exterior power of the reduced projective, in wedge-difference
    coordinates: basis at t is the k-subsets of {1..t-1}, on which a set
    map acts by the wedge over y in S of (e_{g(y)} - e_{g(0)}), e_0 = 0."""
    _check_truncation(N)
    if k == 0:
        return build_kbar(N)
    if k + 1 > N:
        raise OracleError(f"lambda_pbar({k}) needs N >= {k + 1}")
    bases = [list(itertools.combinations(range(1, t), k)) for t in range(N + 1)]
    return _functor_from_action(
        N, bases, lambda g, S: _wedge(_differences(g, S)),
        (k + 1, tuple(range(1, k + 1))), f"lambda_pbar({k})",
    )


def lambda_pbar_embedding(n: int, N: int) -> List[np.ndarray]:
    """The top exterior power inside the n-th tensor power of the reduced
    projective (difference-tuple coordinates): per set size t, a
    dims[t] x c integer array whose columns span it."""
    if n == 0:
        # Lambda^0(Pbar) = kbar = pbar_tensor(0): the whole thing
        return [np.ones((1, 1), dtype=np.int64) if t >= 1 else np.zeros((0, 0), dtype=np.int64)
                for t in range(N + 1)]
    cols: List[np.ndarray] = []
    for t in range(N + 1):
        index = {y: i for i, y in enumerate(itertools.product(range(1, t), repeat=n))}
        subsets = list(itertools.combinations(range(1, t), n))
        A = np.zeros((len(index), len(subsets)), dtype=np.int64)
        for j, S in enumerate(subsets):
            for perm in itertools.permutations(range(n)):
                A[index[tuple(S[p] for p in perm)], j] += _sort_sign(perm)[1]
        cols.append(A)
    return cols


# ---------------------------------------------------------------------------
# Derived builders: quotients, direct sums, isotypic pieces


def quotient_functor(
    parent: TruncatedFunctor,
    sub_columns: List[np.ndarray],
    name: str,
) -> TruncatedFunctor:
    """Quotient of `parent` by the subfunctor spanned by the columns of the
    integer arrays sub_columns[t], one per set size, which may be
    dependent.  Its coordinates at size t are the rows outside the
    linalg.row_inverse of the independent columns, and the residual map
    pi_t projects onto them: a move m: s -> t induces pi_t m on the
    quotient coordinates of size s.  Stability of the span under every
    generator, pi_t m Sub_s = 0, is verified exactly."""
    projs, incs, subs = [], [], []
    for t, cols in enumerate(sub_columns):
        S = cols[:, linalg.pivot_columns(cols)]
        proj, free = _residual_map(S, *linalg.row_inverse(S))
        projs.append(proj)
        incs.append(SpMat.unit_columns(parent.dims[t], free))
        subs.append(SpMat.from_dense(cols))
    gens = []
    for d, col in parent.generators:
        pc = projs[d].apply_dense(col)
        if pc.any():
            gens.append((d, _cleared(pc, projs[d].den)))
    return _induced_functor(parent, projs, projs, incs, subs, gens, name)


def _residual_map(S: np.ndarray, I: List[int], Q: np.ndarray, D: int) -> Tuple[SpMat, List[int]]:
    """(pi, free) for the row_inverse (I, Q, D) of S: the rows outside I and
    the projection along S's column span onto them, the residual
    pi(v) = v[free] - S[free] Q v[I] / D."""
    in_I = set(I)
    free = [j for j in range(S.shape[0]) if j not in in_I]
    R = linalg.imatmul(S[free], Q)
    r, c = np.nonzero(R)
    rows = np.concatenate([np.arange(len(free)), r])
    cols = np.concatenate([np.array(free, dtype=np.int64), np.array(I, dtype=np.int64)[c]])
    vals = np.concatenate([np.full(len(free), D, dtype=object), -R[r, c].astype(object)])
    return SpMat(len(free), S.shape[0], rows, cols, vals, D), free


def _expansion_map(S: np.ndarray, I: List[int], Q: np.ndarray, D: int) -> SpMat:
    """The matrix of the expansion over S's columns of a vector v of their
    span, E(v) = Q v[I] / D, for the row_inverse (I, Q, D) of S."""
    r, c = np.nonzero(Q)
    return SpMat(Q.shape[0], S.shape[0], r, np.array(I, dtype=np.int64)[c], Q[r, c], D)


def _cleared(x: np.ndarray, den: int) -> np.ndarray:
    """The vector x / den with its denominators cleared: times the lcm of
    its entries' reduced denominators, which is den / gcd(den, x)."""
    return (x // gcd(den, *x.tolist())).astype(np.int64)


def kernel_functor(
    F: TruncatedFunctor,
    G: TruncatedFunctor,
    mats: List[SpMat],
    name: str,
) -> TruncatedFunctor:
    """Kernel of a natural transformation F -> G given by one matrix per
    set size.  Naturality of the map family is verified exactly, and a
    kernel that F's outer action does not preserve is refused; the
    kernel's module generators are taken to be all of its basis vectors
    (redundant generators are harmless downstream)."""
    if F.N != G.N:
        raise OracleError("truncations differ")
    for key in F.gen_keys():
        s, t = F.gen_src_dst(key)
        lhs = mats[t].compose(F.act[key])
        rhs = G.act[key].compose(mats[s])
        if not lhs.equals(rhs):
            raise OracleError(f"{name}: the given map family is not natural")
    columns = [linalg.kernel_basis(mats[t].int_rows()).T for t in range(F.N + 1)]
    gens = [(t, K[:, j], 1) for t, K in enumerate(columns) for j in range(K.shape[1])]
    return _subfunctor(F, columns, gens, name)


def _subfunctor(
    F: TruncatedFunctor,
    columns: List[np.ndarray],
    gens: List[Tuple[int, np.ndarray, int]],
    name: str,
) -> TruncatedFunctor:
    """The subfunctor of F with the independent columns of the integer
    array columns[t] as its basis at size t, generated by the vectors
    x / den of their span given as gens (d, x, den).  With E_t the
    expansion map over columns[t], a move m: s -> t acts by E_t m Sub_s,
    once the span is shown stable under F's generators and its outer
    action, and a generator v of size d is E_d v."""
    subs, lefts, projs = [], [], []
    for S in columns:
        inverse = linalg.row_inverse(S)
        subs.append(SpMat.from_dense(S))
        lefts.append(_expansion_map(S, *inverse))
        projs.append(_residual_map(S, *inverse)[0])
    gens = [(d, _cleared(lefts[d].apply_dense(x), lefts[d].den * den)) for d, x, den in gens]
    return _induced_functor(F, lefts, projs, subs, subs, gens, name)


def _induced_functor(
    F: TruncatedFunctor,
    left: List[SpMat],
    projs: List[SpMat],
    right: List[SpMat],
    subs: List[SpMat],
    gens: List[Tuple[int, np.ndarray]],
    name: str,
) -> TruncatedFunctor:
    """The functor on which F's move m: s -> t (and F's outer action)
    acts by left[t] m right[s], once projs[t] m subs[s] = 0 shows that m
    keeps the span of subs stable; projs[t] is a projection along the
    span of subs[t]."""

    def induced(m: SpMat, s: int, t: int, what: str) -> SpMat:
        moved = m.compose(subs[s])
        if not projs[t].compose(moved).is_zero():
            raise OracleError(f"{name}: the subspace is not stable under {what}")
        # a subfunctor's right factor is subs itself, already applied
        return left[t].compose(moved if right is subs else m.compose(right[s]))

    act = {key: induced(F.act[key], *F.gen_src_dst(key), str(key)) for key in F.gen_keys()}
    outer_act = {
        (i, t): induced(m, t, t, "the outer action") for (i, t), m in F.outer_act.items()
    }
    return TruncatedFunctor(
        F.N, [mat.m for mat in left], act, gens, name=name, outer_n=F.outer_n,
        outer_act=outer_act,
    )


def direct_sum(
    summands: List[TruncatedFunctor],
    name: str,
    outer_specs: Optional[List[str]] = None,
    outer_n: int = 0,
) -> TruncatedFunctor:
    """Direct sum; outer_specs[i] is 'inherit' (use the summand's outer
    action) or 'sign' (outer transpositions act by -1 on that summand)."""
    N = summands[0].N
    dims = [sum(F.dims[t] for F in summands) for t in range(N + 1)]
    act = {key: _block_diagonal([F.act[key] for F in summands]) for key in summands[0].gen_keys()}

    gens = []
    offset_at = lambda idx, d: sum(F.dims[d] for F in summands[:idx])
    for idx, F in enumerate(summands):
        for d, col in F.generators:
            big = np.zeros(dims[d], dtype=np.int64)
            off = offset_at(idx, d)
            big[off : off + F.dims[d]] = col
            gens.append((d, big))

    outer_act: Dict[Tuple[int, int], SpMat] = {}
    if outer_specs is not None:
        for i in range(1, outer_n):
            for t in range(N + 1):
                outer_act[(i, t)] = _block_diagonal([
                    SpMat.identity(F.dims[t]).scale(-1) if spec == "sign" else F.outer_act[(i, t)]
                    for F, spec in zip(summands, outer_specs)
                ])
    return TruncatedFunctor(
        N, dims, act, gens, name=name, outer_n=outer_n, outer_act=outer_act
    )


def _block_diagonal(blocks: List[SpMat]) -> SpMat:
    """The block-diagonal matrix with the given blocks, in order."""
    den = lcm(*(b.den for b in blocks))
    roff = np.cumsum([0] + [b.m for b in blocks])
    coff = np.cumsum([0] + [b.n for b in blocks])
    return SpMat(
        roff[-1],
        coff[-1],
        np.concatenate([b.rows + r for b, r in zip(blocks, roff)]),
        np.concatenate([b.cols + c for b, c in zip(blocks, coff)]),
        np.concatenate([linalg.lincomb([(b.vals, den // b.den)]) for b in blocks]),
        den,
    )


def isotypic_subfunctor(parent: TruncatedFunctor, lam: Partition) -> TruncatedFunctor:
    """Image of the exact central projector for the outer isotypic type lam
    (an unnormalized integer multiple of the projector is used).

    Realizes the lam-isotypic summand, i.e. dim(S_lam) copies of the Schur
    construction of type lam on the underlying object."""
    m = parent.outer_n
    if lam.size != m:
        raise ValueError(f"{lam} is not a partition of the outer degree {m}")
    table = character_table(m)
    chi = {}
    for g in itertools.permutations(range(m)):
        chi[g] = table[(lam, _cycle_type(g))]

    projs: List[SpMat] = []
    for t in range(parent.N + 1):
        total = SpMat.zeros(parent.dims[t], parent.dims[t])
        for g, c in chi.items():
            if c:
                total = total + parent.outer_matrix(g, t).scale(c)
        projs.append(total)

    # exact naturality of the projector family (outer action is central)
    for key in parent.gen_keys():
        s, t = parent.gen_src_dst(key)
        a = projs[t].compose(parent.act[key])
        b = parent.act[key].compose(projs[s])
        if not a.equals(b):
            raise OracleError("isotypic projector is not natural")

    # the projector's independent columns, left to right, are the basis
    columns = []
    for proj in projs:
        A = proj.int_rows()
        columns.append(A[:, linalg.pivot_columns(A)])
    gens = [(d, projs[d].apply_dense(col), projs[d].den) for d, col in parent.generators]
    gens = [gen for gen in gens if gen[1].any()]
    if not gens and any(S.size for S in columns):
        raise OracleError("isotypic piece has no generator")
    return _subfunctor(parent, columns, gens, f"{parent.name}[{','.join(map(str, lam))}]")


def _cycle_type(g: Tuple[int, ...]) -> Partition:
    n = len(g)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            ln += 1
        lens.append(ln)
    return Partition(tuple(sorted(lens, reverse=True)))


def build_proj_cover(n: int, N: int) -> TruncatedFunctor:
    """The projective cover of the n-th tensor power of the reduced
    projective: the (n+1)-st exterior power of the standard projective
    (outer transpositions acting by the sign) plus the tensor power modulo
    its top exterior summand."""
    _check_truncation(N)
    lam_part = build_lambda_pfin(n + 1, N)
    if n == 0:
        F = lam_part
        F.name = "P_0"
        return F
    pbar = build_pbar_tensor(n, N)
    quot = quotient_functor(
        pbar, lambda_pbar_embedding(n, N), name=f"pbar({n})/lambda"
    )
    return direct_sum(
        [lam_part, quot],
        name=f"P_{n}",
        outer_specs=["sign", "inherit"],
        outer_n=n,
    )


# ---------------------------------------------------------------------------
# Characters and symmetric-sequence data


def inner_character(F: TruncatedFunctor, t: int) -> ClassFunction:
    """Character of the evaluation symmetric-group action on F(t)."""
    from ..symrep import representative

    values = {}
    for mu in partitions_of(t):
        rep = representative(mu)
        values[mu] = F.perm_matrix(rep, t).trace()
    return ClassFunction(t, values)


def inner_class(F: TruncatedFunctor, t: int) -> IrrDecomposition:
    dec = decompose(inner_character(F, t))
    if dec.is_virtual:
        raise OracleError(f"non-genuine character for {F.name} at size {t}")
    return dec


def fb_module_data(F: TruncatedFunctor):
    """Underlying symmetric-sequence data, for the closed-form calculus."""
    from ..facalc import FBModuleData

    return FBModuleData(
        F.N,
        F.dims[0],
        {t: inner_class(F, t) for t in range(1, F.N + 1) if F.dims[t]},
    )


def sgn_coinvariant_reduction(F: TruncatedFunctor, t: int):
    """Sign-coinvariants of F(t), its quotient by the relations
    F(tau) x + x: (R, pi, free) with R the independent relation columns,
    as an integer array, free the quotient's coordinates and pi the
    residual projection onto them."""
    S = np.zeros((F.dims[t], 0), dtype=np.int64)
    if t > 1:
        relations = [F.act[("tau", t, i)] + SpMat.identity(F.dims[t]) for i in range(1, t)]
        S = np.hstack([m.int_rows() for m in relations])
    S = S[:, linalg.pivot_columns(S)]
    proj, free = _residual_map(S, *linalg.row_inverse(S))
    return S, proj, free


def sgn_coinvariant_dim(F: TruncatedFunctor, t: int) -> int:
    return len(sgn_coinvariant_reduction(F, t)[2])
