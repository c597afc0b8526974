"""Explicit matrix realizations of modules over the finite-set category.

A TruncatedFunctor stores dimensions and generator-action matrices on all
set sizes <= N.  The category is presented by the adjacent transpositions
within each automorphism group, the order-preserving inclusion t -> t+1,
and the surjection t+1 -> t folding the top two points; every map between
skeleton objects factors as a word in these, so naturality need only be
imposed on generators (with exhaustive small-size functoriality checks as
a safety net).

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

    __slots__ = ("m", "n", "rows", "cols", "vals", "den", "_cidx", "_runs")

    def __init__(self, m, n, rows, cols, vals, den=1):
        self._cidx = self._runs = None
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
        idx = np.arange(n)
        return cls(n, n, idx, idx, np.ones(n, dtype=np.int64))

    @classmethod
    def from_sparse_columns(cls, m, columns: Sequence[Dict[int, Fraction]]):
        den = lcm(*(Fraction(v).denominator for col in columns for v in col.values()))
        rows, cols, vals = [], [], []
        for j, col in enumerate(columns):
            for i, v in col.items():
                x = Fraction(v) * den
                rows.append(i)
                cols.append(j)
                vals.append(int(x))
        return cls(m, len(columns), rows, cols, vals, den)

    @property
    def shape(self):
        return (self.m, self.n)

    @property
    def nnz(self):
        return len(self.vals)

    def apply_dense(self, X: np.ndarray) -> np.ndarray:
        """Exact (self * den) @ X for a dense integer array X (ignore
        self.den); int64 where the bound allows, Python ints otherwise."""
        if not (self.nnz and X.size):
            return np.zeros((self.m,) + X.shape[1:], dtype=np.int64)
        if self._runs is None:
            # entries are sorted by row, so each row's run is one reduceat slice
            starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
            # |row sum| <= max|vals| * longest run * max|X|
            longest = int(np.diff(starts, append=self.nnz).max())
            row_bound = int(np.abs(self.vals).max()) * longest
            self._runs = (starts, self.rows[starts], row_bound)
        starts, run_rows, row_bound = self._runs
        dtype = linalg.int_dtype(row_bound * int(np.abs(X).max()))
        vals = self.vals.astype(dtype, copy=False).reshape((-1,) + (1,) * (X.ndim - 1))
        out = np.zeros((self.m,) + X.shape[1:], dtype=dtype)
        out[run_rows] = np.add.reduceat(vals * X[self.cols].astype(dtype, copy=False), starts, axis=0)
        return out

    def _colindex(self) -> Dict[int, List[Tuple[int, int]]]:
        """Column -> [(row, value)], built once per matrix."""
        if self._cidx is None:
            self._cidx = {}
            for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
                self._cidx.setdefault(c, []).append((r, v))
        return self._cidx

    def apply_sparse(self, col: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """self @ col for a sparse column (exact; includes self.den)."""
        idx = self._colindex()
        out: Dict[int, Fraction] = {}
        for c, cv in col.items():
            for r, v in idx.get(c, ()):
                nv = out.get(r, Fraction(0)) + Fraction(v, self.den) * cv
                if nv:
                    out[r] = nv
                elif r in out:
                    del out[r]
        return out

    def int_rows(self) -> List[List[int]]:
        """Dense integer rows of self * den."""
        out = [[0] * self.n for _ in range(self.m)]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist()):
            out[r][c] = v
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
        return SpMat(self.m, other.n, rows, cols, vals, self.den * other.den)

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

    def to_fraction_rows(self) -> List[List[Fraction]]:
        return [[Fraction(v, self.den) for v in row] for row in self.int_rows()]

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
        for s in range(top + 1):
            for u in range(top + 1):
                for h in _all_maps(s, u):
                    Fh = map_matrix(self, h, s, u)
                    for t in range(top + 1):
                        for g in _all_maps(u, t):
                            comp = tuple(g[h[i]] for i in range(s))
                            lhs = map_matrix(self, comp, s, t)
                            rhs = map_matrix(self, g, u, t).compose(Fh)
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


def lambda_pbar_embedding(n: int, N: int) -> List[List[Dict[int, Fraction]]]:
    """Columns of the top exterior power inside the n-th tensor power of
    the reduced projective (difference-tuple coordinates), per set size."""
    if n == 0:
        # Lambda^0(Pbar) = kbar = pbar_tensor(0): the whole thing
        return [[{0: Fraction(1)}] if t >= 1 else [] for t in range(N + 1)]
    cols: List[List[Dict[int, Fraction]]] = []
    for t in range(N + 1):
        at_t: List[Dict[int, Fraction]] = []
        index = {y: i for i, y in enumerate(itertools.product(range(1, t), repeat=n))}
        for S in itertools.combinations(range(1, t), n):
            col: Dict[int, Fraction] = {}
            for perm in itertools.permutations(range(n)):
                idx = index[tuple(S[p] for p in perm)]
                col[idx] = col.get(idx, Fraction(0)) + _sort_sign(perm)[1]
            at_t.append(col)
        cols.append(at_t)
    return cols


# ---------------------------------------------------------------------------
# Derived builders: quotients, direct sums, isotypic pieces


def quotient_functor(
    parent: TruncatedFunctor,
    sub_columns: List[List[Dict[int, Fraction]]],
    name: str,
) -> TruncatedFunctor:
    """Quotient of `parent` by the subfunctor spanned by the given sparse
    columns (one list per set size).  Stability of the span under every
    generator is verified exactly."""
    reducers: List[linalg.ColumnBasis] = []
    quot_coords: List[List[int]] = []
    for t in range(parent.N + 1):
        cb = linalg.ColumnBasis(parent.dims[t])
        for col in sub_columns[t]:
            cb.add(col)
        reducers.append(cb)
        pivset = set(cb.pivots.keys())
        quot_coords.append([j for j in range(parent.dims[t]) if j not in pivset])
    dims = [len(q) for q in quot_coords]
    lookups = [{c: i for i, c in enumerate(q)} for q in quot_coords]

    def project(t: int, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        residual, _ = reducers[t].reduce(vec)
        out = {}
        for c, v in residual.items():
            if c not in lookups[t]:
                raise OracleError(f"{name}: sub-span not stable at size {t}")
            out[lookups[t][c]] = v
        return out

    def induced(m: SpMat, s: int, t: int, what: str) -> SpMat:
        # stability check: images of sub columns must reduce to zero
        for col in sub_columns[s]:
            residual, _ = reducers[t].reduce(m.apply_sparse(col))
            if residual:
                raise OracleError(f"{name}: subfunctor not {what}")
        cols = [project(t, m.apply_sparse({j: Fraction(1)})) for j in quot_coords[s]]
        return SpMat.from_sparse_columns(dims[t], cols)

    act = {
        key: induced(parent.act[key], *parent.gen_src_dst(key), f"stable under {key}")
        for key in parent.gen_keys()
    }
    gens = []
    for d, col in parent.generators:
        pc = project(d, linalg.sparse_from_dense(col))
        if pc:
            gens.append((d, _sparse_to_intvec(pc, dims[d])))
    outer_act = {
        (i, t): induced(m, t, t, "outer-stable") for (i, t), m in parent.outer_act.items()
    }
    return TruncatedFunctor(
        parent.N,
        dims,
        act,
        gens,
        name=name,
        outer_n=parent.outer_n,
        outer_act=outer_act,
    )


def _sparse_to_intvec(col: Dict[int, Fraction], dim: int) -> np.ndarray:
    """Dense integer multiple of a sparse column (its denominators cleared)."""
    den = lcm(*(v.denominator for v in col.values()))
    vec = np.zeros(dim, dtype=np.int64)
    for i, v in col.items():
        vec[i] = int(v * den)
    return vec


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
    kernels = [linalg.kernel_basis(mats[t].int_rows(), F.dims[t]) for t in range(F.N + 1)]
    columns = [[linalg.sparse_from_dense(col) for col in k] for k in kernels]
    gens = []
    for t in range(F.N + 1):
        for j in range(len(kernels[t])):
            col = np.zeros(len(kernels[t]), dtype=np.int64)
            col[j] = 1
            gens.append((t, col))
    reducers = [linalg.ColumnBasis(d) for d in F.dims]
    for cb, cols in zip(reducers, columns):
        for col in cols:
            cb.add(col)
    return _subfunctor(F, columns, reducers, gens, name)


def _subfunctor(
    F: TruncatedFunctor,
    columns: List[List[Dict[int, Fraction]]],
    reducers: List[linalg.ColumnBasis],
    gens: List[Tuple[int, np.ndarray]],
    name: str,
) -> TruncatedFunctor:
    """The subfunctor of F with basis columns[t] at size t; reducers[t]
    expands vectors of their span in that basis.  The span must be stable
    under F's generators and its outer action."""
    dims = [len(cols) for cols in columns]

    def restrict(m: SpMat, s: int, t: int, what: str) -> SpMat:
        reduced = [reducers[t].reduce(m.apply_sparse(col)) for col in columns[s]]
        if any(residual for residual, _ in reduced):
            raise OracleError(f"{name}: the subspace is not stable under {what}")
        return SpMat.from_sparse_columns(dims[t], [combo for _, combo in reduced])

    act = {key: restrict(F.act[key], *F.gen_src_dst(key), str(key)) for key in F.gen_keys()}
    outer_act = {
        (i, t): restrict(m, t, t, "the outer action") for (i, t), m in F.outer_act.items()
    }
    return TruncatedFunctor(
        F.N, dims, act, gens, name=name, outer_n=F.outer_n, outer_act=outer_act
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

    reducers: List[linalg.ColumnBasis] = []
    columns: List[List[Dict[int, Fraction]]] = []
    for t in range(parent.N + 1):
        cb = linalg.ColumnBasis(parent.dims[t])
        cols_t: List[Dict[int, Fraction]] = []
        for j in range(parent.dims[t]):
            col = projs[t].apply_sparse({j: Fraction(1)})
            if col:
                idx, _ = cb.add(col)
                if idx is not None:
                    cols_t.append(col)
        reducers.append(cb)
        columns.append(cols_t)
    gens = []
    for d, col in parent.generators:
        img = projs[d].apply_sparse(linalg.sparse_from_dense(col))
        if img:
            gens.append((d, _sparse_to_intvec(reducers[d].expand(img), len(columns[d]))))
    if not gens and any(columns):
        raise OracleError("isotypic piece has no generator")
    return _subfunctor(
        parent, columns, reducers, gens, f"{parent.name}[{','.join(map(str, lam))}]"
    )


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
    """Sign-coinvariants of F(t): returns (ColumnBasis of the relation span
    {F(tau) x + x}, list of free coordinates).  The quotient dimension is
    dim F(t) - len(relations)."""
    cb = linalg.ColumnBasis(F.dims[t])
    for i in range(1, t):
        m = F.act[("tau", t, i)]
        for j in range(F.dims[t]):
            col = m.apply_sparse({j: Fraction(1)})
            col[j] = col.get(j, Fraction(0)) + 1
            col = {k: v for k, v in col.items() if v}
            if col:
                cb.add(col)
    pivset = set(cb.pivots.keys())
    free = [j for j in range(F.dims[t]) if j not in pivset]
    return cb, free


def sgn_coinvariant_dim(F: TruncatedFunctor, t: int) -> int:
    _, free = sgn_coinvariant_reduction(F, t)
    return len(free)
