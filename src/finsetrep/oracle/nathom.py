"""Exact natural-transformation solver between truncated functors.

A natural transformation out of a functor with declared module generators
is determined by its values on those generators.  Once per source functor,
a spanning basis of every value F(t) is built by closing the generators
under the category's generator moves (span pass), along with the expansion
of every move image in that basis.  Solving hom(F, G) is then linear
algebra in the unknown generator values: each basis column corresponds to
an explicit vector G(path)(v), and every generator move contributes exact
linear constraints.  Constraints are folded into integer Gram matrices
(x is in the kernel of sum W_i^T W_i iff W_i x = 0 for all i, valid over
the rationals), and the parameter space is cut batch by batch so the large
top-degree data is only built on an already-small parameter space.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import JointClassFunction, joint_decompose, representative
from . import linalg
from .functors import MAX_ABS_GUARD, OracleError, SpMat, TruncatedFunctor

Path = Tuple  # ("gen", a) | ("step", genkey, parent_t, parent_idx)

# An int64 array op is taken only when an a-priori bound on every partial
# result is below this; otherwise it runs on Python ints.
INT64_BOUND = 1 << 62


@dataclass
class SpanData:
    """Spanning data: per size, a basis of reachable columns with their
    construction paths, and the expansion of every generator move.

    gen_used flags the declared generators that actually entered the
    basis; redundant generators (possible for kernel-style builders) are
    absorbed into the span of the others and carry no free unknowns."""

    F: TruncatedFunctor
    paths: List[List[Path]]
    cbs: List[linalg.ColumnBasis]
    order: List[Tuple[int, int]]
    gen_used: List[bool]
    gammas: Dict[Tuple, List[Dict[int, Fraction]]] = field(default_factory=dict)


def build_span(F: TruncatedFunctor) -> SpanData:
    if F.span_cache is not None:
        return F.span_cache
    N = F.N
    paths: List[List[Path]] = [[] for _ in range(N + 1)]
    vecs: List[List[Dict[int, Fraction]]] = [[] for _ in range(N + 1)]
    cbs = [linalg.ColumnBasis(F.dims[t]) for t in range(N + 1)]
    order: List[Tuple[int, int]] = []

    heap: List[Tuple[int, int, Path, Dict[int, Fraction]]] = []
    counter = itertools.count()

    def push(t: int, path: Path, vec: Dict[int, Fraction]):
        heapq.heappush(heap, (t, next(counter), path, vec))

    for a, (d, col) in enumerate(F.generators):
        push(d, ("gen", a), linalg.sparse_from_dense(col))

    moves_of: Dict[int, List[Tuple]] = {t: [] for t in range(N + 1)}
    for key in F.gen_keys():
        moves_of[TruncatedFunctor.gen_src_dst(key)[0]].append(key)

    gen_used = [False] * len(F.generators)
    while heap:
        t, _, path, vec = heapq.heappop(heap)
        if not vec:
            continue
        idx, _ = cbs[t].add(vec)
        if idx is None:
            continue
        if path[0] == "gen":
            gen_used[path[1]] = True
        paths[t].append(path)
        vecs[t].append(vec)
        order.append((t, idx))
        for key in moves_of[t]:
            _, t2 = TruncatedFunctor.gen_src_dst(key)
            if F.dims[t2] == 0:
                continue
            img = F.act[key].apply_sparse(vec)
            if img:
                push(t2, ("step", key, t, idx), img)

    for t in range(N + 1):
        if len(paths[t]) != F.dims[t]:
            raise OracleError(
                f"{F.name}: generators span only {len(paths[t])} of "
                f"{F.dims[t]} dimensions at size {t}"
            )

    span = SpanData(F, paths, cbs, order, gen_used)
    for key in F.gen_keys():
        s, t = TruncatedFunctor.gen_src_dst(key)
        span.gammas[key] = [
            cbs[t].expand(F.act[key].apply_sparse(vecs[s][j]))
            for j in range(len(paths[s]))
        ]
    F.span_cache = span
    return span


def _imatmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matmul; int64 when provably safe, python ints otherwise."""
    if A.size == 0 or B.size == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    if A.dtype == np.int64 and B.dtype == np.int64:
        amax = int(np.abs(A).max(initial=0))
        bmax = int(np.abs(B).max(initial=0))
        if amax * bmax * A.shape[1] < INT64_BOUND:
            return A @ B
    return A.astype(object) @ B.astype(object)


def _span_value(
    span: SpanData,
    G: TruncatedFunctor,
    blocks: Dict[int, Tuple[int, int]],
    P: np.ndarray,
    cache: Dict[Tuple[int, int], Tuple[np.ndarray, int]],
    key: Tuple[int, int],
) -> Tuple[np.ndarray, int]:
    """Values on the span basis vector key = (size, index) of the candidate
    solutions given by P's columns: G of the vector's path applied to the
    rows of P holding its generator's values, as (int array, denominator).
    cache holds a prefix of span.order and is extended along it to key."""
    while key not in cache:
        t, idx = span.order[len(cache)]
        path = span.paths[t][idx]
        if path[0] == "gen":
            d, off = blocks[path[1]]
            cache[(t, idx)] = (P[off : off + G.dims[d]].copy(), 1)
        else:
            _, gkey, pt, pidx = path
            parr, pden = cache[(pt, pidx)]
            m = G.act[gkey]
            cache[(t, idx)] = (m.apply_dense(parr), pden * m.den)
    return cache[key]


class NatHomResult:
    """Solution space of natural transformations F -> G at truncation N."""

    def __init__(self, F, G, span, P_cols: List[List[int]], blocks):
        self.F, self.G = F, G
        self.span = span
        # parameter basis as a list of columns (each an int list of len n_v)
        self.P_cols = P_cols
        # blocks: generator index -> (degree, offset), used generators only
        self.blocks = blocks
        self._P = (
            np.array(P_cols, dtype=np.int64).T
            if P_cols
            else np.zeros((self.n_v, 0), dtype=np.int64)
        )
        self._vcache: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}

    @property
    def dimension(self) -> int:
        return len(self.P_cols)

    @property
    def n_v(self) -> int:
        return sum(self.G.dims[d] for d, _ in self.blocks.values())

    def _image(self, k: int, t: int, combo: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """The k-th basis solution at size t applied to the vector with
        span-basis expansion combo, as a sparse column of G(t)."""
        out: Dict[int, Fraction] = {}
        for bidx, coeff in combo.items():
            arr, den = _span_value(
                self.span, self.G, self.blocks, self._P, self._vcache, (t, bidx)
            )
            for i in np.flatnonzero(arr[:, k]).tolist():
                out[i] = out.get(i, 0) + coeff * Fraction(int(arr[i, k]), den)
        return {i: v for i, v in out.items() if v}

    def _columns(self, k: int, t: int) -> List[Dict[int, Fraction]]:
        cb = self.span.cbs[t]
        return [
            self._image(k, t, cb.expand({c: Fraction(1)})) for c in range(self.F.dims[t])
        ]

    def solution_matrix(self, k: int, t: int) -> SpMat:
        """The t-component of the k-th basis solution, as an exact matrix."""
        return SpMat.from_sparse_columns(self.G.dims[t], self._columns(k, t))

    def verify(self) -> None:
        """Exact re-check that every basis solution is natural."""
        for k in range(self.dimension):
            eta = [self._columns(k, t) for t in range(self.F.N + 1)]
            for key in self.F.gen_keys():
                s, t = TruncatedFunctor.gen_src_dst(key)
                for c in range(self.F.dims[s]):
                    lhs: Dict[int, Fraction] = {}
                    for j, fv in self.F.act[key].apply_sparse({c: Fraction(1)}).items():
                        for i, v in eta[t][j].items():
                            lhs[i] = lhs.get(i, 0) + fv * v
                    rhs = self.G.act[key].apply_sparse(eta[s][c])
                    if {i: v for i, v in lhs.items() if v} != rhs:
                        raise OracleError("solution fails naturality")

    # -- outer characters ---------------------------------------------------

    def _action_trace(self, g: Tuple[int, ...], h: Tuple[int, ...]) -> int:
        """Trace of (g, h) acting on the solution space by eta |->
        rho_G(h) eta rho_F(g), read off the parameter basis."""
        p = self.dimension
        # acted[kk]: the generator values of the kk-th basis solution acted on
        acted = [[Fraction(0)] * self.n_v for _ in range(p)]
        for a, (d, off) in self.blocks.items():
            w = linalg.sparse_from_dense(self.F.generators[a][1])
            combo = self.span.cbs[d].expand(self.F.outer_matrix(g, d).apply_sparse(w))
            hmat = self.G.outer_matrix(h, d)
            for kk in range(p):
                # apply rho_G(h) to the solution's value on g.w
                for r, v in hmat.apply_sparse(self._image(kk, d, combo)).items():
                    acted[kk][off + r] += v
        X = linalg.solve(self._P.tolist(), acted)
        tr = sum((X[j][j] for j in range(p)), Fraction(0))
        if tr.denominator != 1:
            raise OracleError(f"non-integral outer character value {tr}")
        return int(tr)

    def outer_character(self) -> JointClassFunction:
        s_deg = self.F.outer_n
        t_deg = self.G.outer_n
        values: Dict[Tuple[Partition, Partition], int] = {}
        for alpha in partitions_of(s_deg):
            g = representative(alpha)
            for beta in partitions_of(t_deg):
                h = representative(beta)
                values[(alpha, beta)] = self._action_trace(g, h) if self.dimension else 0
        return JointClassFunction(s_deg, t_deg, values)

    def outer_bimodule(self) -> Dict[Tuple[Partition, Partition], int]:
        return joint_decompose(self.outer_character())


def nat_hom(F: TruncatedFunctor, G: TruncatedFunctor) -> NatHomResult:
    """Exact solution space of natural transformations F -> G."""
    if F.N != G.N:
        raise OracleError("truncations differ")
    span = build_span(F)
    blocks: Dict[int, Tuple[int, int]] = {}
    off = 0
    for a, (d, _) in enumerate(F.generators):
        if span.gen_used[a]:
            blocks[a] = (d, off)
            off += G.dims[d]
    n_v = off
    if n_v == 0:
        return NatHomResult(F, G, span, [], blocks)

    P = np.eye(n_v, dtype=np.int64)
    vcache: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}

    def cut(kernel_rows: List[List[int]]):
        nonlocal P, vcache
        if not kernel_rows:
            P = np.zeros((n_v, 0), dtype=np.int64)
            vcache = {k: (a[:, :0], d) for k, (a, d) in vcache.items()}
            return
        K = np.array(kernel_rows, dtype=np.int64).T
        P = _as_int64(_imatmul(P, K))
        vcache = {k: (_as_int64(_imatmul(a, K)), d) for k, (a, d) in vcache.items()}

    keys = sorted(
        F.gen_keys(),
        key=lambda k: (max(TruncatedFunctor.gen_src_dst(k)), k[0] != "tau"),
    )
    for key in keys:
        s, t = TruncatedFunctor.gen_src_dst(key)
        if len(span.paths[s]) == 0 or G.dims[t] == 0:
            continue
        if P.shape[1] == 0:
            break
        p = P.shape[1]
        gram: np.ndarray | None = None
        gammas = span.gammas[key]
        m = G.act[key]
        for j in range(len(span.paths[s])):
            sarr, sden = _span_value(span, G, blocks, P, vcache, (s, j))
            rhs = m.apply_dense(sarr)
            terms = [
                (coeff, *_span_value(span, G, blocks, P, vcache, (t, i)))
                for i, coeff in gammas[j].items()
            ]
            L = lcm(m.den * sden, *(c.denominator * den_i for c, _, den_i in terms))
            scaled = [(rhs, -(L // (m.den * sden)))] + [
                (arr_i, coeff.numerator * (L // (coeff.denominator * den_i)))
                for coeff, arr_i, den_i in terms
            ]
            # W = sum of arr * scale; initial=1 also keeps every scale itself
            # below the bound when its array is zero
            bound = sum(int(np.abs(arr).max(initial=1)) * abs(sc) for arr, sc in scaled)
            dtype = np.int64 if bound < INT64_BOUND else object
            W = np.zeros(rhs.shape, dtype=dtype)
            for arr, sc in scaled:
                W += arr.astype(dtype, copy=False) * sc
            block = _imatmul(W.T, W)
            gram = block if gram is None else _gram_add(gram, block)
        if gram is None or not gram.any():
            continue
        ker = linalg.kernel_basis(gram.tolist(), p)
        if len(ker) < p:
            cut(ker)

    return NatHomResult(F, G, span, P.T.tolist(), blocks)


def _gram_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype == np.int64 and b.dtype == np.int64:
        amax = int(np.abs(a).max(initial=0)) + int(np.abs(b).max(initial=0))
        if amax < INT64_BOUND:
            return a + b
    return a.astype(object) + b.astype(object)


def _as_int64(A: np.ndarray) -> np.ndarray:
    if A.dtype == np.int64:
        return A
    mx = max((abs(int(x)) for x in A.flat), default=0)
    if mx > MAX_ABS_GUARD:
        raise OracleError("parameter magnitude guard tripped")
    return A.astype(np.int64)


def nat_hom_dense_dim(F: TruncatedFunctor, G: TruncatedFunctor) -> int:
    """Reference solver over the raw matrix unknowns (tiny inputs only)."""
    N = F.N
    offsets, total = [], 0
    for t in range(N + 1):
        offsets.append(total)
        total += F.dims[t] * G.dims[t]
    rows = []
    for key in F.gen_keys():
        s, t = TruncatedFunctor.gen_src_dst(key)
        Fg = F.act[key].to_fraction_rows()
        Gg = G.act[key].to_fraction_rows()
        for r in range(G.dims[t]):
            for c in range(F.dims[s]):
                row = [Fraction(0)] * total
                for k in range(F.dims[t]):
                    if Fg[k][c]:
                        row[offsets[t] + r * F.dims[t] + k] += Fg[k][c]
                for k in range(G.dims[s]):
                    if Gg[r][k]:
                        row[offsets[s] + k * F.dims[s] + c] -= Gg[r][k]
                if any(row):
                    rows.append(row)
    if not rows:
        return total
    return total - linalg.rank(rows)
