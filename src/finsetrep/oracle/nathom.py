"""Exact natural-transformation solver between truncated functors.

A natural transformation out of a functor with declared module generators
is determined by its values on those generators.  Once per source functor,
a spanning basis of every value F(t) is built by closing the generators
under the category's generator moves (span pass); the pass records the
expansion of every move image in that basis as it reduces the image.
Solving hom(F, G) is then linear algebra in the unknown generator values:
each basis column corresponds to an explicit vector G(path)(v), and every
generator move contributes exact linear constraints.  Constraints are
folded into integer Gram matrices (x is in the kernel of sum W_i^T W_i iff
W_i x = 0 for all i, valid over the rationals), and the parameter space is
cut batch by batch so the large top-degree data is only built on an
already-small parameter space; after each cut the span values are rebuilt
from the new parameter basis.  The Gram products and the cuts
(linalg.imatmul) run on float64 BLAS under an exactness bound, and each
Gram's kernel through the certified modular linalg.kernel_basis.  The
span values, W and the Gram sums stay on int64 under linalg's a-priori
bound and move to Python ints above it.  Outer characters read each
acted-on solution off p independent rows of the parameter basis, which
the same certified engine picks, and check the other rows exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import JointClassFunction, joint_decompose, representative
from . import linalg
from .functors import OracleError, SpMat, TruncatedFunctor

Path = Tuple  # ("gen", a) | ("step", genkey, parent_t, parent_idx)


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
    gammas: Dict[Tuple, List[Dict[int, Fraction]]]


def build_span(F: TruncatedFunctor) -> SpanData:
    if F.span_cache is not None:
        return F.span_cache
    N = F.N
    paths: List[List[Path]] = [[] for _ in range(N + 1)]
    cbs = [linalg.ColumnBasis(F.dims[t]) for t in range(N + 1)]
    order: List[Tuple[int, int]] = []
    gammas: Dict[Tuple, List[Dict[int, Fraction]]] = {key: [] for key in F.gen_keys()}

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
        idx, combo = cbs[t].add(vec)
        if path[0] == "step":
            # the expansion of a move image is unique, so columns added
            # later never change it
            _, key, _, j = path
            gammas[key][j] = combo if idx is None else {idx: Fraction(1)}
        if idx is None:
            continue
        if path[0] == "gen":
            gen_used[path[1]] = True
        paths[t].append(path)
        order.append((t, idx))
        for key in moves_of[t]:
            gammas[key].append({})  # filled when the image is reduced; zero stays {}
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

    F.span_cache = SpanData(F, paths, cbs, order, gen_used, gammas)
    return F.span_cache


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
        self._P = linalg.int_array(P_cols, self.n_v).T
        self._vcache: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}
        self._rinv = None

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
        # (row, kk, value): the generator values of the kk-th basis solution
        # acted on, one entry per nonzero
        acted: List[Tuple[int, int, Fraction]] = []
        for a, (d, off) in self.blocks.items():
            w = linalg.sparse_from_dense(self.F.generators[a][1])
            combo = self.span.cbs[d].expand(self.F.outer_matrix(g, d).apply_sparse(w))
            hmat = self.G.outer_matrix(h, d)
            for kk in range(p):
                # apply rho_G(h) to the solution's value on g.w
                for r, v in hmat.apply_sparse(self._image(kk, d, combo)).items():
                    acted.append((off + r, kk, v))
        den = lcm(*(v.denominator for _, _, v in acted))
        A = np.zeros((self.n_v, p), dtype=object)
        for i, kk, v in acted:
            A[i, kk] = v.numerator * (den // v.denominator)
        # P X = acted with X = Y / (D * den): X is read off the rows I alone,
        # and the other rows check that every acted solution is a solution
        I, Q, D = self._row_inverse()
        Y = linalg.imatmul(Q, A[I])
        if not (linalg.imatmul(self._P, Y) == D * A).all():
            raise OracleError("an acted-on solution leaves the solution space")
        tr = Fraction(int(np.trace(Y)), D * den)
        if tr.denominator != 1:
            raise OracleError(f"non-integral outer character value {tr}")
        return int(tr)

    def _row_inverse(self) -> Tuple[List[int], np.ndarray, int]:
        """(I, Q, D): p rows I of P with P[I] invertible, and the integer
        matrix Q = D * P[I]^-1 with D > 0; computed once per result."""
        if self._rinv is None:
            p = self.dimension
            I = linalg.pivot_columns(self._P.T)
            inv = linalg.solve(self._P[I], np.eye(p, dtype=np.int64).tolist())
            D = lcm(*(v.denominator for col in inv for v in col))
            Q = np.array([[int(col[i] * D) for col in inv] for i in range(p)], dtype=object)
            self._rinv = (I, Q, D)
        return self._rinv

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
            W = linalg.lincomb(scaled)
            block = linalg.imatmul(W.T, W)
            gram = block if gram is None else linalg.lincomb([(gram, 1), (block, 1)])
        if gram is None or not gram.any():
            continue
        ker = linalg.kernel_basis(gram, p)
        if len(ker) < p:
            # cut: the span values are rebuilt from the new P on demand
            K = linalg.int_array(ker, p).T
            P = linalg.int_array(linalg.imatmul(P, K), len(ker))
            vcache.clear()

    return NatHomResult(F, G, span, P.T.tolist(), blocks)


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
