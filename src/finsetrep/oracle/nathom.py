"""Exact natural-transformation solver between truncated functors.

A natural transformation out of a functor with declared module generators
is determined by its values on those generators.  Once per source functor,
a spanning basis of every value F(t) is built by closing the generators
under the category's generator moves (span pass); the pass records the
expansion of every move image in that basis as it reduces the image.
The pass runs modulo word primes: the basis is chosen mod p, the
expansions are lifted to the rationals once, and every choice is then
certified by an exact sparse check, so its answer is the exact pass's;
a vector that is a copy of an accepted one is looked up, not reduced.
Exact expansions of other vectors are read off one integer inverse of
the basis per size (linalg.row_inverse), computed on demand.
Solving hom(F, G) is then linear algebra in the unknown generator values:
each basis column corresponds to an explicit vector G(path)(v), and every
generator move contributes exact linear constraints, except a move image
that the span pass accepted: its value is G(move) of its parent's by
construction, so its constraint is zero and is skipped.  Constraints are
folded into integer Gram matrices (x is in the kernel of sum W_i^T W_i iff
W_i x = 0 for all i, valid over the rationals), and the parameter space is
cut batch by batch so the large top-degree data is only built on an
already-small parameter space; after each cut the span values are rebuilt
from the new parameter basis.  The Gram products and the cuts
(linalg.imatmul) run on float64 BLAS under an exactness bound, and each
Gram's kernel through the certified modular linalg.kernel_basis.  The
span values (each kept in lowest terms), W, the Gram sums and the
parameter basis P stay on int64 under linalg's a-priori bound and move to
Python ints above it.  The solutions are read out on integer arrays: a
block of vectors of F(t) is expanded in the span basis, and one product
with the values of the span vectors that the expansion needs applies
every basis solution to the block.  solution_matrix and verify take the
block of unit vectors, once per size.  coordinates reads a block of
generator values off p independent rows of P, which the same certified
engine picks, and checks the other rows exactly: outer characters take
the acted-on solutions through it, and the checks the restricted Yoneda
maps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import JointClassFunction, joint_decompose, representative
from . import linalg
from .functors import OracleError, SpMat, TruncatedFunctor, _expansion_map

Path = Tuple  # ("gen", a) | ("step", genkey, parent_t, parent_idx)


@dataclass
class SpanData:
    """Spanning data: per size, a basis of reachable columns with their
    construction paths, and the expansion of every generator move.

    gen_used flags the declared generators that actually entered the
    basis; redundant generators (possible for kernel-style builders) are
    absorbed into the span of the others and carry no free unknowns.
    vecs holds the basis vectors themselves, vecs[t][idx] = (num, den)
    for the vector num / den with num a sparse integer column; bases
    caches the expansion map onto the basis of each size that expansion()
    was asked for, read off the linalg.row_inverse of the columns num."""

    F: TruncatedFunctor
    paths: List[List[Path]]
    order: List[Tuple[int, int]]
    gen_used: List[bool]
    gammas: Dict[Tuple, List[Dict[int, Fraction]]]
    vecs: List[List[Tuple[Dict[int, int], int]]]
    bases: Dict[int, SpMat] = field(default_factory=dict)

    def expansion(self, t: int) -> SpMat:
        """The expansion map E_t onto the basis at size t: E_t v is the exact
        expansion of a vector v of F(t) in that basis.  It is computed on
        first use."""
        if t not in self.bases:
            vecs = self.vecs[t]
            k = len(vecs)
            bound = max((abs(v) for num, _ in vecs for v in num.values()), default=0)
            S = np.zeros((self.F.dims[t], k), dtype=linalg.int_dtype(bound))
            for j, (num, _) in enumerate(vecs):
                S[list(num), j] = list(num.values())
            # a basis vector is num / den, so its coefficient is den times num's
            dens = SpMat(k, k, range(k), range(k), [den for _, den in vecs])
            self.bases[t] = dens.compose(_expansion_map(S, *linalg.row_inverse(S)))
        return self.bases[t]


def build_span(F: TruncatedFunctor) -> SpanData:
    """The span pass over F, run mod word primes and certified exactly.

    Each prime replays the pass: the same heap traversal, with every
    vector reduced in a ModColumnBasis.  A vector independent mod p is
    independent over Q, so it is accepted over Q as well; the expansion
    of every other vector (its residues, over more primes by CRT when
    rational reconstruction fails) is lifted and checked exactly against
    the columns before it.  Once every check holds, each choice of the
    pass is the one exact arithmetic makes, so paths, order and the
    expansions are those of an exact pass.  A prime whose choices differ
    fails a check, and the next one is taken."""
    if F.span_cache is not None:
        return F.span_cache
    best = None  # (choices, {path: (size, residues)}, modulus)
    for p in linalg._primes():
        run = _span_mod(F, p)
        if run is None:
            continue
        choices, rejected = run
        if best is not None and best[0] == choices:
            m = best[2]
            rejected = {
                path: (t, _crt_combo(best[1][path][1], m, combo, p))
                for path, (t, combo) in rejected.items()
            }
            best = (choices, rejected, m * p)
        else:
            # other choices than the primes before: one side is unlucky, and
            # the check rejects an unlucky prime, so start over from this one
            best = (choices, rejected, p)
        span = _certified_span(F, *best)
        if span is not None:
            break
    else:
        raise ArithmeticError("the modular span pass ran out of word primes")
    for t in range(F.N + 1):
        if len(span.paths[t]) != F.dims[t]:
            raise OracleError(
                f"{F.name}: generators span only {len(span.paths[t])} of "
                f"{F.dims[t]} dimensions at size {t}"
            )
    F.span_cache = span
    return span


def _span_mod(F: TruncatedFunctor, p: int):
    """One span pass mod p: ((paths, order), rejected), where rejected maps
    the path of every vector not accepted to its size and its expansion
    mod p over the columns accepted before it (empty for a vector that is
    zero mod p).  None when p divides a denominator of F's moves."""
    if any(m.den % p == 0 for m in F.act.values()):
        return None
    N = F.N
    paths: List[List[Path]] = [[] for _ in range(N + 1)]
    bases = [linalg.ModColumnBasis(p) for _ in range(N + 1)]
    order: List[Tuple[int, int]] = []
    rejected: Dict[Path, Tuple[int, Dict[int, int]]] = {}

    heap: List[Tuple[int, int, Path, Dict[int, int]]] = []
    counter = itertools.count()
    for a, (d, col) in enumerate(F.generators):
        vec = {i: v % p for i, v in enumerate(col.tolist()) if v % p}
        heapq.heappush(heap, (d, next(counter), ("gen", a), vec))

    moves_of: Dict[int, List[Tuple]] = {t: [] for t in range(N + 1)}
    for key in F.gen_keys():
        moves_of[TruncatedFunctor.gen_src_dst(key)[0]].append(key)
    inverses = {key: pow(m.den, -1, p) for key, m in F.act.items()}

    while heap:
        t, _, path, vec = heapq.heappop(heap)
        idx, combo = bases[t].add(vec)
        if idx is None:
            rejected[path] = (t, combo)
            continue
        paths[t].append(path)
        order.append((t, idx))
        for key in moves_of[t]:
            _, t2 = TruncatedFunctor.gen_src_dst(key)
            if F.dims[t2] == 0:
                continue
            inv = inverses[key]
            img = {}
            for i, v in F.act[key].apply_int(vec).items():
                v = v * inv % p
                if v:
                    img[i] = v
            step = ("step", key, t, idx)
            if img:
                heapq.heappush(heap, (t2, next(counter), step, img))
            else:
                rejected[step] = (t2, {})
    return (paths, order), rejected


def _crt_combo(a: Dict[int, int], m: int, b: Dict[int, int], p: int) -> Dict[int, int]:
    """The residues mod m * p that are a mod m and b mod p (sparse)."""
    minv = pow(m, -1, p)
    out = {}
    for i in a.keys() | b.keys():
        x, y = a.get(i, 0), b.get(i, 0)
        v = x + m * ((y - x) * minv % p)
        if v:
            out[i] = v
    return out


def _certified_span(F: TruncatedFunctor, choices, rejected, m: int):
    """The SpanData of the choices once every rejected vector's expansion,
    lifted from its residues mod m, is checked exactly to write it as a
    combination of the columns accepted before it; None otherwise."""
    paths, order = choices
    lifted: Dict[Path, Tuple[int, Dict[int, Fraction]]] = {}
    for path, (t, combo) in rejected.items():
        gamma = {}
        for i, a in combo.items():
            frac = linalg._ratrecon(a, m)
            if frac is None:
                return None
            gamma[i] = Fraction(*frac)
        lifted[path] = (t, gamma)

    vecs: List[List[Tuple[Dict[int, int], int]]] = [[] for _ in range(F.N + 1)]
    for t, idx in order:
        vecs[t].append(_path_vector(F, paths[t][idx], vecs))
    for path, (t, gamma) in lifted.items():
        num, den = _path_vector(F, path, vecs)
        if not _is_combination(num, den, gamma, vecs[t]):
            return None

    gammas: Dict[Tuple, List[Dict[int, Fraction]]] = {}
    for key in F.gen_keys():
        s, t = TruncatedFunctor.gen_src_dst(key)
        gammas[key] = [lifted.get(("step", key, s, j), (t, {}))[1] for j in range(len(paths[s]))]
    gen_used = [False] * len(F.generators)
    for t in range(F.N + 1):
        for idx, path in enumerate(paths[t]):
            if path[0] == "step":
                gammas[path[1]][path[3]] = {idx: Fraction(1)}
            else:
                gen_used[path[1]] = True
    return SpanData(F, paths, order, gen_used, gammas, vecs)


def _path_vector(F: TruncatedFunctor, path: Path, vecs) -> Tuple[Dict[int, int], int]:
    """The vector a path builds, as (num, den), from the basis vectors."""
    if path[0] == "gen":
        col = F.generators[path[1]][1]
        return {i: v for i, v in enumerate(col.tolist()) if v}, 1
    _, key, s, j = path
    num, den = vecs[s][j]
    m = F.act[key]
    num, den = m.apply_int(num), den * m.den
    g = gcd(den, *num.values())
    if g > 1:
        num, den = {i: v // g for i, v in num.items()}, den // g
    return num, den


def _is_combination(num, den, gamma: Dict[int, Fraction], basis) -> bool:
    """Whether num / den is exactly sum gamma[i] * basis[i]."""
    L = lcm(den, *(g.denominator * basis[i][1] for i, g in gamma.items()))
    acc = {r: -(L // den) * v for r, v in num.items()}
    for i, g in gamma.items():
        bnum, bden = basis[i]
        scale = g.numerator * (L // (g.denominator * bden))
        for r, v in bnum.items():
            acc[r] = acc.get(r, 0) + scale * v
    return not any(acc.values())


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
    rows of P holding its generator's values, as (int array, denominator)
    in lowest terms.  cache holds a prefix of span.order and is extended
    along it to key."""
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
            arr, den = m.apply_dense(parr), pden * m.den
            g = gcd(den, int(np.gcd.reduce(arr, axis=None))) if den > 1 else 1
            if g > 1:
                arr, den = arr // g, den // g
            cache[(t, idx)] = (arr, den)
    return cache[key]


class NatHomResult:
    """Solution space of natural transformations F -> G at truncation N.

    P is the parameter basis, an n_v x dimension integer array: its k-th
    column holds the values of the k-th basis solution on the used
    generators, block by block."""

    def __init__(self, F, G, span, P: np.ndarray, blocks):
        self.F, self.G = F, G
        self.span = span
        self.P = P
        # blocks: generator index -> (degree, offset), used generators only
        self.blocks = blocks
        self._vcache: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}
        self._solcache: Dict[int, List[SpMat]] = {}
        self._rinv = None

    @property
    def dimension(self) -> int:
        return self.P.shape[1]

    @property
    def n_v(self) -> int:
        return sum(self.G.dims[d] for d, _ in self.blocks.values())

    def _apply(self, t: int, X: np.ndarray, xden: int = 1) -> Tuple[np.ndarray, int]:
        """Every basis solution at size t applied to the columns of X / xden,
        X a dims[t] x c integer array of F(t): (Y, den) with Y a
        G.dims[t] x p x c integer array, Y[:, k, j] / den the k-th
        solution's value on the j-th column.  The columns are expanded in
        the span basis, and only the span vectors they need are valued."""
        E = self.span.expansion(t)
        C = E.apply_dense(X)
        support = np.flatnonzero(C.any(axis=1)).tolist()
        values = [
            _span_value(self.span, self.G, self.blocks, self.P, self._vcache, (t, i))
            for i in support
        ]
        # the values on their common denominator L, one row per span vector
        L = lcm(*(den for _, den in values))
        shape = (self.G.dims[t], self.dimension)
        V = (np.stack([linalg.lincomb([(arr, L // den)]) for arr, den in values]) if values
             else np.zeros((0,) + shape, dtype=np.int64))
        Y = linalg.imatmul(V.reshape(len(support), shape[0] * shape[1]).T, C[support])
        return Y.reshape(shape + (X.shape[1],)), L * E.den * xden

    def _solutions(self, t: int) -> List[SpMat]:
        """The t-components of all basis solutions, as exact matrices,
        computed once per size."""
        if t not in self._solcache:
            Y, den = self._apply(t, np.eye(self.F.dims[t], dtype=np.int64))
            self._solcache[t] = [SpMat.from_dense(Y[:, k], den) for k in range(self.dimension)]
        return self._solcache[t]

    def solution_matrix(self, k: int, t: int) -> SpMat:
        """The t-component of the k-th basis solution, as an exact matrix."""
        return self._solutions(t)[k]

    def verify(self) -> None:
        """Exact re-check that every basis solution is natural."""
        if not self.dimension:
            return
        etas = [self._solutions(t) for t in range(self.F.N + 1)]
        for key in self.F.gen_keys():
            s, t = TruncatedFunctor.gen_src_dst(key)
            for eta_s, eta_t in zip(etas[s], etas[t]):
                if not eta_t.compose(self.F.act[key]).equals(self.G.act[key].compose(eta_s)):
                    raise OracleError("solution fails naturality")

    # -- outer characters ---------------------------------------------------

    def _action_trace(self, g: Tuple[int, ...], h: Tuple[int, ...]) -> int:
        """Trace of (g, h) acting on the solution space by eta |->
        rho_G(h) eta rho_F(g), read off the parameter basis."""
        # the generator values of every basis solution acted on, block by
        # block: rows off.. of A / den are rho_G(h) eta(rho_F(g) w)
        acted = []
        for a, (d, off) in self.blocks.items():
            gmat = self.F.outer_matrix(g, d)
            w = gmat.apply_dense(self.F.generators[a][1].reshape(-1, 1))
            Y, yden = self._apply(d, w, gmat.den)
            hmat = self.G.outer_matrix(h, d)
            acted.append((hmat.apply_dense(Y[:, :, 0]), yden * hmat.den))
        den = lcm(*(aden for _, aden in acted))
        A = np.concatenate([linalg.lincomb([(arr, den // aden)]) for arr, aden in acted])
        Y, D = self.coordinates(A)
        tr = Fraction(int(np.trace(Y)), D * den)
        if tr.denominator != 1:
            raise OracleError(f"non-integral outer character value {tr}")
        return int(tr)

    def coordinates(self, A: np.ndarray) -> Tuple[np.ndarray, int]:
        """(Y, D) with P Y = D A, checked exactly, for an n_v x c integer
        array A of generator values: Y / D holds the coordinates of A's
        columns over the basis solutions.  They are read off the rows I of
        linalg.row_inverse of P, computed once per result; the other rows
        check them.  Raises OracleError if a column of A is no solution."""
        if self._rinv is None:
            self._rinv = linalg.row_inverse(self.P)
        I, Q, D = self._rinv
        Y = linalg.imatmul(Q, A[I])
        if not (linalg.imatmul(self.P, Y) == linalg.lincomb([(A, D)])).all():
            raise OracleError("a column leaves the solution space")
        return Y, D

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
    P = np.eye(n_v, dtype=np.int64)
    vcache: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}
    # a move image the span pass accepted is a basis vector whose value is
    # G(key) of its parent's: its constraint W is zero by construction
    accepted = {(path[1], path[3]) for paths in span.paths for path in paths if path[0] == "step"}
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
            if (key, j) in accepted:
                continue
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
        ker = linalg.kernel_basis(gram)
        if len(ker) < p:
            # cut: the span values are rebuilt from the new P on demand
            P = linalg.int_array(linalg.imatmul(P, ker.T))
            vcache.clear()

    return NatHomResult(F, G, span, P, blocks)


def nat_hom_dense_dim(F: TruncatedFunctor, G: TruncatedFunctor) -> int:
    """Reference solver over the raw matrix unknowns (tiny inputs only).

    The unknowns are the entries of every eta_t, row by row; a move
    key: s -> t constrains them by eta_t F(key) = G(key) eta_s, whose rows
    are G.den (I (x) F(key)^T) vec(eta_t) - F.den (G(key) (x) I) vec(eta_s)
    with the integer matrices of F(key) and G(key)."""
    offsets = np.cumsum([0] + [F.dims[t] * G.dims[t] for t in range(F.N + 1)])
    total = int(offsets[-1])
    rows = []
    for key in F.gen_keys():
        s, t = TruncatedFunctor.gen_src_dst(key)
        Fk, Gk = F.act[key], G.act[key]
        lhs = np.zeros((G.dims[t] * F.dims[s], total), dtype=np.int64)
        rhs = np.zeros_like(lhs)
        lhs[:, offsets[t] : offsets[t + 1]] = np.kron(np.eye(G.dims[t], dtype=np.int64), Fk.int_rows().T)
        rhs[:, offsets[s] : offsets[s + 1]] = np.kron(Gk.int_rows(), np.eye(F.dims[s], dtype=np.int64))
        rows.append(linalg.lincomb([(lhs, Gk.den), (rhs, -Fk.den)]))
    return total - linalg.rank(np.concatenate(rows)) if rows else total
