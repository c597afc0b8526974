"""Exact natural-transformation solver between truncated functors.

A natural transformation out of a functor with declared module generators
is determined by its values on those generators.  Once per source functor,
a basis of every value F(t) is built by closing the generators under the
category's generator moves (span pass): one pass, exact vectors, kept by
independence mod p, for a word prime p.  Vectors independent mod p are
independent over Q, so dims[t] of them are a basis of F(t), with nothing
to lift, replay or certify.  The expansions of the move images of each
move key: s -> t, one rational matrix Gamma_key (F's relations, beside
unit columns), and of any other vector are read off one exact inverse of
the basis per size, on demand: functors.subspace_maps of the basis, whose
linalg.row_inverse eliminates the basis's sparse columns mod p, as the
pass did, and certifies the lifted inverse by one exact sparse product.
Solving hom(F, G) is then linear algebra in the unknown generator values:
each basis column corresponds to an explicit vector G(path)(v), and every
generator move contributes exact linear constraints, except those that
G's functoriality makes zero.  The pass records each kept vector b_i as
F(w_i) g_{a_i}: its generator and the set map its path composes.  When a
move key sends the record (a_j, w_j) of b_j to the record (a_j, key o w_j)
of a kept b_i, then F(key) b_j = b_i and eta(b_i) = G(key) eta(b_j) for any
generator value, so c(key, b_j) is zero and is skipped (SpanData.matches):
the images the pass accepted, and every span-tree edge that a relation of
FA closes.  A pfin(n) source keeps no constraint at all, by Yoneda.  The
constraint c(a, b_j) of a move a on a vector b_j = F(m) b_j' that the
pass built along m is skipped too when a relation a o m = m' o a' of FA
writes it as c(m', F(a') b_j') + G(m') c(a', b_j'), a combination of
constraints that come strictly earlier in the order (source size, span
index, position in gen_keys()) or are matches; by induction along that
order every skipped constraint vanishes once the kept ones do, for any
functors F and G.  Each kept constraint W is evaluated on the current
parameter basis P, and one that is nonzero cuts P at once: P <- P K^T for
K the kernel basis of W from the certified modular linalg.kernel_basis,
exact because that certifies W K = 0 over Q.  The move's later
constraints are then evaluated on the smaller P, the span values are
rebuilt from it on demand, and the solve stops once P has no column.  A
constraint W that is zero on P cuts nothing and is skipped.  Once every
kept constraint is imposed, col(P) is the space they cut out, whatever
the order of the cuts; the moves are taken by target size, so the large
top-degree data is only built on an already-small P.  The cuts
(linalg.imatmul) run on float64 BLAS under an exactness bound.  The span
values (each kept in lowest terms), W and P stay on int64 under linalg's
a-priori bound and move to Python ints above it.  Each span value's
max|arr| is computed once, when the value is made (SpanValue), and
travels with it into every bound it enters: G(move)'s row bound times it
for G(move) V, and the lincomb that makes W.  The solve fills its
NatHomResult in place; a span value is made on its first read, from its
parent's along the span path, and the result keeps those made on its
final P.  One method, NatHomResult._evaluate, evaluates every basis
solution at a vector given by its expansion in the span basis, as one
lincomb of span values: the constraints, the generators acted on by the
outer action and solution_matrix's unit vectors all read through it.  The
constraints of a move key: s -> t come from NatHomResult._constraints,
which evaluates c(key, b_j) for the span vectors b_j of F(s) it is given,
for the solve (the kept ones) and for verify alike.  verify evaluates them
on the final P for every j of every move, the skipped constraints too, one
span vector at a time: the span vectors are a basis of F(s), so that is
naturality on all of F(s), and verify consults no skip set and no cut of
the solve.  coordinates reads a block of generator values off p
independent rows of P, which the same certified engine picks, and checks
the other rows exactly: outer characters read the outer transpositions'
matrices on the solutions through one call, off whose products every
class's trace comes, and the checks the restricted Yoneda maps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import reduce
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import JointClassFunction, joint_decompose, representative
from . import linalg
from .functors import GenKey, OracleError, SpMat, TruncatedFunctor, move_map, perm_word, subspace_maps

Path = Tuple  # ("gen", a) | ("step", genkey, parent_t, parent_idx)
Record = Tuple[int, Tuple[int, ...]]  # (generator index a, set map w: d -> t)


@dataclass
class SpanData:
    """Spanning data: per size, a basis of F(t) with the construction path
    of each vector, and the expansion of every generator move in it.

    basis[t] is one SpMat whose column j is the vector that path j builds.
    gen_used flags the declared generators that actually entered the
    basis; redundant generators (possible for kernel-style builders) are
    absorbed into the span of the others and carry no free unknowns.
    records[t] maps the record (a, w) of each kept vector b_j = F(w) g_a at
    size t to j, in index order: a is the generator its path starts from,
    of size d, and w: d -> t the set map its moves compose.  expansions,
    gammas, match_sets and skip_sets cache expansion()'s, gamma()'s,
    matches()'s and skips()'s values."""

    F: TruncatedFunctor
    paths: List[List[Path]]
    gen_used: List[bool]
    basis: List[SpMat]
    records: List[Dict[Record, int]]
    expansions: Dict[int, SpMat] = field(default_factory=dict)
    gammas: Dict[GenKey, SpMat] = field(default_factory=dict)
    match_sets: Dict[GenKey, Set[int]] = field(default_factory=dict)
    skip_sets: Dict[GenKey, Set[int]] = field(default_factory=dict)

    def expansion(self, t: int) -> SpMat:
        """The map E_t, computed on first use, that takes a vector v of F(t)
        to its exact expansion E_t v in the basis at size t."""
        if t not in self.expansions:
            self.expansions[t] = subspace_maps(self.basis[t])[0]
        return self.expansions[t]

    def gamma(self, key) -> SpMat:
        """Gamma_key = E_t F(key) basis[s] for the move key: s -> t, computed
        on first use: column j expands the image of basis vector j, a unit
        column for an image that is a kept vector, an empty one for a zero
        image, F's relations otherwise.  It is exact, and unique because
        basis[t] is square."""
        if key not in self.gammas:
            s, t = TruncatedFunctor.gen_src_dst(key)
            E, move = self.expansion(t), self.F.act[key]
            self.gammas[key] = E.compose(move.compose(self.basis[s]))
        return self.gammas[key]

    def matches(self, key: GenKey) -> Set[int]:
        """The indices j whose constraint c(key, b_j) is identically zero,
        computed on first use: those whose record (a, w) moves along key to
        the record (a, key o w) of a kept b_i.  Then F(key) b_j = b_i, and
        eta(b_i) = G(key o w) eta(g_a) = G(key) eta(b_j) by G's
        functoriality alone, whatever the generator value eta(g_a).  They
        hold the images the pass accepted along key, and every span-tree
        edge that a relation of FA closes (tau o tau = id, fold o inc = id,
        two paths that compose one set map)."""
        if key not in self.match_sets:
            s, t = TruncatedFunctor.gen_src_dst(key)
            f, found = move_map(key), self.records[t]
            self.match_sets[key] = {
                j for j, (a, w) in enumerate(self.records[s])
                if (a, tuple(f[x] for x in w)) in found
            }
        return self.match_sets[key]

    def skips(self, key: GenKey) -> Set[int]:
        """The indices j whose constraint c(key, b_j) the solve skips,
        computed on first use: the matches(key), which are zero on their
        own, and the b_j = F(m) b_j' whose constraint _implied(key, m)
        writes through earlier ones.  Through tau_k o tau_l = tau_l o tau_k,
        c(tau_k, b_j) needs c(tau_l, b_i) for every b_i in the expansion of
        F(tau_k) b_j' (column j' of Gamma_key), so it is skipped only if
        each of those comes earlier, (i, l) < (j, k) as gen_keys() lists
        the transpositions of one size by index, or is one of matches(m)."""
        if key not in self.skip_sets:
            skip = set(self.matches(key))
            s = TruncatedFunctor.gen_src_dst(key)[0]
            for j, path in enumerate(self.paths[s]):
                if j in skip or path[0] == "gen" or not _implied(key, path[1]):
                    continue
                m, jp = path[1], path[3]
                if key[0] == m[0] == "tau":
                    zero = self.matches(m)
                    column = self.gamma(key).column_index().get(jp, ())
                    if not all((i, m[2]) < (j, key[2]) or i in zero for i, _ in column):
                        continue
                skip.add(j)
            self.skip_sets[key] = skip
        return self.skip_sets[key]


def _implied(a: GenKey, m: GenKey) -> bool:
    """Whether a relation a o m = m' o a' of FA, for a move a out of the
    size that the move m leads to, writes c(a, F(m) v) as
    c(m', F(a') v) + G(m') c(a', v) with both terms earlier in the order
    (source size, span index, position in gen_keys()), for a span vector v
    whose own image F(m) v the pass accepted.  Transpositions tau_k, tau_l
    with |k - l| >= 2 commute, and their expansion terms need the check in
    SpanData.skips.  A relation a o m = id (fold o inc, tau o tau) needs no
    rule: SpanData.matches finds its constraints."""
    if m[0] == "inc":
        # tau_k o inc = inc o tau_k away from the new point
        return a[0] == "tau" and a[2] <= a[1] - 2
    if m[0] == "tau":
        if a[0] == "fold":
            # fold o tau = fold on the fold's fibre; they commute away from it
            return m[2] == m[1] - 1 or m[2] <= m[1] - 3
        return a[0] == "tau" and abs(a[2] - m[2]) >= 2
    return False


def build_span(F: TruncatedFunctor) -> SpanData:
    """The span pass over F: one pass, exact vectors, kept by independence
    mod p.  It closes the generators under the generator moves in heap
    order and keeps a vector when it is independent mod p of the vectors
    kept before it at its size.  Vectors independent mod p are
    independent over Q, so once every size t has dims[t] of them they are
    a basis over Q: the first prime that divides no move denominator and
    leaves no size short gives the span, with nothing to lift or check.
    A size left short is a shortfall of the generators only if the kept
    vectors already span a subfunctor (_spans_subfunctor); otherwise the
    prime was unlucky, and the next one is taken."""
    if F.span_cache is not None:
        return F.span_cache
    for p in linalg._primes():
        span = _span_pass(F, p)
        if span is None:
            continue
        short = [t for t in range(F.N + 1) if len(span.paths[t]) < F.dims[t]]
        if not short:
            break
        if _spans_subfunctor(span):
            t = short[0]
            raise OracleError(
                f"{F.name}: generators span only {len(span.paths[t])} of "
                f"{F.dims[t]} dimensions at size {t}"
            )
    else:
        raise ArithmeticError("the modular span pass ran out of word primes")
    F.span_cache = span
    return span


def _span_pass(F: TruncatedFunctor, p: int):
    """One span pass mod p: the SpanData, or None when p divides a move
    denominator.  A popped path whose record (generator, set map) a kept
    vector already has builds that vector again, and is dropped unbuilt.
    Any other is built from its parent's kept column as a sparse integer
    column num / den in lowest terms, and kept by its residues
    num * den^-1 mod p."""
    if any(m.den % p == 0 for m in F.act.values()):
        return None
    sizes = range(F.N + 1)
    paths: List[List[Path]] = [[] for _ in sizes]
    vecs: List[List[Tuple[Dict[int, int], int]]] = [[] for _ in sizes]
    bases = [linalg.ModColumnBasis(p) for _ in sizes]
    records: List[Dict[Record, int]] = [{} for _ in sizes]
    words: List[List[Record]] = [[] for _ in sizes]  # records[t] in index order
    moves_of: Dict[int, List[Tuple]] = {t: [] for t in sizes}
    for key in F.gen_keys():
        s, t = TruncatedFunctor.gen_src_dst(key)
        moves_of[s].append((key, t))

    counter = itertools.count()
    heap = [(d, next(counter), ("gen", a)) for a, (d, _) in enumerate(F.generators)]
    heapq.heapify(heap)
    while heap:
        t, _, path = heapq.heappop(heap)
        # a full size accepts nothing more
        if len(paths[t]) == F.dims[t]:
            continue
        if path[0] == "gen":
            record = (path[1], tuple(range(t)))
        else:
            a, w = words[path[2]][path[3]]
            f = move_map(path[1])
            record = (a, tuple(f[x] for x in w))
        # a path whose set map a kept one already composes builds its vector
        if record in records[t]:
            continue
        if path[0] == "gen":
            col = F.generators[path[1]][1].tolist()
            num, den = {i: v for i, v in enumerate(col) if v}, 1
        else:
            (num, den), mat = vecs[path[2]][path[3]], F.act[path[1]]
            num, den = mat.apply_int(num), den * mat.den
            g = gcd(den, *num.values())
            num, den = {i: v // g for i, v in num.items()}, den // g
        inv = pow(den, -1, p)
        idx = bases[t].add({i: r for i, v in num.items() if (r := v * inv % p)})
        if idx is None:
            continue
        paths[t].append(path)
        vecs[t].append((num, den))
        records[t][record] = idx
        words[t].append(record)
        for key, t2 in moves_of[t]:
            heapq.heappush(heap, (t2, next(counter), ("step", key, t, idx)))
    del bases  # the residues are done with: free them before the assembly
    basis = []
    for t in sizes:
        # every column over the lcm D of their denominators
        D = lcm(*(den for _, den in vecs[t]))
        entries = [(i, j, v * (D // den)) for j, (num, den) in enumerate(vecs[t])
                   for i, v in num.items()]
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        basis.append(SpMat(F.dims[t], len(vecs[t]), rows, cols, vals, D))
    used = {path[1] for t in sizes for path in paths[t] if path[0] == "gen"}
    return SpanData(F, paths, [a in used for a in range(len(F.generators))], basis, records)


def _spans_subfunctor(span: SpanData) -> bool:
    """Whether the basis vectors span a subfunctor that holds the declared
    generators, by the residual projections pi_t of subspace_maps along the
    span of basis[t], the stability test of the induced functors: for every
    move key: s -> t, pi_t F(key) basis[s] = 0, and pi_d g = 0 for every
    declared generator g of size d.  The outer action is left out: a
    generated span need not be stable under it."""
    F = span.F
    projs = [subspace_maps(B)[1] for B in span.basis]
    return not any(projs[d].apply_dense(g).any() for d, g in F.generators) and all(
        projs[t].compose(F.act[key].compose(span.basis[s])).is_zero()
        for key in F.gen_keys() for s, t in [TruncatedFunctor.gen_src_dst(key)])


class SpanValue(tuple):
    """A span value (arr, den) for arr / den, with amax = max|arr| computed once."""

    def __new__(cls, arr: np.ndarray, den: int):
        value = super().__new__(cls, (arr, den))
        value.amax = int(np.abs(arr).max(initial=0))
        return value


class NatHomResult:
    """Solution space of natural transformations F -> G at truncation N.

    P is the parameter basis, an n_v x dimension integer array: its k-th
    column holds the values of the k-th basis solution on the used
    generators, block by block.  constraints counts the constraints of the
    moves the solve reached: skipped as matched (zero by G's functoriality)
    or as implied, kept, and nonzero: the kept constraints that were nonzero
    on the P they were evaluated on, each of which cut P, so a kept
    constraint that an earlier cut already imposed counts as zero.  The
    solve fills the result in place: a result keeps the span values its solve made on the
    final P, and makes the others on first use."""

    def __init__(self, F, G, span, P: np.ndarray, blocks,
                 constraints: Optional[Dict[str, int]] = None):
        self.F, self.G = F, G
        self.span = span
        self.P = P
        # blocks: generator index -> (degree, offset), used generators only
        self.blocks = blocks
        self.constraints = constraints or {}
        # the span values on P made so far; cleared when P is cut
        self._vcache: Dict[Tuple[int, int], SpanValue] = {}

    @property
    def dimension(self) -> int:
        return self.P.shape[1]

    @property
    def n_v(self) -> int:
        return sum(self.G.dims[d] for d, _ in self.blocks.values())

    def _value(self, key: Tuple[int, int]) -> SpanValue:
        """Values on the span basis vector key = (size, index) of the
        solutions given by P's columns, as (int array, denominator) in
        lowest terms: the rows of P holding a generator's values, and
        G(move) of the parent's value for a vector built along a move.  A
        value is made on its first read, from its parent's, and cached."""
        value = self._vcache.get(key)
        if value is None:
            t, idx = key
            path = self.span.paths[t][idx]
            if path[0] == "gen":
                d, off = self.blocks[path[1]]
                value = SpanValue(self.P[off : off + self.G.dims[d]].copy(), 1)
            else:
                _, gkey, pt, pidx = path
                parent = self._value((pt, pidx))
                m = self.G.act[gkey]
                arr, den = m.apply_dense(parent[0], parent.amax), parent[1] * m.den
                g = gcd(den, int(np.gcd.reduce(arr, axis=None))) if den > 1 else 1
                if g > 1:
                    arr, den = arr // g, den // g
                value = SpanValue(arr, den)
            self._vcache[key] = value
        return value

    def _evaluate(
        self, t: int, expansion: Iterable[Tuple[int, int]], den: int, less: Optional[Tuple] = None
    ) -> Tuple[np.ndarray, int]:
        """Every basis solution at the vector sum_i c b_i / den of F(t),
        given its expansion [(i, c)] in the span basis, less arr / lden for
        less = (arr, lden, amax) when given, amax >= max|arr|: (Y, D) with
        Y / D the G.dims[t] x dimension array of values, D the common
        denominator of the terms.  Y is one lincomb of the span values,
        bounded by their amax; less leads it, so that the span values with
        a unit coefficient add in place."""
        # (coefficient, array, denominator, max|array|) of each term
        terms = [] if less is None else [(-1, *less)]
        for i, c in expansion:
            v = self._value((t, i))
            terms.append((c, v[0], den * v[1], v.amax))
        D = lcm(*(d for _, _, d, _ in terms))
        return linalg.lincomb([(arr, c * (D // d)) for c, arr, d, _ in terms], [mx for *_, mx in terms]), D

    def solution_matrix(self, k: int, t: int) -> SpMat:
        """The t-component of the k-th basis solution, as an exact matrix,
        evaluated on one unit vector of F(t) at a time."""
        E = self.span.expansion(t)
        cols = [self._evaluate(t, E.column_index()[c], E.den) for c in range(self.F.dims[t])]
        D = lcm(*(den for _, den in cols))
        Y = np.empty((self.G.dims[t], len(cols)), dtype=object)
        for c, (col, den) in enumerate(cols):
            Y[:, c] = col[:, k].astype(object) * (D // den)
        return SpMat.from_dense(Y, D)

    def _constraints(self, key: GenKey, js: Iterable[int]) -> Iterator[np.ndarray]:
        """W = L c(key, b_j) on the current P for each j of js in turn, for
        the move key: s -> t and the span vectors b_j of F(s):
        c(key, b_j) = eta_t(F(key) b_j) - G(key) eta_s(b_j), with F(key) b_j
        expanded by column j of Gamma_key, as a G.dims[t] x p integer array
        over the common denominator L of its terms.  The move's data are
        looked up once.  A solution is natural on b_j along key iff its
        column of W is zero."""
        s, t = TruncatedFunctor.gen_src_dst(key)
        gamma, m = self.span.gamma(key), self.G.act[key]
        columns = gamma.column_index()
        for j in js:
            sarr, sden = sval = self._value((s, j))
            # G(key)'s row bound bounds G(key) eta_s(b_j)
            yield self._evaluate(t, columns.get(j, ()), gamma.den, (
                m.apply_dense(sarr, sval.amax), m.den * sden, m.row_bound * sval.amax))[0]

    def verify(self) -> None:
        """Exact re-check that every basis solution is natural.  The span
        vectors b_j of F(s) are a basis, so a solution is natural on the
        move key: s -> t iff c(key, b_j) = 0 for every j.  verify evaluates
        _constraints on the final P for every j of every move whose target
        is nonzero, the skipped constraints too: it reads neither the skip
        sets nor the kernels the solve cut P by, and holds one span vector's
        constraint at a time."""
        if not self.dimension:
            return
        for key in self.F.gen_keys():
            s, t = TruncatedFunctor.gen_src_dst(key)
            if not self.G.dims[t]:
                continue
            # map lets each W go before the next is made
            if any(map(np.ndarray.any, self._constraints(key, range(self.F.dims[s])))):
                raise OracleError("solution fails naturality")

    # -- outer characters ---------------------------------------------------

    def _outer_matrices(self) -> Tuple[List[np.ndarray], List[np.ndarray], int]:
        """(L, R, D): L[i - 1] / D is the p x p matrix over the basis solutions
        of eta |-> eta rho_F(s_i), s_i an outer transposition of F, and
        R[i - 1] / D that of eta |-> rho_G(s_i) eta.  One coordinates call reads
        them all and checks col(P) stable under the outer action they generate."""
        acted = []  # per transposition, (Y, den) per used block: its values Y / den
        for i in range(1, self.F.outer_n):
            acted.append([])
            for a, (d, _) in self.blocks.items():
                rho, E = self.F.outer_act[(i, d)], self.span.expansion(d)
                C = E.apply_dense(rho.apply_dense(self.F.generators[a][1])).tolist()
                acted[-1].append(self._evaluate(d, [(j, c) for j, c in enumerate(C) if c], E.den * rho.den))
        m = len(acted)
        for i in range(1, self.G.outer_n):
            rhos = [(self.G.outer_act[(i, d)], off, d) for d, off in self.blocks.values()]
            acted.append([(rho.apply_dense(self.P[off : off + self.G.dims[d]]), rho.den) for rho, off, d in rhos])
        den = lcm(*(yden for blocks in acted for _, yden in blocks))
        Y, D = self.coordinates(np.hstack([
            np.concatenate([linalg.lincomb([(arr, den // yden)]) for arr, yden in blocks])
            for blocks in acted])) if acted else (None, 1)
        mats = np.hsplit(Y, len(acted)) if acted else []
        return mats[:m], mats[m:], D * den

    def coordinates(self, A: np.ndarray) -> Tuple[np.ndarray, int]:
        """(Y, D) with P Y = D A, checked exactly, for an n_v x c integer
        array A of generator values: Y / D holds the coordinates of A's
        columns over the basis solutions.  They are read off the expansion
        E of subspace_maps of P, and the residual pi checks them: pi A = 0
        iff A's columns lie in P's span.  Raises OracleError if a column of
        A is no solution."""
        E, pi, _, _ = subspace_maps(SpMat.from_dense(self.P))
        if pi.apply_dense(A).any():
            raise OracleError("a column leaves the solution space")
        return E.apply_dense(A), E.den

    def outer_character(self) -> JointClassFunction:
        """The character of eta |-> rho_G(h) eta rho_F(g): the exact trace of
        the L's along g's word times the R's along h's (_outer_matrices).
        Either letter order gives the matrix of g or of g^-1, of one class."""
        s_deg, t_deg = self.F.outer_n, self.G.outer_n
        values = dict.fromkeys(itertools.product(partitions_of(s_deg), partitions_of(t_deg)), 0)
        p = self.dimension
        if not p:
            return JointClassFunction(s_deg, t_deg, values)
        L, R, D = self._outer_matrices()
        products = []  # per side, (X, den) per class: X / den the product along its word
        for mats, deg in ((L, s_deg), (R, t_deg)):
            words = [perm_word(representative(lam)) for lam in partitions_of(deg)]
            products.append([(reduce(linalg.imatmul, [mats[i - 1] for i in w], np.eye(p, dtype=np.int64)),
                              D ** len(w)) for w in words])
        for key, ((X, xden), (Z, zden)) in zip(values, itertools.product(*products)):
            # tr(X Z) = vec(X) . vec(Z^T), one exact product
            num = int(linalg.imatmul(X.reshape(1, -1), Z.T.reshape(-1, 1))[0, 0])
            values[key], rem = divmod(num, xden * zden)
            if rem:
                raise OracleError(f"non-integral outer character value {num}/{xden * zden}")
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
    counts = dict.fromkeys(("matched", "implied", "kept", "nonzero"), 0)
    res = NatHomResult(F, G, span, np.eye(off, dtype=np.int64), blocks, counts)
    keys = sorted(
        F.gen_keys(),
        key=lambda k: (max(TruncatedFunctor.gen_src_dst(k)), k[0] != "tau"),
    )
    for key in keys:
        s, t = TruncatedFunctor.gen_src_dst(key)
        if not (F.dims[s] and G.dims[t]):
            continue
        if not res.dimension:
            break
        skip = span.skips(key)
        matched = len(span.matches(key))
        counts["matched"] += matched
        counts["implied"] += len(skip) - matched
        counts["kept"] += F.dims[s] - len(skip)
        # the generator evaluates each W on the P of its turn, so the
        # constraints after a cut are evaluated on the smaller P
        for W in res._constraints(key, [j for j in range(F.dims[s]) if j not in skip]):
            if not W.any():
                continue
            counts["nonzero"] += 1
            # cut by W's own kernel: the span values are rebuilt from the new P on demand
            res.P = linalg.int_array(linalg.imatmul(res.P, linalg.kernel_basis(W).T))
            res._vcache.clear()
            if not res.dimension:
                break
    return res


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
    return total - linalg.rank(SpMat.from_dense(np.concatenate(rows))) if rows else total
