"""Explicit matrix realizations of modules over the finite-set category.

A TruncatedFunctor stores dimensions and generator-action matrices on all
set sizes <= N.  The category is presented by three moves, whose set maps
move_map alone defines: the adjacent transpositions within each
automorphism group, the order-preserving inclusion t -> t+1 and the fold
t+1 -> t of the top two points.  Every map between skeleton objects is a
word in these (factor_map), and every outer permutation a word in the
outer transpositions (perm_word); one product, _word_matrix, folds either
word into its matrix.  So naturality need only be imposed on generators
(with exhaustive small-size functoriality checks as a safety net).

Matrices are linalg.SpMat: exact sparse integer matrices with one
denominator, whose entries follow linalg.int_dtype like every other oracle
array.  Vectors of a value F(t), and blocks of them, are dense integer
arrays: a rational one is an integer array x with a denominator den,
standing for x / den.  The basic builders hold the basis of each size as
an integer array of tuples, all through one skeleton, _functor_from_action:
it refuses a truncation below 2, or a generator above N, before it makes
any tuple, and degree 0 is its general case (a difference basis has no
tuple at size 0, which has no base point).  One lookup, _TupleBasis,
finds tuples in such a basis by mixed-radix code and builds every matrix
on one from signed image tuples: each move's, the exterior-power embedding
and those of the oracle checks.  Quotients and subfunctors are
induced by sparse products: one function, subspace_maps, turns the
linalg.row_inverse (J, I, X, C) of the subspace's columns S,
X = S[I, J]^-1 and C = S[free, J] X, into the expansion map E_t(v) = X v[I]
onto the basis S[:, J] and the residual projection pi_t(v) = v[free] -
C v[I] along it onto the rows free outside I, each one SpMat, so that a move
m: s -> t induces pi_t m on the quotient and E_t m Sub_s on the
subfunctor, and pi_t m Sub_s = 0 certifies that the subspace is stable.

Set elements are 0-indexed: the object of size t is {0, .., t-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..partitions import Partition, partitions_of
from ..symrep import ClassFunction, IrrDecomposition, character_table, decompose
from . import linalg
from .linalg import SpMat


class OracleError(RuntimeError):
    pass


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


def _swap(t: int, a: int, b: int) -> Tuple[int, ...]:
    """The permutation of t points exchanging a and b, as an image tuple."""
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
        p = _swap(t, missing, t - 1)
        pf = tuple(p[x] for x in f)
        return factor_map(pf, s, t - 1) + (("inc", t - 1),) + factor_map(p, t, t)
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
    return factor_map(rho, s, s) + (("fold", s - 1),) + factor_map(f2, s - 1, t)


@lru_cache(maxsize=None)
def move_map(key: Tuple) -> Tuple[int, ...]:
    """The set map of the generator move key, as an image tuple: ("inc", t)
    is the inclusion t -> t+1, ("fold", t) the fold t+1 -> t sending t to
    t-1, and ("tau", t, i) swaps i-1 and i in t."""
    kind, t = key[0], key[1]
    if kind == "tau":
        return _swap(t, key[2] - 1, key[2])
    return tuple(range(t)) + ((t - 1,) if kind == "fold" else ())


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

    def outer_transposition(self, i: int, t: int) -> SpMat:
        """The outer transposition of i-1 and i at size t.  outer_act need
        not hold it at a size of dimension 0, where it is the 0 x 0 matrix."""
        return self.outer_act[(i, t)] if self.dims[t] else SpMat.zeros(0, 0)

    def outer_matrix(self, g: Tuple[int, ...], t: int) -> SpMat:
        """The outer action of g at size t, a right action:
        outer_matrix(g) outer_matrix(h) = outer_matrix(h o g).  The outer
        transpositions are applied along g's word, first letter first."""
        return _word_matrix([self.outer_transposition(i, t) for i in perm_word(g)], self.dims[t])

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


def is_natural(F: TruncatedFunctor, G: TruncatedFunctor, mats: List[SpMat]) -> bool:
    """Whether the maps mats[t]: F(t) -> G(t) commute with every generator
    move m: s -> t, mats[t] F(m) = G(m) mats[s], exactly."""
    for key in F.gen_keys():
        s, t = F.gen_src_dst(key)
        if not mats[t].compose(F.act[key]).equals(G.act[key].compose(mats[s])):
            return False
    return True


def map_matrix(F: TruncatedFunctor, f: Tuple[int, ...], s: int, t: int) -> SpMat:
    """Matrix of F on an arbitrary set map f: s -> t (image tuple)."""
    if s > F.N or t > F.N:
        raise OracleError("map exceeds truncation")
    return _word_matrix([F.act[step] for step in factor_map(tuple(f), s, t)], F.dims[s])


def _word_matrix(mats: List[SpMat], dim: int) -> SpMat:
    """The product of a word of matrices on a space of dimension dim, the
    first letter applied first."""
    mat = SpMat.identity(dim)
    for m in mats:
        mat = m.compose(mat)
    return mat


# ---------------------------------------------------------------------------
# Basic builders


def _check_truncation(N: int) -> None:
    if N < 2:
        raise OracleError("truncation below 2 leaves nothing to check")


# the signed images of a block of basis tuples: (image tuples as rows, a
# sign for all of them or one per row) per term
Terms = List[Tuple[np.ndarray, object]]


class _TupleBasis:
    """A basis of tuples with entries below base, the rows of an integer
    array B in lexicographic order, looked up by mixed-radix code: a tuple's
    entries read as digits base `base`, so the codes of B's rows are sorted."""

    def __init__(self, B: np.ndarray, base: int):
        self.dim, width = B.shape
        if not self.dim:
            # an empty basis finds nothing, so it forms no radix: the
            # zero module kfi(n), n > N, has width n at every size
            return
        self.radix = np.array([base ** e for e in range(width - 1, -1, -1)],
                              dtype=linalg.int_dtype(base ** width))
        self.codes = B.astype(self.radix.dtype, copy=False) @ self.radix

    def index(self, images: np.ndarray) -> np.ndarray:
        """The basis index of each row of images, -1 where none."""
        if not self.dim:
            return np.full(len(images), -1)
        code = images.astype(self.radix.dtype, copy=False) @ self.radix
        i = np.minimum(np.searchsorted(self.codes, code), self.dim - 1)
        return np.where(self.codes[i] == code, i, -1)

    def matrix(self, ncols: int, terms: Terms) -> SpMat:
        """The matrix whose column j is the signed sum of the j-th rows of
        the terms' images; an image outside the basis counts as zero."""
        parts = []
        for images, sign in terms:
            i = self.index(images)
            hit = np.flatnonzero(i >= 0)
            parts.append((i[hit], hit, sign[hit] if isinstance(sign, np.ndarray) else np.full(len(hit), sign)))
        return SpMat(self.dim, ncols, *(np.concatenate(part) for part in zip(*parts)))


def _functor_from_action(
    N: int,
    width: int,
    tuples: Callable[[int], Iterable[Tuple[int, ...]]],
    action: Callable[[np.ndarray, np.ndarray], Terms],
    gen: Optional[Tuple[int, Tuple[int, ...]]],
    name: str,
    outer_n: int = 0,
) -> TruncatedFunctor:
    """The functor with basis tuples(t) at size t, tuples of the given
    width in lexicographic order, on which a set map g (an index array)
    sends the rows of an array B of basis tuples to the signed tuples of
    action(g, B); tuples outside the target basis count as zero.  Each
    size's tuples are looked up by one _TupleBasis, so each move's matrix
    is a few array operations over the whole basis.  With outer_n > 0 the
    basis tuples are tensor positions, permuted by the outer
    transpositions.  gen is the generating basis tuple with its size, if
    any.  A truncation below 2, or a generator above N, is refused before
    any tuple is made; degree 0 needs no case of its own."""
    _check_truncation(N)
    if gen is not None and gen[0] > N:
        raise OracleError(f"{name} needs N >= {gen[0]}")
    bases = [_tuples(tuples(t), width) for t in range(N + 1)]
    lookups = [_TupleBasis(B, t) for t, B in enumerate(bases)]
    dims = [L.dim for L in lookups]
    F = TruncatedFunctor(N, dims, {}, [], name=name, outer_n=outer_n)
    for key in F.gen_keys():
        s, t = F.gen_src_dst(key)
        F.act[key] = lookups[t].matrix(dims[s], action(np.array(move_map(key), dtype=np.int64), bases[s]))
    # a size with no tuple needs no outer matrix (outer_transposition), so
    # the zero module makes no swap
    sizes = [t for t in range(N + 1) if dims[t]]
    for i in range(1, outer_n if sizes else 0):
        swap = list(move_map(("tau", outer_n, i)))
        for t in sizes:
            F.outer_act[(i, t)] = lookups[t].matrix(dims[t], [(bases[t][:, swap], 1)])
    if gen is not None:
        d, tup = gen
        col = np.zeros(dims[d], dtype=np.int64)
        col[lookups[d].index(_tuples([tup], len(tup)))] = 1
        F.generators.append((d, col))
    return F


def _tuples(tuples, width: int) -> np.ndarray:
    """The tuples of the given width, in order, as the rows of an integer array."""
    tuples = list(tuples)
    return np.array(tuples, dtype=np.int64).reshape(len(tuples), width)


def _values(g: np.ndarray, B: np.ndarray) -> Terms:
    """A set map applied value by value."""
    return [(g[B], 1)]


def _differences(g: np.ndarray, B: np.ndarray) -> Terms:
    """The product over the entries y of each row of ([g(y)] - [g(0)]), in
    the difference basis with base point 0.  [0] = 0, so a tuple holding 0
    is no basis tuple, and the lookup drops it; when g(0) = 0 only the
    term without [g(0)] is left (also for the empty basis at 0)."""
    images = g[B]
    if not (len(B) and g[0]):
        return [(images, 1)]
    return _difference_terms(images, g[0])


def _difference_terms(images: np.ndarray, base) -> Terms:
    """Expansion of the product over the entries y of each row of images
    of ([y] - [base]), base one point or a column of one point per row: one
    term per set of positions that take [base], signed by its size."""
    return [(np.where(at, base, images), (-1) ** sum(at))
            for at in itertools.product((False, True), repeat=images.shape[1])]


def _wedge(action: Callable[[np.ndarray, np.ndarray], Terms]) -> Callable[[np.ndarray, np.ndarray], Terms]:
    """action read in the exterior power: each image tuple sorted, with the
    sign of the sorting permutation.  A tuple with a repeated entry is no
    basis tuple, and the lookup drops it."""

    def wedged(g: np.ndarray, B: np.ndarray) -> Terms:
        terms: Terms = []
        for images, sign in action(g, B):
            width = images.shape[1]
            inversions = sum((images[:, i] > images[:, j]).astype(np.int64)
                             for i in range(width) for j in range(i + 1, width))
            terms.append((np.sort(images, axis=1), sign * (1 - 2 * (inversions % 2))))
        return terms

    return wedged


def build_pfin(n: int, N: int) -> TruncatedFunctor:
    """Standard projective of degree n: X |-> k[X]^{(x)n}, basis = tuples.

    Outer action: place permutations of the n tensor positions."""
    return _functor_from_action(N, n, lambda t: itertools.product(range(t), repeat=n), _values,
                                (n, tuple(range(n))), f"pfin({n})", outer_n=n)


def build_k0(N: int) -> TruncatedFunctor:
    """The module supported on the empty set."""
    return _functor_from_action(N, 0, lambda t: [()] if t == 0 else [], _values, (0, ()), "k0")


def build_const_k(N: int) -> TruncatedFunctor:
    """The constant module k."""
    return _functor_from_action(N, 0, lambda t: [()], _values, (0, ()), "k")


def build_kbar(N: int) -> TruncatedFunctor:
    """The constant module restricted to nonempty sets."""
    return _functor_from_action(N, 0, lambda t: [()] if t else [], _values, (1, ()), "kbar")


def build_kfi(n: int, N: int) -> TruncatedFunctor:
    """Injection module of degree n; non-injective composites act by 0.
    Above N it has no generator and is zero."""
    gen = (n, tuple(range(n))) if n <= N else None
    return _functor_from_action(N, n, lambda t: itertools.permutations(range(t), n), _values,
                                gen, f"kfi({n})", outer_n=n)


def build_pbar_tensor(n: int, N: int) -> TruncatedFunctor:
    """Tensor power of the reduced standard projective, in the difference
    basis with base point 0: value at t >= 1 has basis {1..t-1}^n, the
    tuple y standing for the product of ([y_i] - [0]); none at t = 0,
    which has no base point (so degree 0 is kbar)."""
    return _functor_from_action(N, n, lambda t: itertools.product(range(1, t), repeat=n) if t else [],
                                _differences, (n + 1, tuple(range(1, n + 1))), f"pbar({n})", outer_n=n)


# ---------------------------------------------------------------------------
# Exterior powers (direct wedge-basis constructions)


def build_lambda_pfin(k: int, N: int) -> TruncatedFunctor:
    """k-th exterior power of the standard degree-one projective.

    Basis at t: k-subsets of {0..t-1}; a set map acts by the wedge of its
    values (zero on collisions)."""
    return _functor_from_action(N, k, lambda t: itertools.combinations(range(t), k), _wedge(_values),
                                (k, tuple(range(k))), f"lambda_pfin({k})")


def build_lambda_pbar(k: int, N: int) -> TruncatedFunctor:
    """k-th exterior power of the reduced projective, in wedge-difference
    coordinates: basis at t >= 1 is the k-subsets of {1..t-1}, on which a
    set map acts by the wedge over y in S of (e_{g(y)} - e_{g(0)}), e_0 =
    0; none at t = 0, which has no base point (so degree 0 is kbar)."""
    return _functor_from_action(N, k, lambda t: itertools.combinations(range(1, t), k) if t else [],
                                _wedge(_differences), (k + 1, tuple(range(1, k + 1))), f"lambda_pbar({k})")


def lambda_pbar_embedding(n: int, N: int) -> List[SpMat]:
    """The top exterior power inside the n-th tensor power of the reduced
    projective (difference-tuple coordinates): per set size t, a
    dims[t] x c integer SpMat whose columns span it."""
    # each subset's column: its entries in every order, signed by the
    # order's parity, the length of its word (the number of its inversions)
    orders = [(list(p), (-1) ** len(perm_word(p))) for p in itertools.permutations(range(n))]
    cols: List[SpMat] = []
    for t in range(N + 1):
        # no tuple at t = 0, which has no base point
        subsets = _tuples(itertools.combinations(range(1, t), n) if t else [], n)
        basis = _TupleBasis(_tuples(itertools.product(range(1, t), repeat=n) if t else [], n), t)
        cols.append(basis.matrix(len(subsets), [(subsets[:, p], sign) for p, sign in orders]))
    return cols


# ---------------------------------------------------------------------------
# Derived builders: quotients, direct sums, isotypic pieces


def quotient_functor(
    parent: TruncatedFunctor,
    sub_columns: List[SpMat],
    name: str,
) -> TruncatedFunctor:
    """Quotient of `parent` by the subfunctor spanned by the columns of the
    integer SpMats sub_columns[t], one per set size, which may be
    dependent.  Its coordinates at size t are the rows free of
    subspace_maps of the columns, and the residual map pi_t projects onto
    them: a move m: s -> t induces pi_t m on the quotient coordinates of
    size s.  Stability of the span under every generator,
    pi_t m Sub_s = 0, is verified exactly."""
    projs, incs = [], []
    for t, cols in enumerate(sub_columns):
        _, proj, free, _ = subspace_maps(cols)
        projs.append(proj)
        incs.append(SpMat.unit_columns(parent.dims[t], free))
    gens = []
    for d, col in parent.generators:
        pc = projs[d].apply_dense(col)
        if pc.any():
            gens.append((d, _cleared(pc, projs[d].den)))
    return _induced_functor(parent, projs, projs, incs, sub_columns, gens, name)


def subspace_maps(S: SpMat) -> Tuple[SpMat, SpMat, List[int], List[int]]:
    """(E, pi, free, J) for a SpMat S, read off its linalg.row_inverse
    (J, I, X, C): the expansion E(v) = X v[I] of a vector v of S's column
    span over the independent columns J; the rows free outside I; the
    residual pi(v) = v[free] - C v[I], the projection along S's column span
    onto them, zero exactly on the span; and J."""
    J, I, X, C = linalg.row_inverse(S)
    in_I = set(I)
    free = [j for j in range(S.m) if j not in in_I]
    I = np.array(I, dtype=np.int64)
    E = SpMat(X.m, S.m, X.rows, I[X.cols], X.vals, X.den)
    rows = np.concatenate([np.arange(len(free)), C.rows])
    cols = np.concatenate([np.array(free, dtype=np.int64), I[C.cols]])
    vals = np.concatenate([np.full(len(free), C.den, dtype=linalg.int_dtype(C.den)), -C.vals])
    return E, SpMat(len(free), S.m, rows, cols, vals, C.den), free, J


def _cleared(x: np.ndarray, den: int) -> np.ndarray:
    """The vector x / den with its denominators cleared: times the lcm of
    its entries' reduced denominators, which is den / gcd(den, x)."""
    return linalg.int_array(x // gcd(den, *x.tolist()))


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
    if not is_natural(F, G, mats):
        raise OracleError(f"{name}: the given map family is not natural")
    kernels = [linalg.kernel_basis(mats[t].int_rows()) for t in range(F.N + 1)]
    gens = [(t, x, 1) for t, K in enumerate(kernels) for x in K]
    return _subfunctor(F, [SpMat.from_dense(K.T) for K in kernels], gens, name)


def _subfunctor(
    F: TruncatedFunctor,
    columns: List[SpMat],
    gens: List[Tuple[int, np.ndarray, int]],
    name: str,
) -> TruncatedFunctor:
    """The subfunctor of F with the independent columns Sub_t of the
    integer SpMat columns[t] as its basis at size t, generated by the
    vectors x / den of their span given as gens (d, x, den).  With E_t the
    expansion map over Sub_t, a move m: s -> t acts by E_t m Sub_s, once
    the span is shown stable under F's generators and its outer action,
    and a generator v of size d is E_d v."""
    lefts, projs, _, kept = zip(*map(subspace_maps, columns))
    subs = [S.compose(SpMat.unit_columns(S.n, J)) for S, J in zip(columns, kept)]
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


def direct_sum(summands: List[TruncatedFunctor], name: str, outer_n: int = 0) -> TruncatedFunctor:
    """Direct sum, with each summand's own action of the outer
    transpositions 1..outer_n - 1 on its block."""
    N = summands[0].N
    dims = [sum(F.dims[t] for F in summands) for t in range(N + 1)]
    act = {key: _block_diagonal([F.act[key] for F in summands]) for key in summands[0].gen_keys()}

    gens = []
    offset_at = lambda idx, d: sum(F.dims[d] for F in summands[:idx])
    for idx, F in enumerate(summands):
        for d, col in F.generators:
            big = np.zeros(dims[d], dtype=col.dtype)
            off = offset_at(idx, d)
            big[off : off + F.dims[d]] = col
            gens.append((d, big))

    outer_act = {
        (i, t): _block_diagonal([F.outer_transposition(i, t) for F in summands])
        for i in range(1, outer_n) for t in range(N + 1)
    }
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
    if not is_natural(parent, parent, projs):
        raise OracleError("isotypic projector is not natural")

    # the independent integer columns of the projector, left to right, are the basis
    columns = [SpMat(*P.shape, P.rows, P.cols, P.vals) for P in projs]
    gens = [(d, projs[d].apply_dense(col), projs[d].den) for d, col in parent.generators]
    gens = [gen for gen in gens if gen[1].any()]
    if not gens and any(S.nnz for S in columns):
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
    lam_part = build_lambda_pfin(n + 1, N)
    if n == 0:
        # the quotient below is zero here; skipping it saves most of the build
        F = lam_part
        F.name = "P_0"
        return F
    pbar = build_pbar_tensor(n, N)
    quot = quotient_functor(
        pbar, lambda_pbar_embedding(n, N), name=f"pbar({n})/lambda"
    )
    # the outer transpositions act on the exterior power by the sign
    lam_part.outer_n = n
    lam_part.outer_act = {
        (i, t): SpMat.identity(lam_part.dims[t]).scale(-1) for i in range(1, n) for t in range(N + 1)
    }
    return direct_sum([lam_part, quot], name=f"P_{n}", outer_n=n)


# ---------------------------------------------------------------------------
# Characters and symmetric-sequence data


def inner_character(F: TruncatedFunctor, t: int) -> ClassFunction:
    """Character of the evaluation symmetric-group action on F(t)."""
    from ..symrep import representative

    values = {}
    for mu in partitions_of(t):
        rep = representative(mu)
        values[mu] = map_matrix(F, rep, t, t).trace()
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
    F(tau) x + x: (R, pi, free) with R the integer relation columns, one
    SpMat, free the quotient's coordinates and pi the residual projection
    onto them."""
    n = F.dims[t]
    R = SpMat.zeros(n, 0)
    if t > 1:
        relations = [F.act[("tau", t, i)] + SpMat.identity(n) for i in range(1, t)]
        R = SpMat(n, n * (t - 1), np.concatenate([m.rows for m in relations]),
                  np.concatenate([m.cols + n * i for i, m in enumerate(relations)]),
                  np.concatenate([m.vals for m in relations]))
    _, proj, free, _ = subspace_maps(R)
    return R, proj, free
