"""Exact character theory of symmetric groups.

Everything is computed exactly, in Python integers over one common
denominator where values are rational: character tables by the
Murnaghan-Nakayama recursion, inner products and decompositions into
irreducibles, induction products over Young subgroups (the degreewise Day
convolution), pointwise (Kronecker) products, sign twists, and the joint
characters of symmetric-group pairs acting on sets of maps between finite
sets.  Convention: the partition (1^n) indexes the sign representation.

The module is plain Python; numpy is imported only by
`enumerated_character`, the brute-force cross-check of the map-set
characters, so symbolic callers never load it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Dict, NamedTuple, Tuple

from .partitions import Partition, one_column, one_row, partitions_of


class _Table(NamedTuple):
    """Character data of one S_n; every sequence runs in partitions_of(n) order."""

    chars: Dict[Tuple[Partition, Partition], int]  # chi_lam(mu), keyed (lam, mu)
    sizes: Tuple[int, ...]  # class sizes |C_mu| = n!/z_mu
    rows: Dict[Partition, Tuple[int, ...]]  # lam -> (chi_lam(mu) for each mu)


_DEGREE_BOUND = 12
_table_lock = threading.Lock()
_table_cache: Dict[int, _Table] = {}


class DegreeBoundError(ValueError):
    """Raised when a symmetric-group degree exceeds the configured bound."""


def degree_bound() -> int:
    return _DEGREE_BOUND


def set_degree_bound(n: int) -> None:
    global _DEGREE_BOUND
    _DEGREE_BOUND = int(n)


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod_j j^{m_j} m_j! for cycle type mu."""
    z = 1
    mult: Dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for j, m in mult.items():
        z *= j**m * factorial(m)
    return z


def class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu in S_{|mu|}."""
    return factorial(mu.size) // centralizer_order(mu)


@lru_cache(maxsize=None)
def _mn_value(lam: Tuple[int, ...], mu: Tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: chi_lam evaluated on cycle type mu, both given as
    plain part tuples of equal size.

    A border strip of length ell = mu[0] is removed by moving one bead of
    the beta-set beta_i = lam_i + k - 1 - i (k = len(lam), strictly
    decreasing) from b to the free position b - ell; its sign is (-1) to
    the number of beads jumped.  The beads are stepped through in order, so
    each move is read off as the new part tuple directly: the rows of the
    beads jumped move up one row and lose one box, the moved bead's row
    follows them, and zero parts are dropped.
    """
    if not mu:
        return 1
    ell, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [p + k - 1 - i for i, p in enumerate(lam)]
    total = 0
    for i, b in enumerate(beta):
        c = b - ell
        if c < 0:
            break
        j = i + 1
        while j < k and beta[j] > c:
            j += 1
        if j < k and beta[j] == c:
            continue
        # beads i+1 .. j-1 are jumped; the moved bead lands in row j-1
        shifted = [p - 1 for p in lam[i + 1 : j]]
        shifted.append(lam[i] - ell + j - 1 - i)
        new = lam[:i] + tuple(p for p in shifted if p) + lam[j:]
        value = _mn_value(new, rest)
        total += -value if (j - i - 1) % 2 else value
    return total


def _table(n: int) -> _Table:
    """The cached character data of S_n; checks the degree bound on every call.

    The recursion runs on part tuples; the Partition keys of the table are
    the ones partitions_of(n) already holds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _DEGREE_BOUND:
        raise DegreeBoundError(f"degree {n} exceeds configured bound {_DEGREE_BOUND}")
    with _table_lock:
        table = _table_cache.get(n)
        if table is None:
            parts = partitions_of(n)
            rows = {
                lam: tuple(_mn_value(lam.parts, mu.parts) for mu in parts) for lam in parts
            }
            table = _table_cache[n] = _Table(
                {(lam, mu): v for lam, row in rows.items() for mu, v in zip(parts, row)},
                tuple(class_size(mu) for mu in parts),
                rows,
            )
        return table


def character_table(n: int) -> Dict[Tuple[Partition, Partition], int]:
    """chi_lam(mu) for all lam, mu |- n.  First orthogonality holds exactly."""
    return _table(n).chars


def irr_dim(lam: Partition) -> int:
    """dim S_lam = chi_lam(1^n); (1^n) is the last cycle type."""
    return _table(lam.size).rows[lam][-1]


@dataclass(frozen=True)
class ClassFunction:
    """A rational-valued function on the cycle types of a fixed S_n."""

    n: int
    values: Dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        expected = set(partitions_of(self.n))
        given = set(self.values)
        if given - expected:
            raise ValueError(f"unexpected cycle types: {given - expected}")
        for mu in expected - given:
            self.values[mu] = Fraction(0)

    def __call__(self, mu: Partition) -> Fraction:
        return self.values[mu]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        assert self.n == other.n
        return ClassFunction(
            self.n, {mu: self.values[mu] + other.values[mu] for mu in self.values}
        )

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            assert self.n == other.n
            return ClassFunction(
                self.n, {mu: self.values[mu] * other.values[mu] for mu in self.values}
            )
        return ClassFunction(self.n, {mu: v * other for mu, v in self.values.items()})

    __rmul__ = __mul__


@dataclass
class IrrDecomposition:
    """Multiplicities of irreducibles in a (virtual) S_n-class."""

    n: int
    mults: Dict[Partition, object] = field(default_factory=dict)

    def __post_init__(self):
        self.mults = {lam: m for lam, m in self.mults.items() if m}
        for lam in self.mults:
            if lam.size != self.n:
                raise ValueError(f"{lam} is not a partition of {self.n}")

    @property
    def is_virtual(self) -> bool:
        """True when some multiplicity is negative or non-integral."""
        return any(
            m < 0 or (isinstance(m, Fraction) and m.denominator != 1)
            for m in self.mults.values()
        )

    def __getitem__(self, lam: Partition):
        return self.mults.get(lam, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IrrDecomposition)
            and self.n == other.n
            and self.mults == other.mults
        )

    def __add__(self, other: "IrrDecomposition") -> "IrrDecomposition":
        assert self.n == other.n
        merged = dict(self.mults)
        for lam, m in other.mults.items():
            merged[lam] = merged.get(lam, 0) + m
        return IrrDecomposition(self.n, merged)

    def scale(self, c) -> "IrrDecomposition":
        return IrrDecomposition(self.n, {lam: c * m for lam, m in self.mults.items()})

    def dim(self) -> int:
        return sum(m * irr_dim(lam) for lam, m in self.mults.items())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mults": [
                {"partition": lam.to_json(), "mult": m}
                for lam, m in sorted(self.mults.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IrrDecomposition":
        mults = {}
        for e in data["mults"]:
            m = e["mult"]
            if not isinstance(m, int) or isinstance(m, bool):
                raise TypeError(f"multiplicity {m!r} is not an integer")
            mults[Partition(e["partition"])] = m
        return cls(data["n"], mults)

    @classmethod
    def irreducible(cls, lam: Partition) -> "IrrDecomposition":
        return cls(lam.size, {lam: 1})


def trivial_class(n: int) -> IrrDecomposition:
    return IrrDecomposition.irreducible(one_row(n))


def sign_class(n: int) -> IrrDecomposition:
    return IrrDecomposition.irreducible(one_column(n))


def _class_values(dec: IrrDecomposition) -> Tuple[Dict[Partition, int], int]:
    """The class function sum_lam m_lam chi_lam of dec as integer numerators
    by cycle type, over the common denominator of the m_lam."""
    table = _table(dec.n)
    den = lcm(*(m.denominator for m in dec.mults.values()))
    acc = [0] * len(table.sizes)
    for lam, m in dec.mults.items():
        a = m.numerator * (den // m.denominator)
        acc = [x + a * chi for x, chi in zip(acc, table.rows[lam])]
    return dict(zip(partitions_of(dec.n), acc)), den


def reconstruct(dec: IrrDecomposition) -> ClassFunction:
    """Class function of a virtual decomposition."""
    values, den = _class_values(dec)
    return ClassFunction(dec.n, {mu: Fraction(x, den) for mu, x in values.items()})


def decompose(f: ClassFunction) -> IrrDecomposition:
    """Inner-product decomposition <f, chi_lam> over all lam |- n.

    Writing f = a/den over the common denominator of its values,
    <f, chi_lam> = sum_mu |C_mu| a_mu chi_lam(mu) / (n! den): one integer
    dot product per lam against the weights |C_mu| a_mu, divided once.
    That is p(n)^2 integer multiply-adds and p(n) divisions.

    Negative or non-integral multiplicities are legal (virtual classes) and
    are reported via IrrDecomposition.is_virtual rather than as an error;
    an integral multiplicity is an int, any other a Fraction.
    """
    n = f.n
    table = _table(n)
    vals = [f.values[mu] for mu in partitions_of(n)]
    den = lcm(*(v.denominator for v in vals))
    weights = [
        z * v.numerator * (den // v.denominator) for z, v in zip(table.sizes, vals)
    ]
    order = factorial(n) * den
    mults = {}
    for lam, row in table.rows.items():
        num = sum(map(mul, row, weights))
        if num:
            q, r = divmod(num, order)
            mults[lam] = Fraction(num, order) if r else q
    return IrrDecomposition(n, mults)


def _split_multiset(parts: Tuple[int, ...], target: int) -> Dict[Tuple[int, ...], int]:
    """Distinct submultisets of `parts` with the given sum, each with the
    number of cycle-subsets realizing it (cycles of equal length count as
    distinguishable)."""
    return {
        sub: ways
        for sub, ways in _split_multiset_all(parts).items()
        if sum(sub) == target
    }


def induction_product(a: IrrDecomposition, b: IrrDecomposition) -> IrrDecomposition:
    """Induced character of the external product over S_m x S_n <= S_{m+n}.

    Bilinear over virtual inputs; this is the degreewise Day convolution of
    FB-module classes, and agrees with the Littlewood-Richardson rule.
    """
    m, n = a.n, b.n
    if m + n > _DEGREE_BOUND:
        raise DegreeBoundError(f"degree {m + n} exceeds bound {_DEGREE_BOUND}")
    (fa, den_a), (fb, den_b) = _class_values(a), _class_values(b)
    values = {}
    for gamma in partitions_of(m + n):
        total = 0
        for alpha_parts, ways in _split_multiset(gamma.parts, m).items():
            alpha = Partition(tuple(sorted(alpha_parts, reverse=True)))
            beta_list = list(gamma.parts)
            for p in alpha_parts:
                beta_list.remove(p)
            beta = Partition(tuple(sorted(beta_list, reverse=True)))
            # ways counts distinct cycle-subsets realizing alpha; converting
            # to the z-weighted formula: sum over subsets equals
            # z_gamma/(z_alpha*z_beta) summed over distinct (alpha, beta).
            total += ways * fa[alpha] * fb[beta]
        # ways-accounting above already equals z_gamma/(z_alpha z_beta):
        values[gamma] = Fraction(total, den_a * den_b)
    return decompose(ClassFunction(m + n, values))


def pointwise_product(a: IrrDecomposition, b: IrrDecomposition) -> IrrDecomposition:
    """Kronecker (internal tensor) product of S_n-classes."""
    assert a.n == b.n
    return decompose(reconstruct(a) * reconstruct(b))


def sign_twist(a: IrrDecomposition) -> IrrDecomposition:
    """Tensor with the sign character: S_lam -> S_{lam'}."""
    return IrrDecomposition(a.n, {lam.conjugate(): m for lam, m in a.mults.items()})


def sgn_coinvariants(a: IrrDecomposition) -> int:
    """Multiplicity of S_(1^k); equals dim sgn_k (x)_{S_k} M for genuine M."""
    return a[one_column(a.n)]


# ---------------------------------------------------------------------------
# Joint characters of map sets


def representative(mu: Partition) -> Tuple[int, ...]:
    """A permutation of cycle type mu on {0..n-1}, as an image tuple."""
    perm = []
    start = 0
    for c in mu:
        perm.extend([start + (i + 1) % c for i in range(c)])
        start += c
    return tuple(perm)


@dataclass(frozen=True)
class JointClassFunction:
    """Character of S_s^op x S_t acting on a set of maps s -> t."""

    s: int
    t: int
    values: Dict[Tuple[Partition, Partition], int]

    def value(self, alpha: Partition, beta: Partition) -> int:
        return self.values[(alpha, beta)]

    def total(self) -> int:
        """Value at the identity pair: the number of maps counted."""
        return self.values[(one_column(self.s), one_column(self.t))]


def _fix_count(ell: int, beta: Partition) -> int:
    """Fixed points of tau^ell for tau of cycle type beta."""
    return sum(d for d in beta if ell % d == 0)


def all_maps_character(s: int, t: int) -> JointClassFunction:
    """Fixed maps f: s -> t under f |-> tau o f o sigma^{-1}, by cycle type."""
    values = {}
    for alpha in partitions_of(s):
        for beta in partitions_of(t):
            v = 1
            for c in alpha:
                v *= _fix_count(c, beta)
            values[(alpha, beta)] = v
    return JointClassFunction(s, t, values)


def surjections_character(s: int, t: int) -> JointClassFunction:
    """Fixed surjections, by inclusion-exclusion over tau-invariant images.

    A fixed map has tau-invariant image, and tau-invariant subsets are
    unions of cycles of tau; Moebius inversion over that boolean lattice
    turns all-map counts into surjection counts.
    """
    values = {}
    for alpha in partitions_of(s):
        for beta in partitions_of(t):
            total = 0
            n_cycles = len(beta)
            for sub_parts, ways in _split_multiset_all(beta.parts).items():
                sub = Partition(tuple(sorted(sub_parts, reverse=True)))
                v = 1
                for c in alpha:
                    v *= _fix_count(c, sub)
                total += ways * (-1) ** (n_cycles - len(sub_parts)) * v
            values[(alpha, beta)] = total
    return JointClassFunction(s, t, values)


def _split_multiset_all(parts: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
    """All distinct submultisets of `parts` with their subset counts."""
    values = sorted(set(parts), reverse=True)
    counts = {v: parts.count(v) for v in values}
    result: Dict[Tuple[int, ...], int] = {(): 1}
    for v in values:
        new: Dict[Tuple[int, ...], int] = {}
        for chosen, ways in result.items():
            for j in range(counts[v] + 1):
                key = chosen + (v,) * j
                new[key] = new.get(key, 0) + ways * comb(counts[v], j)
        result = new
    return result


def enumerated_character(
    s: int, t: int, surjective_only: bool, injective_only: bool = False
) -> JointClassFunction:
    """Joint character by explicit enumeration of all maps s -> t.

    Independent of the counting formulas; intended as their oracle at
    desk scale (t**s up to a few hundred thousand).
    """
    if t**s > 500_000:
        raise ValueError(f"enumeration of {t}^{s} maps refused")
    import numpy as np

    # column j holds the images of map j, the maps in lexicographic order
    images = np.indices((t,) * s, dtype=np.int64).reshape(s, t**s)
    if surjective_only or injective_only:
        ordered = np.sort(images, axis=0)
        distinct = (ordered[1:] != ordered[:-1]).sum(axis=0) + (s > 0)
        keep = np.ones(images.shape[1], dtype=bool)
        if surjective_only:
            keep &= distinct == t
        if injective_only:
            keep &= distinct == s
        images = images[:, keep]
    values = {}
    for alpha in partitions_of(s):
        # fixed iff f o sigma == tau o f
        lhs = images[np.array(representative(alpha), dtype=np.int64)]
        for beta in partitions_of(t):
            tau = np.array(representative(beta), dtype=np.int64)
            values[(alpha, beta)] = int(np.all(lhs == tau[images], axis=0).sum())
    return JointClassFunction(s, t, values)


def perm_character_maps(
    s: int, t: int, surjective_only: bool, cross_check: bool = True
) -> JointClassFunction:
    """Joint character of S_s^op x S_t on maps (or surjections) s -> t.

    Surjection characters are always computed by inclusion-exclusion from
    the all-maps character; when enumeration is affordable the two routes
    are asserted equal.
    """
    result = surjections_character(s, t) if surjective_only else all_maps_character(s, t)
    if cross_check and t**s <= 100_000:
        enum = enumerated_character(s, t, surjective_only)
        if enum.values != result.values:
            raise AssertionError(
                f"map-character mismatch at s={s}, t={t}, surj={surjective_only}"
            )
    return result


def joint_decompose(
    joint: JointClassFunction,
) -> Dict[Tuple[Partition, Partition], int]:
    """Decompose a joint character into a sum of S_lam (x) S_mu.

    The multiplicity of (lam, mu) is
    sum_{a,b} |C_a| |C_b| J(a,b) chi_lam(a) chi_mu(b) / (s! t!), the (lam, mu)
    entry of X_s W X_t^T with W[a][b] = |C_a| |C_b| J(a,b) and X the
    character tables.  Two integer matrix products cost
    p(s)^2 p(t) + p(s) p(t)^2 multiply-adds; each entry is divided once.
    Raises AssertionError if a multiplicity is not an integer.
    """
    s, t = joint.s, joint.t
    table_s, table_t = _table(s), _table(t)
    # columns of W, one per right cycle type b
    w_cols = [
        [za * zb * joint.values[(a, b)] for a, za in zip(partitions_of(s), table_s.sizes)]
        for b, zb in zip(partitions_of(t), table_t.sizes)
    ]
    order = factorial(s) * factorial(t)
    out = {}
    for lam, row_s in table_s.rows.items():
        left = [sum(map(mul, row_s, col)) for col in w_cols]  # row lam of X_s W
        for mu, row_t in table_t.rows.items():
            num = sum(map(mul, left, row_t))
            if num:
                q, r = divmod(num, order)
                if r:
                    raise AssertionError("joint character is not a genuine character")
                out[(lam, mu)] = q
    return out


# ---------------------------------------------------------------------------
# Schur polynomial dimensions


def schur_dim(lam: Partition, m: int) -> int:
    """dim S_lam(k^m), via the place-permutation character; cross-checked
    against a direct count of semistandard tableaux."""
    t = lam.size
    if t == 0:
        return 1
    table = _table(t)
    val = sum(
        z * chi * m ** len(mu)
        for z, chi, mu in zip(table.sizes, table.rows[lam], partitions_of(t))
    )
    dim, rem = divmod(val, factorial(t))
    assert rem == 0
    if t <= 6 and m <= 7:
        assert dim == _ssyt_count(lam, m), (lam, m)
    return dim


def _ssyt_count(lam: Partition, m: int) -> int:
    """Count semistandard Young tableaux of shape lam with entries <= m."""
    cells = list(lam.cells())

    def rec(idx: int, filling: Dict[Tuple[int, int], int]) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if (i, j - 1) in filling:
            lo = max(lo, filling[(i, j - 1)])
        if (i - 1, j) in filling:
            lo = max(lo, filling[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, m + 1):
            filling[(i, j)] = v
            total += rec(idx + 1, filling)
        filling.pop((i, j), None)
        return total

    return rec(0, {})
