"""Exact character theory of symmetric groups.

Everything is computed exactly, in Python integers over one common
denominator where values are rational: character tables by the
Murnaghan-Nakayama recursion, inner products and decompositions into
irreducibles, pointwise (Kronecker) products, sign twists, and the joint
characters of symmetric-group pairs acting on sets of maps between finite
sets.  Induction products (the degreewise Day convolution) are counted by
the Littlewood-Richardson rule and evaluate no character, so a Day
convolution builds no character table.  Convention: the partition (1^n)
indexes the sign representation.

The module is plain Python; numpy is imported only by
`enumerated_character`, which `perm_character_maps` runs as a check where
enumeration is affordable: the map bimodules of `facalc` and the hom
formulas built on them load numpy, the other symbolic calls do not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Dict, NamedTuple, Tuple

from .partitions import Partition, decimal_int, one_column, one_row, partitions_of


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
    part tuples of equal size (a Partition is one).

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


def check_degree(n: int) -> None:
    """Refuse S_n beyond the configured bound, before anything of size n is built."""
    if n > _DEGREE_BOUND:
        raise DegreeBoundError(f"degree {n} exceeds configured bound {_DEGREE_BOUND}")


def _table(n: int) -> _Table:
    """The cached character data of S_n; checks the degree bound on every call.

    The recursion runs on part tuples; the Partition keys of the table are
    the ones partitions_of(n) already holds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_degree(n)
    with _table_lock:
        table = _table_cache.get(n)
        if table is None:
            parts = partitions_of(n)
            rows = {
                lam: tuple(_mn_value(lam, mu) for mu in parts) for lam in parts
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

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        """The pointwise product of two class functions of one S_n."""
        assert self.n == other.n
        return ClassFunction(
            self.n, {mu: self.values[mu] * other.values[mu] for mu in self.values}
        )


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
        """Reads {"n": n, "mults": [{"partition": [parts], "mult": m}, ...]},
        refusing any other key and any n, part or m that is not a JSON integer."""
        check_json_keys(data, {"n", "mults"})
        if not is_json_int(data["n"]):
            raise TypeError(f"n {data['n']!r} is not an integer")
        mults = {}
        for e in data["mults"]:
            check_json_keys(e, {"partition", "mult"})
            m, parts = e["mult"], e["partition"]
            if not is_json_int(m):
                raise TypeError(f"multiplicity {m!r} is not an integer")
            if not isinstance(parts, list) or not all(map(is_json_int, parts)):
                raise TypeError(f"partition {parts!r} is not a list of integers")
            lam = Partition(parts)
            if lam in mults:
                raise ValueError(f"partition {list(lam)} given twice")
            mults[lam] = m
        return cls(data["n"], mults)

    @classmethod
    def irreducible(cls, lam: Partition) -> "IrrDecomposition":
        return cls(lam.size, {lam: 1})


def is_json_int(x) -> bool:
    """True for an int that is not a bool: what JSON reads as an integer."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_key_int(key) -> int:
    """The integer a JSON object key spells in ASCII decimal digits; refuses
    any other key, which int() would read through a sign, spaces, an
    underscore or non-ASCII digits."""
    if not isinstance(key, str) or key.startswith("-"):
        raise ValueError(f"key {key!r} is not a string of decimal digits")
    return decimal_int(key)


def check_json_keys(data: dict, keys: set) -> None:
    """Refuses a JSON object with a key outside keys."""
    if set(data) - keys:
        raise ValueError(f"unknown keys {sorted(set(data) - keys)}")


def trivial_class(n: int) -> IrrDecomposition:
    return IrrDecomposition.irreducible(one_row(n))


def sign_class(n: int) -> IrrDecomposition:
    return IrrDecomposition.irreducible(one_column(n))


def reconstruct(dec: IrrDecomposition) -> ClassFunction:
    """Class function of a virtual decomposition: sum_lam m_lam chi_lam,
    summed in integer numerators over the common denominator of the m_lam."""
    table = _table(dec.n)
    den = lcm(*(m.denominator for m in dec.mults.values()))
    acc = [0] * len(table.sizes)
    for lam, m in dec.mults.items():
        a = m.numerator * (den // m.denominator)
        acc = [x + a * chi for x, chi in zip(acc, table.rows[lam])]
    return ClassFunction(
        dec.n, {mu: Fraction(x, den) for mu, x in zip(partitions_of(dec.n), acc)}
    )


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


def induction_product(a: IrrDecomposition, b: IrrDecomposition) -> IrrDecomposition:
    """Induced character of the external product over S_m x S_n <= S_{m+n}:
    the degreewise Day convolution of FB-module classes.

    Each pair of irreducibles is expanded by the Littlewood-Richardson rule
    (`_lr_product`), whose memo is read only after the degree bound has
    passed, and the product is extended bilinearly over virtual inputs.  No
    character is evaluated; an integral multiplicity is an int, any other a
    Fraction, as decompose returns them.
    """
    n = a.n + b.n
    check_degree(n)
    out: Dict[Partition, object] = {}
    for lam, x in a.mults.items():
        for nu, y in b.mults.items():
            for rho, c in _lr_product(lam, nu):
                out[rho] = out.get(rho, 0) + x * y * c
    return IrrDecomposition(
        n, {rho: m.numerator if m.denominator == 1 else m for rho, m in out.items()}
    )


@lru_cache(maxsize=None)
def _lr_product(lam: Partition, nu: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """The Littlewood-Richardson coefficients c^rho_{lam nu} that are nonzero,
    as (rho, c) pairs.

    c^rho_{lam nu} counts the LR tableaux of shape rho/lam and content nu:
    semistandard fillings whose reverse reading word is a lattice word.  They
    are built as successive horizontal strips of nu_1 1s, nu_2 2s, ... on
    lam.  A strip of label i+1 is kept when every row r has at most as many
    i+1s in rows <= r as i's in rows < r: read right to left, a row's i+1s
    come before its i's.  With nu one row or one column this is Pieri's rule.
    """
    if len(nu) > len(lam):
        lam, nu = nu, lam  # c^rho_{lam nu} = c^rho_{nu lam}; fewer strips
    counts: Dict[Tuple[int, ...], int] = {}

    def fill(i: int, shape: Tuple[int, ...], prev: Tuple[int, ...]) -> None:
        # shape holds labels < i; prev[r] counts the label i-1 boxes in row r
        if i == len(nu):
            counts[shape] = counts.get(shape, 0) + 1
            return
        for added in _strips(shape, nu[i], prev, nu[i] if i == 0 else 0):
            new = tuple(p + q for p, q in zip(shape + (0,), added))
            k = len(new) - (new[-1] == 0)
            fill(i + 1, new[:k], added[:k])

    fill(0, tuple(lam), (0,) * len(lam))
    return tuple(sorted((Partition(rho), c) for rho, c in counts.items()))


def _strips(shape: Tuple[int, ...], size: int, prev: Tuple[int, ...], room: int):
    """The horizontal strips of size boxes on shape, as the boxes added to
    each of its rows and one new row.  A strip has at most room plus
    sum(prev[:r]) boxes in rows <= r, for every r; a first label passes
    room = size, which bounds nothing.  Only row 0 and the rows shorter
    than the row above can take boxes."""
    old = shape + (0,)
    rows = [r for r in range(len(old)) if r == 0 or old[r - 1] > old[r]]
    caps = [old[r - 1] - old[r] if r else size for r in rows]
    bounds = [room + sum(prev[:r]) for r in rows]
    out = []

    def place(j: int, left: int, placed: int, added: list) -> None:
        if not left:
            out.append(tuple(added))
            return
        if j == len(rows):
            return
        r = rows[j]
        for a in range(min(left, caps[j], bounds[j] - placed), -1, -1):
            added[r] = a
            place(j + 1, left - a, placed + a, added)
        added[r] = 0

    place(0, size, 0, [0] * len(old))
    return out


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
    # each invariant image (a union of cycles) with its signed subset
    # count, once per beta
    invariant_images = {
        beta: [
            (sub, ways * (-1) ** (len(beta) - len(sub)))
            for sub, ways in _split_multiset_all(beta).items()
        ]
        for beta in partitions_of(t)
    }
    values = {}
    for alpha in partitions_of(s):
        for beta in partitions_of(t):
            total = 0
            for sub, signed_ways in invariant_images[beta]:
                v = 1
                for c in alpha:
                    v *= _fix_count(c, sub)
                total += signed_ways * v
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


_ENUM_BLOCK = 1 << 13


def enumerated_character(s: int, t: int, surjective_only: bool) -> JointClassFunction:
    """Joint character by explicit enumeration of all maps s -> t.

    Independent of the counting formulas; intended as their oracle at
    desk scale (t**s up to a few hundred thousand).  A map f with images
    d_0, ..., d_{s-1} is encoded by its lexicographic index, the sum of
    w_i d_i with w_i = t**(s-1-i); f is fixed by (sigma, tau) iff
    f o sigma == tau o f, that is iff their codes are equal, so each value
    counts the maps whose two codes are equal.  Both codes are digit sums:
    tau o f has the code sum w_i tau(d_i), and f o sigma the code
    sum w'_j d_j with w'[sigma(i)] = w_i.  Over all maps in lexicographic
    order a code array is therefore the outer sum of one vector of length
    t per digit, and the surjections are the maps where the outer OR of
    the vectors 1 << d is 2**t - 1.

    The leading digits pick a block of maps and the trailing k digits vary
    inside it, k the largest with t**k <= `_ENUM_BLOCK`.  Per alpha and per
    beta the outer sum over the trailing digits (the tail, t**k codes) and
    over the leading ones (the head, one scalar per block) are held, and
    one block's codes at a time are the tails plus the block's head
    scalars, compared all alpha against all beta at once.  So memory grows
    with p(s) p(t) t**k, not with t**s; no s x t**s array of images is made.
    """
    if t**s > 500_000:
        raise ValueError(f"enumeration of {t}^{s} maps refused")
    import numpy as np

    # the leading h digits pick a block, the trailing s - h vary inside it
    h = s - next(k for k in range(s, -1, -1) if t**k <= _ENUM_BLOCK)

    def head_tail(op, vectors):
        """Row r over every string of the leading h digits (head) and of the
        trailing ones (tail), in lexicographic order: the op-sum of
        vectors[i, r, d_i] over the digits i of the string."""
        rows, parts = vectors.shape[1], []
        for part in (vectors[:h], vectors[h:]):
            out = np.zeros((rows, 1), dtype=np.int32)
            for v in part:
                out = op(out[:, :, None], v[:, None, :]).reshape(rows, -1)
            parts.append(out)
        return parts

    alphas, betas = partitions_of(s), partitions_of(t)
    # every code is below t**s <= 500,000, so int32 holds it exactly
    digits = np.arange(t, dtype=np.int32)
    weights = t ** np.arange(s - 1, -1, -1, dtype=np.int32)
    # moved[a, sigma(i)] = w_i for the representative sigma of alphas[a]
    moved = np.zeros((len(alphas), s), dtype=np.int32)
    for a, alpha in enumerate(alphas):
        moved[a, list(representative(alpha))] = weights
    taus = np.array([representative(beta) for beta in betas], dtype=np.int32)
    # digit j of f o sigma adds w'_j d_j, digit i of tau o f adds w_i tau(d_i)
    left_head, left_tail = head_tail(np.add, moved.T[:, :, None] * digits)
    right_head, right_tail = head_tail(np.add, weights[:, None, None] * taus)
    if surjective_only:
        bits = np.broadcast_to(1 << np.arange(t, dtype=np.int64), (s, 1, t))
        (mask_head,), (mask_tail,) = head_tail(np.bitwise_or, bits)
    counts = np.zeros((len(alphas), len(betas)), dtype=np.int64)
    keep = slice(None)
    for b in range(t**h):
        if surjective_only:
            keep = np.flatnonzero((mask_tail | mask_head[b]) == (1 << t) - 1)
            if not len(keep):
                continue
        codes_left = left_tail[:, keep] + left_head[:, b, None]
        codes_right = right_tail[:, keep] + right_head[:, b, None]
        counts += np.count_nonzero(codes_left[:, None, :] == codes_right[None, :, :], axis=2)
    values = {(alpha, beta): int(c) for alpha, row in zip(alphas, counts) for beta, c in zip(betas, row)}
    return JointClassFunction(s, t, values)


def perm_character_maps(s: int, t: int, surjective_only: bool) -> JointClassFunction:
    """Joint character of S_s^op x S_t on maps (or surjections) s -> t.

    Surjection characters are always computed by inclusion-exclusion from
    the all-maps character; when enumeration is affordable the two routes
    are asserted equal.
    """
    result = surjections_character(s, t) if surjective_only else all_maps_character(s, t)
    if t**s <= 100_000:
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
