"""Closed-form calculus for modules over the category of all finite sets.

Implements the structural results at the level of Grothendieck classes:
the surjection bimodule and its two computation routes, evaluation of the
simple modules, decomposition of Schur-functor projectives, the one
hom-space formula out of the projective covers P_n, fed with each target's
own class, and composition-factor multiplicities of a module from its
underlying symmetric-sequence data.

Bimodule key convention (see fbgroth.VirtualFBBimod): the left slot is the
FB^op variable.  For surjection/all-map bimodules that is the map's domain;
for hom-space classes hom(P_bullet, X_star) it is the star variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from numbers import Integral
from typing import Dict, List, Tuple

from .partitions import (
    Partition,
    contains,
    hook,
    is_hook,
    is_horizontal_strip,
    one_column,
    partitions_of,
)
from .symrep import (
    IrrDecomposition,
    check_degree,
    check_json_keys,
    degree_bound,
    irr_dim,
    is_json_int,
    joint_decompose,
    json_key_int,
    perm_character_maps,
    schur_dim,
)
from .fbgroth import (
    VirtualFB,
    VirtualFBBimod,
    bimod_convolve_left,
    bimod_convolve_right,
    day,
    external_product,
    sgn_class,
    series_S,
    unit,
)


class VerificationError(AssertionError):
    """An internal cross-check between two computation routes failed."""


@dataclass
class Report:
    """The outcome of one checked claim: both sides and whether they agree."""

    claim: str
    parameters: dict
    expected: object
    computed: object
    passed: bool

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "expected": _jsonable(self.expected),
            "computed": _jsonable(self.computed),
            "pass": self.passed,
        }


def _jsonable(x):
    """x with tuples as lists, keys as strings and integers of any integral
    type (numpy's included) as int."""
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, Integral) and not isinstance(x, int):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Labels


@dataclass(frozen=True)
class SimpleLabel:
    """A simple module: C(lam) for lam |- n > 0 with lam != (1^n),
    Lambda_bar(n) = Lambda^n of the reduced standard projective (n >= 0,
    with Lambda_bar(0) the constant-on-nonempty-sets module), or k_0."""

    kind: str  # "C" | "L" | "k0"
    lam: Partition = Partition(())
    n: int = 0

    @classmethod
    def C(cls, lam: Partition) -> "SimpleLabel":
        if lam.size == 0:
            raise ValueError("C labels need a nonempty partition")
        if lam == one_column(lam.size):
            raise ValueError(f"C({lam}) is reserved; use L({lam.size})")
        return cls("C", lam=lam, n=lam.size)

    @classmethod
    def L(cls, n: int) -> "SimpleLabel":
        if n < 0:
            raise ValueError("L(n) needs n >= 0")
        return cls("L", n=n)

    @classmethod
    def K0(cls) -> "SimpleLabel":
        return cls("k0")

    def __str__(self) -> str:
        if self.kind == "C":
            return f"C({','.join(map(str, self.lam))})"
        if self.kind == "L":
            return f"L{self.n}"
        return "k0"


def ctilde(lam: Partition) -> SimpleLabel:
    """The shifted labelling: C~ of (1^n) is Lambda_bar(n-1); C~ of the
    empty partition is k_0; all other C~ agree with C."""
    n = lam.size
    if n == 0:
        return SimpleLabel.K0()
    if lam == one_column(n):
        return SimpleLabel.L(n - 1)
    return SimpleLabel.C(lam)


@dataclass(frozen=True)
class ProjLabel:
    """An indecomposable projective: the Schur construction on the reduced
    projective (kind 'schur', lam != (1^m)) or an exterior power of the
    degree-one standard projective (kind 'lambda')."""

    kind: str  # "schur" | "lambda"
    lam: Partition = Partition(())
    n: int = 0

    @classmethod
    def schur_pbar(cls, lam: Partition) -> "ProjLabel":
        if lam.size == 0 or lam == one_column(lam.size):
            raise ValueError(f"no schur-projective for {lam}")
        return cls("schur", lam=lam)

    @classmethod
    def lambda_pfin(cls, n: int) -> "ProjLabel":
        return cls("lambda", n=n)

    def __str__(self) -> str:
        if self.kind == "schur":
            return f"S({','.join(map(str, self.lam))})(Pbar)"
        return f"Lambda^{self.n}(PFA)"


# ---------------------------------------------------------------------------
# Bimodule classes of the three map categories


def surjection_count(t: int, n: int) -> int:
    """Number of surjections t -> n, by inclusion-exclusion."""
    return sum((-1) ** k * comb(n, k) * (n - k) ** t for k in range(n + 1))


@lru_cache(maxsize=None)
def _map_block(
    n: int, k: int, surjective_only: bool
) -> Tuple[Tuple[Tuple[Partition, Partition], int], ...]:
    """Bidegree (n, k) of the all-maps (or surjection) bimodule: the joint
    decomposition of the maps n -> k, computed and checked once per process."""
    return tuple(joint_decompose(perm_character_maps(n, k, surjective_only)).items())


def _map_class(trunc: int, surjective_only: bool) -> VirtualFBBimod:
    """Class of the all-maps (or surjection) bimodule through bidegree
    trunc, from the blocks of the maps n -> k: every k <= trunc, or every
    k <= n for surjections.  The blocks are memoized, so the bound is checked here."""
    check_degree(trunc)
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for n in range(trunc + 1):
        for k in range((n if surjective_only else trunc) + 1):
            coeffs.update(_map_block(n, k, surjective_only))
    return VirtualFBBimod(trunc, trunc, coeffs)


def kfa_class(trunc: int) -> VirtualFBBimod:
    """Class of the all-maps bimodule; key (domain partition, codomain
    partition) for all bidegrees <= trunc."""
    return _map_class(trunc, surjective_only=False)


def fs_class(trunc: int, cross_check: bool = True) -> VirtualFBBimod:
    """Class of the surjection bimodule, computed from surjection
    characters; optionally re-derived as S(0) convolved into the codomain
    variable of the all-maps class, with exact agreement required."""
    direct = _map_class(trunc, surjective_only=True)
    if cross_check:
        derived = bimod_convolve_right(kfa_class(trunc), series_S(0, trunc))
        if direct != derived:
            raise VerificationError(
                "surjection class disagrees with the convolution route"
            )
    return direct


# ---------------------------------------------------------------------------
# Simple modules


def simple_eval(label: SimpleLabel, t: int) -> IrrDecomposition:
    """Evaluation of a simple module on a t-element set, as an S_t-class."""
    if label.kind == "k0":
        return IrrDecomposition(t, {Partition(()): 1} if t == 0 else {})
    if label.kind == "L":
        n = label.n
        if t <= n:
            return IrrDecomposition(t, {})
        return IrrDecomposition(t, {Partition((t - n,) + (1,) * n): 1})
    lam = label.lam
    n = lam.size
    if t < n:
        return IrrDecomposition(t, {})
    check_degree(t)
    mults = {}
    for mu in partitions_of(t):
        if contains(mu, lam) and is_horizontal_strip(mu, lam):
            mults[mu] = 1
    return IrrDecomposition(t, mults)


def simple_dim(label: SimpleLabel, t: int) -> int:
    return simple_eval(label, t).dim()


def lambda_pfin_eval(l: int, t: int) -> IrrDecomposition:
    """Class of the l-th exterior power of the standard degree-one
    projective on a t-set: its two composition factors combined."""
    below = SimpleLabel.L(l - 1) if l else SimpleLabel.K0()
    return simple_eval(SimpleLabel.L(l), t) + simple_eval(below, t)


# ---------------------------------------------------------------------------
# Projective decompositions


def decompose_schur_pfin(lam: Partition) -> List[ProjLabel]:
    """Indecomposable summands of the Schur construction on the standard
    projective: horizontal-strip predecessors, with the hook case trading
    its two column-shaped predecessors for an exterior-power projective."""
    n = lam.size
    if n == 0:
        raise ValueError("needs a partition of a positive integer")
    check_degree(n)
    m = n - lam[0] + 1  # a hook's exterior degree
    excluded = {one_column(m), one_column(m - 1)} if is_hook(lam) else set()
    out = [
        ProjLabel.schur_pbar(nu)
        for k in range(n + 1)
        for nu in partitions_of(k)
        if contains(lam, nu) and is_horizontal_strip(lam, nu) and nu not in excluded
    ]
    if excluded:
        out.append(ProjLabel.lambda_pfin(m))
    return out


def proj_dim(label: ProjLabel, t: int) -> int:
    """Dimension of an indecomposable projective on a t-set."""
    if label.kind == "lambda":
        return comb(t, label.n)
    return schur_dim(label.lam, t - 1) if t >= 1 else 0


def structure_kfi(n: int) -> Tuple[ProjLabel, Dict[SimpleLabel, int]]:
    """Summands of the injection module at degree n: one exterior-power
    projective plus each C(lam) with multiplicity dim S_lam."""
    if n < 1:
        raise ValueError("needs n >= 1")
    check_degree(n)
    simples = {}
    for lam in partitions_of(n):
        if lam == one_column(n):
            continue
        simples[SimpleLabel.C(lam)] = irr_dim(lam)
    return ProjLabel.lambda_pfin(n), simples


# ---------------------------------------------------------------------------
# The hom(P_bullet, -) formula and its specializations


@dataclass
class FBModuleData:
    """Underlying symmetric-sequence data of a module: dim at the empty
    set plus an S_k-class for each 1 <= k <= trunc."""

    trunc: int
    F0_dim: int
    degrees: Dict[int, IrrDecomposition] = field(default_factory=dict)

    def __post_init__(self):
        if self.F0_dim < 0:
            raise ValueError(f"F0_dim {self.F0_dim} is negative")
        if self.trunc > degree_bound():
            raise ValueError(f"trunc {self.trunc} exceeds the degree bound {degree_bound()}")
        for k, dec in self.degrees.items():
            if not 1 <= k <= self.trunc:
                raise ValueError(f"degree {k} outside 1..{self.trunc}")
            if dec.n != k:
                raise ValueError(f"degree {k} carries an S_{dec.n}-class")
            if dec.is_virtual:
                raise ValueError(f"degree {k} is not a genuine module class")

    def degree(self, k: int) -> IrrDecomposition:
        return self.degrees.get(k, IrrDecomposition(k, {}))

    def dim_at(self, t: int) -> int:
        return self.F0_dim if t == 0 else self.degree(t).dim()

    def bar_class(self) -> VirtualFB:
        """Class of the part supported on nonempty sets."""
        coeffs: Dict[Partition, int] = {}
        for k in range(1, self.trunc + 1):
            for lam, m in self.degree(k).mults.items():
                coeffs[lam] = coeffs.get(lam, 0) + m
        return VirtualFB(self.trunc, coeffs)

    def to_json(self) -> dict:
        return {
            "trunc": self.trunc,
            "F0_dim": self.F0_dim,
            "degrees": {str(k): d.to_json() for k, d in sorted(self.degrees.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "FBModuleData":
        trunc, F0_dim = data["trunc"], data["F0_dim"]
        check_json_keys(data, {"trunc", "F0_dim", "degrees"})
        if not all(map(is_json_int, (trunc, F0_dim))):
            raise TypeError("trunc and F0_dim must be integers")
        degrees: Dict[int, IrrDecomposition] = {}
        for key, d in data.get("degrees", {}).items():
            k = json_key_int(key)
            if k in degrees:
                raise ValueError(f"degree {k} given twice")
            degrees[k] = IrrDecomposition.from_json(d)
        return cls(trunc, F0_dim, degrees)


def _hom_out_of_covers(X: VirtualFBBimod, trunc: int) -> VirtualFBBimod:
    """Class of hom(P_bullet, X) through bullet degree trunc, from the class
    X of a module (left slot: its own symmetric action; right slot: the
    evaluation set): the part of X on nonempty sets with S(0) convolved
    into the evaluation variable, plus X's sign multiplicity at 1^k
    boxtimes S(k - 1) for each 1 <= k <= min(X.trunc_right, trunc + 1).
    Degree n of the result draws on X at evaluation degree n + 1."""
    bar = {key: c for key, c in X.coeffs.items() if key[1].size}
    total = bimod_convolve_right(VirtualFBBimod(X.trunc_left, X.trunc_right, bar), series_S(0, trunc))
    for k in range(1, min(X.trunc_right, trunc + 1) + 1):
        total = total + external_product(X.left_class(one_column(k)), series_S(k - 1, trunc))
    return total


def hom_projcover(F: FBModuleData) -> VirtualFB:
    """Class of hom(P_bullet, F), read off F's bar class.

    Degree n of the result is the class of hom(P_n, F) as an S_n-module.
    The result is truncated at trunc - 1: degree n draws on F at degree
    n + 1, so that is the last exactly-known output degree.
    """
    if F.trunc < 1:
        raise ValueError("needs trunc >= 1")
    hom = _hom_out_of_covers(external_product(unit(0), F.bar_class()), F.trunc - 1)
    return VirtualFB(F.trunc - 1, {mu: c for (_, mu), c in hom.coeffs.items()})


def hom_projcover_pfin(n: int, trunc: int) -> VirtualFBBimod:
    """Class of hom(P_bullet, standard projective of degree n), read off
    the all-maps row at n.

    Left slot: partitions of n (the module's own symmetric-group action);
    right slot: the bullet degree.  Bullet degree trunc reads the maps
    n -> trunc + 1, which carry a sign part only when n >= trunc."""
    T = trunc + 1 if n >= trunc else trunc
    check_degree(max(n, T))
    row = {key: c for k in range(T + 1) for key, c in _map_block(n, k, False)}
    return _hom_out_of_covers(VirtualFBBimod(n, T, row), trunc)


def pbar_tensor_class(trunc: int) -> VirtualFBBimod:
    """Class of the reduced-projective tensor powers as a bimodule: the
    bar part of the standard projectives with the trivial series inverted
    out of the exponent variable.  Left slot: the tensor exponent; right
    slot: the evaluation set."""
    bar = kfa_class(trunc) - external_product(unit(trunc), unit(trunc))
    return bimod_convolve_left(bar, series_S(0, trunc))


def lambda_line_class(trunc: int) -> VirtualFBBimod:
    """Sum over n of sgn_n (left, exponent slot) boxtimes the evaluation
    class of the n-th exterior power of the reduced projective."""
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for n in range(trunc + 1):
        for t in range(trunc + 1):
            for mu, c in simple_eval(SimpleLabel.L(n), t).mults.items():
                key = (one_column(n), mu)
                coeffs[key] = coeffs.get(key, 0) + c
    return VirtualFBBimod(trunc, trunc, coeffs)


def pbar_over_lambda_class(trunc: int) -> VirtualFBBimod:
    """Class of the tensor powers modulo their top exterior summand."""
    return pbar_tensor_class(trunc) - lambda_line_class(trunc)


def pfin_lambda_class(trunc: int) -> VirtualFBBimod:
    """The exceptional projective block of the standard projectives:
    degree 0 contributes the constant module; degree n > 0 contributes
    exterior powers paired with hook multiplicity spaces."""
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for t in range(trunc + 1):
        for mu, c in lambda_pfin_eval(0, t).mults.items():
            coeffs[(Partition(()), mu)] = coeffs.get((Partition(()), mu), 0) + c
    for n in range(1, trunc + 1):
        for l in range(1, n + 1):
            left = hook(n, l)
            for t in range(trunc + 1):
                for mu, c in lambda_pfin_eval(l, t).mults.items():
                    key = (left, mu)
                    coeffs[key] = coeffs.get(key, 0) + c
    return VirtualFBBimod(trunc, trunc, coeffs)


def hom_projcover_pbar(trunc_left: int, trunc_right: int) -> VirtualFBBimod:
    """Class of hom(P_bullet, tensor-power_star), read off the tensor-power
    class.  Left slot: star; right slot: bullet."""
    X = pbar_tensor_class(max(trunc_left, trunc_right + 1)).crop(trunc_left, trunc_right + 1)
    return _hom_out_of_covers(X, trunc_right)


def endo_projcover(trunc_left: int, trunc_right: int) -> VirtualFBBimod:
    """Class of hom(P_bullet, P_star): the tensor-power homs plus one
    extra sign box-product per degree."""
    signs = {(one_column(l), one_column(l + 1)): 1 for l in range(min(trunc_left, trunc_right - 1) + 1)}
    return hom_projcover_pbar(trunc_left, trunc_right) + VirtualFBBimod(trunc_left, trunc_right, signs)


def hom_pbar_pbar(trunc_left: int, trunc_right: int) -> VirtualFBBimod:
    """Class of hom(tensor-power_bullet, tensor-power_star): entry at
    bullet = s, star = t is the class of the maps from the s-th to the
    t-th tensor power.  Left slot: star; right slot: bullet.  The k-th
    correction is S(k) boxtimes sgn_{k-1}."""
    N = max(trunc_left, trunc_right)
    total = bimod_convolve_left(fs_class(N, cross_check=False), series_S(0, N))
    for k in range(1, min(N, trunc_right + 1) + 1):
        total = total + external_product(series_S(k, N), sgn_class(k - 1, N))
    return total.crop(trunc_left, trunc_right)


def hom_lambdabar_pbar(s: int, trunc: int) -> VirtualFB:
    """Class of hom(Lambda^s of the reduced projective, tensor-power_star)
    in the star variable."""
    fs = fs_class(max(trunc, s), cross_check=False)
    return day(fs.left_class(one_column(s)), series_S(0, trunc)) + series_S(s + 1, trunc)


def hom_entry(b: VirtualFBBimod, bullet: int, star: int) -> Dict[Tuple[Partition, Partition], int]:
    """Entry of a hom-space class at (bullet, star), keyed
    (bullet partition, star partition) for readability in tests."""
    return {
        (mu, lam): c for (lam, mu), c in b.bidegree(star, bullet).items()
    }


def hom_entry_dim(b: VirtualFBBimod, bullet: int, star: int) -> int:
    return b.dim_at(star, bullet)


# ---------------------------------------------------------------------------
# Composition factors


def multiplicities(F: FBModuleData) -> Dict[SimpleLabel, int]:
    """Composition-factor multiplicities of a module with underlying data F.

    The multiplicity of k_0 is dim F(0); for degree n >= 1, the multiplicity
    of each degree-n simple is a coefficient of degree n of hom(P_bullet, F).
    Exact through degree trunc - 1.
    """
    hom = hom_projcover(F)
    if not hom.is_effective():
        raise VerificationError(
            "hom(P_bullet, F) has a negative coefficient; input data is not "
            "the class of a genuine module"
        )
    out: Dict[SimpleLabel, int] = {}
    if F.F0_dim:
        out[SimpleLabel.K0()] = F.F0_dim
    for lam, c in hom.coeffs.items():
        n = lam.size
        if lam == one_column(n):
            label = SimpleLabel.L(n)
        else:
            label = SimpleLabel.C(lam)
        out[label] = c
    return out


def check_multiplicity_dimensions(F: FBModuleData, mults: Dict[SimpleLabel, int]) -> None:
    """Composition-series bookkeeping: multiplicity-weighted simple
    dimensions must reproduce dim F(t) for every t <= trunc - 1."""
    for t in range(F.trunc):
        total = sum(m * simple_dim(label, t) for label, m in mults.items())
        if total != F.dim_at(t):
            raise VerificationError(
                f"dimension bookkeeping fails at t={t}: {total} != {F.dim_at(t)}"
            )
