"""Closed-form calculus for modules over the category of all finite sets.

Implements the structural results at the level of Grothendieck classes:
the surjection bimodule and its two computation routes, evaluation of the
simple modules, decomposition of Schur-functor projectives, the hom-space
formula out of the projective covers P_n and all of its specializations,
and composition-factor multiplicities of a module from its underlying
symmetric-sequence data.

Bimodule key convention (see fbgroth.VirtualFBBimod): the left slot is the
FB^op variable.  For surjection/all-map bimodules that is the map's domain;
for hom-space classes hom(P_bullet, X_star) it is the star variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Tuple

from .partitions import (
    Partition,
    contains,
    hook,
    is_hook,
    is_horizontal_strip,
    one_column,
    one_row,
    partitions_of,
)
from .symrep import IrrDecomposition, irr_dim, joint_decompose, perm_character_maps
from .fbgroth import (
    VirtualFB,
    VirtualFBBimod,
    bimod_convolve_left,
    bimod_convolve_right,
    day,
    external_product,
    sgn_class,
    series_S,
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


def kfa_class(trunc: int) -> VirtualFBBimod:
    """Class of the all-maps bimodule; key (domain partition, codomain
    partition) for all bidegrees <= trunc."""
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for n in range(trunc + 1):
        for k in range(trunc + 1):
            joint = perm_character_maps(n, k, surjective_only=False)
            for key, c in joint_decompose(joint).items():
                coeffs[key] = coeffs.get(key, 0) + c
    return VirtualFBBimod(trunc, trunc, coeffs)


def fs_class(trunc: int, cross_check: bool = True) -> VirtualFBBimod:
    """Class of the surjection bimodule, computed from surjection
    characters; optionally re-derived as S(0) convolved into the codomain
    variable of the all-maps class, with exact agreement required."""
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for n in range(trunc + 1):
        for k in range(n + 1):
            joint = perm_character_maps(n, k, surjective_only=True)
            for key, c in joint_decompose(joint).items():
                coeffs[key] = coeffs.get(key, 0) + c
    direct = VirtualFBBimod(trunc, trunc, coeffs)
    if cross_check:
        derived = bimod_convolve_right(kfa_class(trunc), series_S(0, trunc))
        if direct != derived:
            raise VerificationError(
                "surjection class disagrees with the convolution route"
            )
    return direct


def _sgn_contract_codomain(bimod: VirtualFBBimod, k: int) -> VirtualFB:
    """Contract the codomain (right) slot of a map-category bimodule at
    degree k against the sign: left-variable class of sgn_k (x) M(-, k)."""
    return bimod.left_class(one_column(k))


# ---------------------------------------------------------------------------
# Simple modules


def simple_eval(label: SimpleLabel, t: int) -> IrrDecomposition:
    """Evaluation of a simple module on a t-element set, as an S_t-class."""
    if label.kind == "k0":
        return IrrDecomposition(t, {Partition(()): 1} if t == 0 else {})
    if label.kind == "L":
        n = label.n
        if n == 0:
            # constant module on nonempty sets
            return IrrDecomposition(t, {one_row(t): 1} if t >= 1 else {})
        if t <= n:
            return IrrDecomposition(t, {})
        return IrrDecomposition(t, {Partition((t - n,) + (1,) * n): 1})
    lam = label.lam
    n = lam.size
    if t < n:
        return IrrDecomposition(t, {})
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
    top = simple_eval(SimpleLabel.L(l) if l >= 1 else SimpleLabel.L(0), t)
    if l == 0:
        # constant functor k: k_0 + Lambda_bar(0) parts
        out = simple_eval(SimpleLabel.K0(), t) + simple_eval(SimpleLabel.L(0), t)
        return out
    below = simple_eval(SimpleLabel.L(l - 1), t)
    return top + below


# ---------------------------------------------------------------------------
# Projective decompositions


def decompose_schur_pfin(lam: Partition) -> List[ProjLabel]:
    """Indecomposable summands of the Schur construction on the standard
    projective: horizontal-strip predecessors, with the hook case trading
    its two column-shaped predecessors for an exterior-power projective."""
    n = lam.size
    if n == 0:
        raise ValueError("needs a partition of a positive integer")
    strip_preds = [
        nu
        for k in range(n + 1)
        for nu in partitions_of(k)
        if contains(lam, nu) and is_horizontal_strip(lam, nu)
    ]
    out: List[ProjLabel] = []
    if is_hook(lam):
        s = lam[0]
        excluded = {one_column(n - s + 1), one_column(n - s)}
        for nu in strip_preds:
            if nu in excluded:
                continue
            out.append(ProjLabel.schur_pbar(nu))
        out.append(ProjLabel.lambda_pfin(n - s + 1))
    else:
        for nu in strip_preds:
            out.append(ProjLabel.schur_pbar(nu))
    return out


def proj_dim(label: ProjLabel, t: int) -> int:
    """Dimension of an indecomposable projective on a t-set."""
    from .symrep import schur_dim
    from math import comb

    if label.kind == "lambda":
        return comb(t, label.n)
    return schur_dim(label.lam, t - 1) if t >= 1 else 0


def structure_kfi(n: int) -> Tuple[ProjLabel, Dict[SimpleLabel, int]]:
    """Summands of the injection module at degree n: one exterior-power
    projective plus each C(lam) with multiplicity dim S_lam."""
    if n < 1:
        raise ValueError("needs n >= 1")
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
        if not (isinstance(trunc, int) and isinstance(F0_dim, int)):
            raise TypeError("trunc and F0_dim must be integers")
        return cls(
            trunc,
            F0_dim,
            {
                int(k): IrrDecomposition.from_json(d)
                for k, d in data.get("degrees", {}).items()
            },
        )


def hom_projcover(F: FBModuleData) -> VirtualFB:
    """Class of hom(P_bullet, F): the bar part convolved with S(0) plus
    sign-coinvariant multiples of the shifted sign series.

    Degree n of the result is the class of hom(P_n, F) as an S_n-module.
    The result is truncated at trunc - 1: degree n draws on F at degree
    n + 1, so that is the last exactly-known output degree.
    """
    if F.trunc < 1:
        raise ValueError("needs trunc >= 1")
    out_trunc = F.trunc - 1
    total = day(F.bar_class().truncate(out_trunc), series_S(0, out_trunc))
    for k in range(1, F.trunc + 1):
        if k - 1 > out_trunc:
            break
        m_k = F.degree(k)[one_column(k)]
        if m_k:
            total = total + series_S(k - 1, out_trunc).scale(m_k)
    return total


def hom_projcover_pfin(n: int, trunc: int, fs: VirtualFBBimod | None = None) -> VirtualFBBimod:
    """Class of hom(P_bullet, standard projective of degree n): the
    surjection row at n plus sign-contracted correction terms.

    Left slot: partitions of n (the module's own symmetric-group action);
    right slot: the bullet degree."""
    if fs is None:
        fs = fs_class(max(trunc, n), cross_check=False)
    coeffs: Dict[Tuple[Partition, Partition], int] = {}
    for (lam, mu), c in fs.coeffs.items():
        if lam.size == n and mu.size <= trunc:
            coeffs[(lam, mu)] = coeffs.get((lam, mu), 0) + c
    for k in range(1, n + 1):
        if k - 1 > trunc:
            continue
        for (lam, mu), c in fs.coeffs.items():
            if lam.size == n and mu == one_column(k):
                key = (lam, one_column(k - 1))
                coeffs[key] = coeffs.get(key, 0) + c
    return VirtualFBBimod(n, trunc, coeffs)


def pbar_tensor_class(trunc: int, kfa: VirtualFBBimod | None = None) -> VirtualFBBimod:
    """Class of the reduced-projective tensor powers as a bimodule: the
    bar part of the standard projectives with the trivial series inverted
    out of the exponent variable.  Left slot: the tensor exponent; right
    slot: the evaluation set."""
    if kfa is None:
        kfa = kfa_class(trunc)
    bar = VirtualFBBimod(
        trunc,
        trunc,
        {
            key: c
            for key, c in kfa.coeffs.items()
            if not (key[0].size == 0 and key[1].size == 0)
        },
    )
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


def pbar_over_lambda_class(trunc: int, kfa: VirtualFBBimod | None = None) -> VirtualFBBimod:
    """Class of the tensor powers modulo their top exterior summand."""
    return pbar_tensor_class(trunc, kfa) - lambda_line_class(trunc)


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
    """Class of hom(P_bullet, tensor-power_star).  Left slot: star; right
    slot: bullet."""
    N = max(trunc_left, trunc_right)
    fs = fs_class(N, cross_check=False)
    total = bimod_convolve_left(fs, series_S(0, N))
    for k in range(1, N + 1):
        if k - 1 > trunc_right:
            continue
        left = day(_sgn_contract_codomain(fs, k), series_S(0, N))
        total = total + external_product(left, sgn_class(k - 1, N))
    return _crop(total, trunc_left, trunc_right)


def endo_projcover(trunc_left: int, trunc_right: int) -> VirtualFBBimod:
    """Class of hom(P_bullet, P_star): the tensor-power homs plus one
    extra sign box-product per degree."""
    total = hom_projcover_pbar(trunc_left, trunc_right)
    coeffs = dict(total.coeffs)
    for l in range(trunc_left + 1):
        if l + 1 > trunc_right:
            break
        key = (one_column(l), one_column(l + 1))
        coeffs[key] = coeffs.get(key, 0) + 1
    return VirtualFBBimod(trunc_left, trunc_right, coeffs)


def hom_pbar_pbar(trunc_left: int, trunc_right: int) -> VirtualFBBimod:
    """Class of hom(tensor-power_bullet, tensor-power_star): entry at
    bullet = s, star = t is the class of the maps from the s-th to the
    t-th tensor power.  Left slot: star; right slot: bullet."""
    N = max(trunc_left, trunc_right)
    fs = fs_class(N, cross_check=False)
    total = bimod_convolve_left(fs, series_S(0, N))
    for k in range(1, N + 1):
        if k - 1 > trunc_right:
            continue
        total = total + external_product(series_S(k, N), sgn_class(k - 1, N))
    return _crop(total, trunc_left, trunc_right)


def hom_lambdabar_pbar(s: int, trunc: int) -> VirtualFB:
    """Class of hom(Lambda^s of the reduced projective, tensor-power_star)
    in the star variable."""
    fs = fs_class(max(trunc, s), cross_check=False)
    part = day(_sgn_contract_codomain(fs, s).truncate(trunc), series_S(0, trunc))
    if s + 1 <= trunc:
        part = part + series_S(s + 1, trunc)
    return part


def _crop(b: VirtualFBBimod, tl: int, tr: int) -> VirtualFBBimod:
    return VirtualFBBimod(
        tl,
        tr,
        {
            key: c
            for key, c in b.coeffs.items()
            if key[0].size <= tl and key[1].size <= tr
        },
    )


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
