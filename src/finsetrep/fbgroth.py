"""Grothendieck groups of FB-modules and FB-bimodules, truncated by degree.

A virtual FB-module class is a formal integer combination of partitions of
size at most a truncation degree N; a bimodule class is indexed by pairs of
partitions.  The key operations are Day convolution (degreewise induction
product), the pointwise product, the alternating sign series S(k), the hook
series H(k), and the convolution inverse of - (.) triv.

Sign convention: S(k) = sum_{t >= 0} (-1)^t [sgn_{k+t}], the sign taken
relative to the starting degree k.  The alternating sign is what makes
S(k) + S(k+1) telescope to a single term, and requiring that term and the
degree-k part S(k)(k) to be +[sgn_k] rather than -[sgn_k] fixes the overall
sign; a sign (-1)^n by absolute degree n would not telescope.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .partitions import Partition, hook, one_column, one_row
from .symrep import IrrDecomposition, induction_product, irr_dim, pointwise_product


class _TruncatedClass:
    """The one truncation rule of the sparse integer classes: the integer
    coefficients, without zeros, of keys whose slots each hold a partition of
    size (the sum of its parts) at most that slot's truncation.  A subclass
    names its truncations (`truncs`) and the partition in each slot of a key
    (`slots`)."""

    def __post_init__(self):
        self.coeffs = {key: int(c) for key, c in self.coeffs.items() if c}
        for column, t in zip(zip(*map(self.slots, self.coeffs)), self.truncs):
            if max(map(sum, column)) > t:
                raise ValueError(f"a partition of size {max(map(sum, column))} exceeds truncation {t}")

    def crop(self, *truncs):
        """The class truncated in each slot at the lesser of its own and the
        given truncation: the coefficients of the keys within both."""
        truncs = tuple(map(min, self.truncs, truncs))
        if truncs == self.truncs:
            return self
        return type(self)(*truncs, {
            key: c for key, c in self.coeffs.items() if all(map(operator.le, map(sum, self.slots(key)), truncs))
        })

    def __add__(self, other):
        """The sum, truncated in each slot at the lesser truncation."""
        a, b = self.crop(*other.truncs), other.crop(*self.truncs)
        merged = dict(a.coeffs)
        for key, c in b.coeffs.items():
            merged[key] = merged.get(key, 0) + c
        return type(self)(*a.truncs, merged)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        return type(self)(*self.truncs, {key: c * v for key, v in self.coeffs.items()})


@dataclass
class VirtualFB(_TruncatedClass):
    """Sparse integer combination of partitions of size <= trunc."""

    trunc: int
    coeffs: Dict[Partition, int] = field(default_factory=dict)

    @property
    def truncs(self) -> Tuple[int]:
        return (self.trunc,)

    @staticmethod
    def slots(lam: Partition) -> Tuple[Partition]:
        return (lam,)

    def degree(self, n: int) -> IrrDecomposition:
        return IrrDecomposition(
            n, {lam: c for lam, c in self.coeffs.items() if lam.size == n}
        )

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def dim_at(self, n: int) -> int:
        return self.degree(n).dim()


def unit(trunc: int) -> VirtualFB:
    """[k_0] = [triv_0], the unit of Day convolution."""
    return VirtualFB(trunc, {Partition(()): 1})


def triv_class(trunc: int) -> VirtualFB:
    """[triv]: the trivial representation in every degree 0..trunc."""
    return VirtualFB(trunc, {one_row(n): 1 for n in range(trunc + 1)})


def sgn_class(k: int, trunc: int) -> VirtualFB:
    """[sgn_k] as a class concentrated in degree k."""
    return VirtualFB(trunc, {one_column(k): 1})


def _convolve(terms, b: VirtualFB, t: int) -> Dict[Tuple[Partition, object], int]:
    """The one Day-convolution loop: for each ((lam, rest), c) of terms and
    each (nu, d) of b with |lam| + |nu| <= t, c d times the induction
    product lam . nu, each constituent rho keyed (rho, rest)."""
    out: Dict[Tuple[Partition, object], int] = {}
    b_irr = [(IrrDecomposition.irreducible(nu), d) for nu, d in b.coeffs.items()]
    for (lam, rest), c in terms:
        a_irr = IrrDecomposition.irreducible(lam)
        for b_nu, d in b_irr:
            if lam.size + b_nu.n > t:
                continue
            for rho, m in induction_product(a_irr, b_nu).mults.items():
                key = (rho, rest)
                out[key] = out.get(key, 0) + c * d * m
    return out


def day(a: VirtualFB, b: VirtualFB) -> VirtualFB:
    """Day convolution: degreewise bilinear extension of the induction
    product; trunc = min(a.trunc, b.trunc)."""
    t = min(a.trunc, b.trunc)
    prod = _convolve((((lam, None), c) for lam, c in a.coeffs.items()), b, t)
    return VirtualFB(t, {rho: c for (rho, _), c in prod.items()})


def pointwise(a: VirtualFB, b: VirtualFB) -> VirtualFB:
    """Degreewise Kronecker product of classes."""
    t = min(a.trunc, b.trunc)
    out: Dict[Partition, int] = {}
    for n in range(t + 1):
        an, bn = a.degree(n), b.degree(n)
        if not an.mults or not bn.mults:
            continue
        for nu, m in pointwise_product(an, bn).mults.items():
            out[nu] = out.get(nu, 0) + m
    return VirtualFB(t, out)


def series_S(k: int, trunc: int) -> VirtualFB:
    """S(k) = sum_{t>=0, k+t<=trunc} (-1)^t [sgn_{k+t}]: the zero class
    for k > trunc."""
    return VirtualFB(
        trunc, {one_column(k + t): (-1) ** t for t in range(trunc - k + 1)}
    )


def series_H(k: int, trunc: int) -> VirtualFB:
    """H(0) = [k_0]; H(k) = sum_{n=k}^{trunc} [S_(n-k+1, 1^(k-1))] for k > 0:
    the zero class for k > trunc."""
    if k == 0:
        return unit(trunc)
    return VirtualFB(trunc, {hook(n, k): 1 for n in range(k, trunc + 1)})


def invert_triv(a: VirtualFB) -> VirtualFB:
    """Day convolution with S(0): inverts - (.) [triv] up to truncation."""
    return day(a, series_S(0, a.trunc))


@dataclass
class VirtualFBBimod(_TruncatedClass):
    """Sparse integer combination of partition pairs.

    Key convention: coefficient keys are (left, right) where `left` indexes
    the FB^op variable and `right` the FB variable.  For the surjection
    bimodule kFS the left slot is the surjection's domain; in hom-space
    classes hom(P_bullet, X_star) the left slot carries the *-variable and
    the right slot the bullet-variable.
    """

    trunc_left: int
    trunc_right: int
    coeffs: Dict[Tuple[Partition, Partition], int] = field(default_factory=dict)

    @property
    def truncs(self) -> Tuple[int, int]:
        return (self.trunc_left, self.trunc_right)

    @staticmethod
    def slots(key: Tuple[Partition, Partition]) -> Tuple[Partition, Partition]:
        return key

    def bidegree(self, a: int, b: int) -> Dict[Tuple[Partition, Partition], int]:
        """Coefficients with left size a and right size b."""
        return {
            (lam, mu): c
            for (lam, mu), c in self.coeffs.items()
            if lam.size == a and mu.size == b
        }

    def dim_at(self, a: int, b: int) -> int:
        return sum(
            c * irr_dim(lam) * irr_dim(mu) for (lam, mu), c in self.bidegree(a, b).items()
        )

    def left_class(self, b_partition: Partition) -> VirtualFB:
        """The left-variable class paired with a fixed right partition."""
        return VirtualFB(
            self.trunc_left,
            {lam: c for (lam, mu), c in self.coeffs.items() if mu == b_partition},
        )


def external_product(a: VirtualFB, b: VirtualFB) -> VirtualFBBimod:
    """a boxtimes b: coefficients multiply, a in the left slot."""
    return VirtualFBBimod(
        a.trunc,
        b.trunc,
        {
            (lam, mu): c * d
            for lam, c in a.coeffs.items()
            for mu, d in b.coeffs.items()
        },
    )


def bimod_convolve_left(a: VirtualFBBimod, b: VirtualFB) -> VirtualFBBimod:
    """Day convolution in the left (FB^op) variable, right carried along."""
    tl = min(a.trunc_left, b.trunc)
    return VirtualFBBimod(tl, a.trunc_right, _convolve(a.coeffs.items(), b, tl))


def bimod_convolve_right(a: VirtualFBBimod, b: VirtualFB) -> VirtualFBBimod:
    """Day convolution in the right (FB) variable, left carried along."""
    tr = min(a.trunc_right, b.trunc)
    prod = _convolve((((mu, lam), c) for (lam, mu), c in a.coeffs.items()), b, tr)
    return VirtualFBBimod(a.trunc_left, tr, {(lam, rho): c for (rho, lam), c in prod.items()})
