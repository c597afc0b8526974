"""Independent reference combinatorics for checking benchmark answers.

Plain-Python closed forms that share no code with finsetrep: partitions,
hook-length dimensions, class sizes, the Pieri rule for simple-module
evaluations, surjection counts, Stirling numbers and Schur-functor
dimensions.  Partitions are tuples of weakly decreasing positive parts and
travel through JSON as comma-joined strings ("2,1", "" for the empty one).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod
from typing import Dict, Iterator, List, Tuple

Part = Tuple[int, ...]


def key(lam: Part) -> str:
    return ",".join(map(str, lam))


def unkey(text: str) -> Part:
    return tuple(int(p) for p in text.split(",")) if text else ()


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Part, ...]:
    """Partitions of n, largest first part first."""

    def gen(rest: int, cap: int) -> Iterator[Part]:
        if rest == 0:
            yield ()
            return
        for p in range(min(cap, rest), 0, -1):
            for tail in gen(rest - p, p):
                yield (p,) + tail

    return tuple(gen(n, n))


def column(n: int) -> Part:
    return (1,) * n


def conjugate(lam: Part) -> Part:
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


@lru_cache(maxsize=None)
def irr_dim(lam: Part) -> int:
    """Hook-length formula."""
    conj = conjugate(lam)
    hooks = prod(
        lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )
    return factorial(sum(lam)) // hooks


def class_size(mu: Part) -> int:
    z = prod(j**m * factorial(m) for j, m in Counter(mu).items())
    return factorial(sum(mu)) // z


def schur_dim(lam: Part, m: int) -> int:
    """dim of the Schur functor S_lam on an m-dimensional space (hook-content)."""
    conj = conjugate(lam)
    num = den = 1
    for i in range(len(lam)):
        for j in range(lam[i]):
            num *= m + j - i
            den *= lam[i] - j + conj[j] - i - 1
    return num // den


def horizontal_strip(mu: Part, lam: Part) -> bool:
    """mu contains lam and mu / lam has at most one box per column."""
    if len(lam) > len(mu):
        return False
    lam = lam + (0,) * (len(mu) - len(lam))
    return all(
        mu[i] >= lam[i] and (i + 1 >= len(mu) or mu[i + 1] <= lam[i])
        for i in range(len(mu))
    )


def simple_eval(label: str, t: int) -> Dict[Part, int]:
    """S_t-class of a simple module on a t-set, by the Pieri rule.

    Labels are "k0", "L<n>" and "C<partition key>"."""
    if label == "k0":
        return {(): 1} if t == 0 else {}
    if label.startswith("L"):
        n = int(label[1:])
        if n == 0:
            return {(t,): 1} if t >= 1 else {}
        return {(t - n,) + column(n): 1} if t > n else {}
    lam = unkey(label[1:])
    return {mu: 1 for mu in partitions(t) if horizontal_strip(mu, lam)}


def surjections(n: int, k: int) -> int:
    """Number of surjections from an n-set onto a k-set."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))


def stirling2(n: int, k: int) -> int:
    return surjections(n, k) // factorial(k)


def falling(t: int, n: int) -> int:
    return prod(range(t - n + 1, t + 1)) if t >= n else 0


def proj_label_dim(label: str, t: int) -> int:
    """Dimension on a t-set of a projective printed by decompose-pfin:
    "Lambda^n(PFA)" or "S(<partition>)(Pbar)"."""
    if label.startswith("Lambda^"):
        return comb(t, int(label[len("Lambda^") : label.index("(")]))
    lam = unkey(label[2 : label.index(")")])
    return schur_dim(lam, t - 1) if t >= 1 else 0


def check_character_table(n: int, rows: List[List[int]]) -> bool:
    """rows[i][j] = chi_{lam_i}(mu_j) over partitions(n) in order: the
    identity column gives hook-length dimensions, the trivial and sign rows
    are 1 and (-1)^(n - len(mu)), and the rows are orthonormal for the
    class-size weighted inner product."""
    parts = partitions(n)
    if len(rows) != len(parts) or any(len(r) != len(parts) for r in rows):
        return False
    ident = parts.index(column(n))
    if [r[ident] for r in rows] != [irr_dim(lam) for lam in parts]:
        return False
    if rows[0] != [1] * len(parts) or rows[-1] != [(-1) ** (n - len(mu)) for mu in parts]:
        return False
    sizes = [class_size(mu) for mu in parts]
    order = factorial(n)
    for i, a in enumerate(rows):
        for k in range(i, len(rows)):
            b = rows[k]
            ip = sum(s * x * y for s, x, y in zip(sizes, a, b))
            if ip != (order if i == k else 0):
                return False
    return True
