"""Integer partitions: the indexing combinatorics used everywhere else.

A partition is stored in canonical form as a weakly decreasing tuple of
positive integers; the empty tuple is the unique partition of 0.  The
module provides enumeration in a fixed total order (reverse lexicographic),
containment of Young diagrams, horizontal-strip tests, hooks, conjugation
and a stable text serialization used by the CLI.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence, Tuple


class Partition(tuple):
    """A partition in canonical form (weakly decreasing positive parts): a
    tuple of its parts, ordered by size, then reverse lexicographically
    ((3) < (2,1) < (1,1,1)), the enumeration order of partitions_of."""

    __slots__ = ()

    def __new__(cls, parts: Sequence[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def parts(self) -> Tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def _key(self):
        return (sum(self), tuple(-p for p in self))

    def __lt__(self, other: "Partition") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Partition") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Partition") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Partition") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return serialize(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition(())
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def cells(self) -> Iterator[Tuple[int, int]]:
        """Yield (row, col) cells of the Young diagram, 0-indexed."""
        for i, p in enumerate(self):
            for j in range(p):
                yield (i, j)

    def to_json(self) -> list:
        return list(self)


def serialize(lam: Partition) -> str:
    """Comma-joined decreasing parts; empty string for ()."""
    return ",".join(str(p) for p in lam)


def decimal_int(text: str) -> int:
    """The integer text spells in ASCII decimal digits after at most one
    minus sign; refuses what else int() reads: a plus sign, surrounding
    spaces, an underscore, non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in decimal digits")
    return int(text)


def parse(text: str) -> Partition:
    """Inverse of serialize; also accepts '(2,1)'-style with parentheses and
    spaces around the parts."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        return Partition(())
    return Partition(tuple(decimal_int(p.strip()) for p in text.split(",")))


def display(lam: Partition) -> str:
    """Parenthesized form used in TSV output, e.g. '(2,1)' and '()'."""
    return "(" + serialize(lam) + ")"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order.

    The order puts (n) first and (1^n) last, e.g. for n=3:
    (3), (2,1), (1,1,1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return tuple(Partition(p) for p in gen(n, n if n else 0, ()))


@lru_cache(maxsize=None)
def count_partitions(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence.

    Deliberately independent of partitions_of; used as its counting oracle.
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * count_partitions(n - g1)
        if g2 <= n:
            total += sign * count_partitions(n - g2)
        k += 1
    return total


def contains(lam: Partition, mu: Partition) -> bool:
    """True iff the Young diagram of mu fits inside that of lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """True iff the skew shape lam/mu has at most one box in each column.

    Equivalent to lam_{i+1} <= mu_i for all i.  Requires contains(lam, mu).
    """
    if not contains(lam, mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    for i in range(len(lam) - 1):
        mu_i = mu[i] if i < len(mu) else 0
        if lam[i + 1] > mu_i:
            return False
    return True


def hook(n: int, k: int) -> Partition:
    """The hook partition (n-k+1, 1^(k-1)) of n, for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return Partition((n - k + 1,) + (1,) * (k - 1))


def is_hook(lam: Partition) -> bool:
    """True iff lam = (s, 1^(n-s)) for some s, i.e. at most one part > 1."""
    return all(p == 1 for p in lam.parts[1:])


def one_column(k: int) -> Partition:
    """The partition (1^k)."""
    return Partition((1,) * k)


def one_row(k: int) -> Partition:
    """The partition (k); () for k = 0."""
    return Partition((k,) if k else ())
