"""Partitions, Schubert index sets, and Schubert problems.

The dictionary between an index set I = {i_1 < ... < i_r} in [n] and a
partition inside the r x (n-r) rectangle is

    lambda_a = (n - r) + a - i_a,        i_a = (n - r) + a - lambda_a,

so codim(I) = sum_a lambda_a = |lambda|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence


def _trim_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """`parts` without its trailing zeros."""
    k = len(parts)
    while k and parts[k - 1] == 0:
        k -= 1
    return parts if k == len(parts) else parts[:k]


def _parts_contain(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether the trimmed `outer` contains the trimmed `inner`, row by row."""
    if len(inner) > len(outer):
        return False
    for a, b in zip(outer, inner):
        if b > a:
            return False
    return True


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of non-negative integers (trailing zeros kept)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for x in self.parts:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"bad partition part {x!r}")
            if prev is not None and x > prev:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
            prev = x

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def trimmed(self) -> "Partition":
        """This partition without trailing zeros (itself if it has none)."""
        parts = self.parts
        if parts and parts[-1] == 0:
            return Partition(_trim_parts(parts))
        return self

    def padded(self, length: int) -> "Partition":
        t = _trim_parts(self.parts)
        if length < len(t):
            raise ValueError("padding below the number of nonzero parts")
        return Partition(t + (0,) * (length - len(t)))

    def scale(self, n: int) -> "Partition":
        if n < 0:
            raise ValueError("negative stretch factor")
        return Partition(tuple(n * x for x in self.parts))

    def contains(self, other: "Partition") -> bool:
        return _parts_contain(_trim_parts(self.parts), _trim_parts(other.parts))

    def fits_in(self, rows: int, cols: int) -> bool:
        t = _trim_parts(self.parts)
        return len(t) <= rows and (not t or t[0] <= cols)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        return cls(tuple(int(x) for x in text.split(",")))

    def text(self) -> str:
        t = _trim_parts(self.parts)
        return ",".join(str(x) for x in t) if t else "0"


@dataclass(frozen=True, order=True)
class IndexSet:
    """Strictly increasing i_1 < ... < i_r inside [1, n]."""

    n: int
    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative ambient size")
        prev = 0
        for x in self.elements:
            if not isinstance(x, int) or x <= prev:
                raise ValueError(f"index set not strictly increasing in [1,n]: {self.elements}")
            prev = x
        if self.elements and self.elements[-1] > self.n:
            raise ValueError(f"index {self.elements[-1]} exceeds n={self.n}")

    @property
    def r(self) -> int:
        return len(self.elements)

    def codim(self) -> int:
        n, r = self.n, self.r
        return sum(n - r + a - i for a, i in enumerate(self.elements, start=1))

    def to_partition(self) -> Partition:
        n, r = self.n, self.r
        return Partition(tuple(n - r + a - i for a, i in enumerate(self.elements, start=1)))

    def complement(self) -> "IndexSet":
        mem = set(self.elements)
        return IndexSet(self.n, tuple(i for i in range(1, self.n + 1) if i not in mem))

    @classmethod
    def parse(cls, text: str) -> "IndexSet":
        body, _, amb = text.partition("@")
        if not amb:
            raise ValueError(f"index set text needs '@n': {text!r}")
        n = int(amb)
        body = body.strip()
        elems = tuple(int(x) for x in body.split(",")) if body else ()
        return cls(n, elems)

    def text(self) -> str:
        return ",".join(str(x) for x in self.elements) + f"@{self.n}"


def partition_to_index(lam: Partition, n: int, r: int) -> IndexSet:
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not lam.fits_in(r, n - r):
        raise ValueError(f"partition {lam.parts} does not fit in {r}x{n - r}")
    padded = lam.padded(r).parts
    return IndexSet(n, tuple(n - r + a - padded[a - 1] for a in range(1, r + 1)))


def all_index_sets(n: int, r: int) -> list[IndexSet]:
    """All r-element index sets in [1, n], lexicographically ordered."""
    return [IndexSet(n, c) for c in combinations(range(1, n + 1), r)]


@dataclass(frozen=True, order=True)
class SchubertProblem:
    """s Schubert conditions on Gr(r, n), one index set per flag."""

    n: int
    r: int
    index_sets: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.r <= self.n:
            raise ValueError("need 0 <= r <= n")
        if not self.index_sets:
            raise ValueError("a problem needs at least one condition")
        for ix in self.index_sets:
            if ix.n != self.n or ix.r != self.r:
                raise ValueError("index set shape does not match the problem")

    @property
    def s(self) -> int:
        return len(self.index_sets)

    def partitions(self) -> tuple[Partition, ...]:
        return tuple(ix.to_partition() for ix in self.index_sets)

    def total_codim(self) -> int:
        return sum(ix.codim() for ix in self.index_sets)

    def expected_dim(self) -> int:
        return self.r * (self.n - self.r) - self.total_codim()

    def text(self) -> str:
        return ";".join(ix.text() for ix in self.index_sets)

    @classmethod
    def parse(cls, text: str) -> "SchubertProblem":
        sets = tuple(IndexSet.parse(part) for part in text.split(";"))
        if not sets:
            raise ValueError("empty problem text")
        return cls(sets[0].n, sets[0].r, sets)

    @classmethod
    def from_partitions(cls, lams: Sequence[Partition], n: int, r: int) -> "SchubertProblem":
        return cls(n, r, tuple(partition_to_index(l, n, r) for l in lams))


def partitions_with(size: int, max_length: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of `size` with at most `max_length` parts, largest part
    bounded by `max_part`; emitted in descending lexicographic order."""
    cap = size if max_part is None else min(max_part, size)

    def rec(remaining: int, slots: int, bound: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or bound == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    for parts in rec(size, max_length, cap):
        yield Partition(parts)


def partitions_up_to(max_size: int, max_length: int, max_part: int | None = None) -> list[Partition]:
    out: list[Partition] = []
    for size in range(max_size + 1):
        out.extend(partitions_with(size, max_length, max_part))
    return out
