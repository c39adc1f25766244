"""Partitions, Schubert index sets, and Schubert problems.

The dictionary between an index set I = {i_1 < ... < i_r} in [n] and a
partition inside the r x (n-r) rectangle is

    lambda_a = (n - r) + a - i_a,        i_a = (n - r) + a - lambda_a,

so codim(I) = sum_a lambda_a = |lambda|.  A `Partition` drops zero parts
when it is built, so the r rows above and the same partition without its
zero rows are equal; `Partition.padded(r)` gives the r-tuple back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import Iterator


def _parts_contain(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether the partition `outer` contains `inner`, row by row."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive integers; zero parts given are
    dropped, and parts given as another sequence are stored as a tuple."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        prev = None
        for x in parts:
            if type(x) is not int or x < 0:
                raise ValueError(f"bad partition part {x!r}")
            if prev is not None and x > prev:
                raise ValueError(f"parts not weakly decreasing: {parts}")
            prev = x
        if prev == 0:
            parts = parts[: parts.index(0)]
        if parts is not self.parts:
            object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def trimmed(self) -> "Partition":
        """This partition itself: a partition holds no zero parts.

        Kept because the benchmark's planted fault (`perfbench/child.py`)
        calls it; without it the fault child crashes, and the fault gate
        would pass on the crash without testing the verdict."""
        return self

    def padded(self, length: int) -> tuple[int, ...]:
        """The parts followed by zeros, `length` entries in all."""
        parts = self.parts
        if length < len(parts):
            raise ValueError("padding below the number of nonzero parts")
        return parts + (0,) * (length - len(parts))

    def scale(self, n: int) -> "Partition":
        if n < 0:
            raise ValueError("negative stretch factor")
        return Partition(tuple(n * x for x in self.parts))

    def fits_in(self, rows: int, cols: int) -> bool:
        parts = self.parts
        return len(parts) <= rows and (not parts or parts[0] <= cols)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        return cls(tuple(int(x) for x in text.split(",")))

    def text(self) -> str:
        return ",".join(str(x) for x in self.parts) if self.parts else "0"


@dataclass(frozen=True, order=True)
class IndexSet:
    """Strictly increasing i_1 < ... < i_r inside [1, n], stored as a tuple."""

    n: int
    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative ambient size")
        if type(self.elements) is not tuple:
            object.__setattr__(self, "elements", tuple(self.elements))
        prev = 0
        for x in self.elements:
            if type(x) is not int or x <= prev:
                raise ValueError(f"index set not strictly increasing in [1,n]: {self.elements}")
            prev = x
        if self.elements and self.elements[-1] > self.n:
            raise ValueError(f"index {self.elements[-1]} exceeds n={self.n}")

    @property
    def r(self) -> int:
        return len(self.elements)

    def codim(self) -> int:
        # Cached in an attribute outside the fields, so equality, hashing,
        # order and repr are unchanged.  It is read and set as an attribute:
        # touching `__dict__` would give every set its own dict object.
        try:
            return self._codim
        except AttributeError:
            n, r = self.n, self.r
            value = sum(n - r + a - i for a, i in enumerate(self.elements, start=1))
            object.__setattr__(self, "_codim", value)
            return value

    def to_partition(self) -> Partition:
        # Cached like `codim`.  The problem stream shares its index-set objects
        # within one (n, r), so a sweep builds one `Partition` per set, not one
        # per condition of every problem.
        try:
            return self._partition
        except AttributeError:
            n, r = self.n, self.r
            value = Partition(tuple(n - r + a - i for a, i in enumerate(self.elements, start=1)))
            object.__setattr__(self, "_partition", value)
            return value

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
    padded = lam.padded(r)
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

    def core(self) -> "SchubertProblem":
        """This problem without its codimension-0 conditions.

        A trivial condition I = {n - r + 1, ..., n} has class sigma_empty = 1
        and adds no constraint row (its level i_a - a is n - r for every a),
        so the intersection number and the map space at given flags are the
        core's.  The problem itself is returned when it has no trivial
        condition, and also when every condition is trivial, since a problem
        needs at least one condition.
        """
        kept = tuple(ix for ix in self.index_sets if ix.codim())
        if not kept or len(kept) == len(self.index_sets):
            return self
        return SchubertProblem(self.n, self.r, kept)

    def text(self) -> str:
        return ";".join(ix.text() for ix in self.index_sets)

    @classmethod
    def parse(cls, text: str) -> "SchubertProblem":
        sets = tuple(IndexSet.parse(part) for part in text.split(";"))
        if not sets:
            raise ValueError("empty problem text")
        return cls(sets[0].n, sets[0].r, sets)


def partitions_with(size: int, max_length: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of `size` with at most `max_length` parts, largest part
    bounded by `max_part`; emitted in descending lexicographic order."""
    cap = size if max_part is None else min(max_part, size)
    for parts in _parts_with(size, max_length, cap):
        yield Partition(parts)


def _parts_with(remaining: int, slots: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Parts tuples for `partitions_with`: a module-level generator, so the
    recursion forms no reference cycle."""
    if remaining == 0:
        yield ()
        return
    if slots == 0 or bound == 0:
        return
    for first in range(min(bound, remaining), 0, -1):
        for rest in _parts_with(remaining - first, slots - 1, first):
            yield (first,) + rest
