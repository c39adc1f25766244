"""Parabolic slope arithmetic and generic semistability of weighted flags.

A weight table attaches integers w^j_1 >= ... >= w^j_r to each of s flags on
an r-dimensional space. A subspace of dimension d sitting at positions
K = (K^1..K^s) has slope (sum_j sum_{a in K^j} w^j_a) / d; the weighted space
is generically semistable when no admissible subspace has slope exceeding the
total slope. For generic flags, "admissible" means exactly: position tuples K
whose Schubert class product on Gr(d, r) is nonzero — only those positions
are realized by actual subspaces, which is how the universal quantifier over
subspaces becomes a finite check.

All slope comparisons are exact rationals; nothing here floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import nonvanishing_positions
from .partitions import IndexSet, SchubertProblem


@dataclass(frozen=True)
class ParabolicWeights:
    """Weakly decreasing integer weight rows, one per flag condition."""

    r: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("weights need r >= 1")
        if not self.rows:
            raise ValueError("weights need at least one condition")
        for row in self.rows:
            if len(row) != self.r:
                raise ValueError("weight row length differs from r")
            for x, y in zip(row, row[1:]):
                if y > x:
                    raise ValueError(f"weight row not weakly decreasing: {row}")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("weights must be integers")

    @property
    def s(self) -> int:
        return len(self.rows)

    def scale(self, factor: int) -> "ParabolicWeights":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return ParabolicWeights(
            self.r, tuple(tuple(factor * x for x in row) for row in self.rows)
        )

    @classmethod
    def from_problem(cls, problem: SchubertProblem) -> "ParabolicWeights":
        """The weight table w^j_a = n - r + a - i^j_a of a position problem."""
        return cls(
            problem.r,
            tuple(ix.to_partition().padded(problem.r) for ix in problem.index_sets),
        )


def slope(positions: tuple[IndexSet, ...], weights: ParabolicWeights) -> Fraction:
    """Exact slope of a subspace at the given positions: weight sum over dim."""
    if len(positions) != weights.s:
        raise ValueError("position tuple length differs from the weight table")
    d = positions[0].r
    if d < 1:
        raise ValueError("slope needs a nonzero subspace")
    total = 0
    for k, row in zip(positions, weights.rows):
        if k.n != weights.r or k.r != d:
            raise ValueError("position shape does not match the weight table")
        for a in k.elements:
            total += row[a - 1]
    return Fraction(total, d)


def total_slope(weights: ParabolicWeights) -> Fraction:
    full = tuple(
        IndexSet(weights.r, tuple(range(1, weights.r + 1))) for _ in range(weights.s)
    )
    return slope(full, weights)


@dataclass(frozen=True)
class SlopeViolation:
    d: int
    positions: tuple[IndexSet, ...]
    slope_sub: Fraction
    slope_total: Fraction


def find_violations(weights: ParabolicWeights) -> list[SlopeViolation]:
    """All nonvanishing position tuples of excessive slope; empty exactly when
    the weights are generically semistable.

    Comparisons are done on cross-multiplied integers; Fraction would also be
    exact, but keeping the comparison integral makes that explicit.
    """
    r, s = weights.r, weights.s
    mu_total = total_slope(weights)
    out: list[SlopeViolation] = []
    for d in range(1, r):
        for positions in nonvanishing_positions(d, r, s):
            total = 0
            for k, row in zip(positions, weights.rows):
                for a in k.elements:
                    total += row[a - 1]
            # slope_sub > slope_total  <=>  total * r_den > num * d
            if total * mu_total.denominator > mu_total.numerator * d:
                out.append(
                    SlopeViolation(
                        d=d,
                        positions=positions,
                        slope_sub=Fraction(total, d),
                        slope_total=mu_total,
                    )
                )
    return out


def clincher(problem: SchubertProblem, positions: tuple[IndexSet, ...]) -> int:
    """The destabilization margin sum_j sum_{a in K^j} (n-r+a-i^j_a) - d(n-r).

    Implemented directly from the problem's index sets (independently of the
    chain bookkeeping elsewhere) so that agreement between the two is an
    actual cross-check. For the weight table of the problem itself this equals
    d * (slope(K) - (n-r)) whenever the total weight is r(n-r); semistability
    then forces the value to be nonpositive.
    """
    if len(positions) != problem.s:
        raise ValueError("position tuple length differs from the problem")
    n, r = problem.n, problem.r
    d = len(positions[0].elements)
    total = 0
    for ix, k in zip(problem.index_sets, positions):
        elements = k.elements
        if k.n != r or len(elements) != d:
            raise ValueError("position shape does not match the problem")
        for a in elements:
            total += n - r + a - ix.elements[a - 1]
    return total - d * (n - r)
