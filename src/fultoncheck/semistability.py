"""Parabolic slope arithmetic and generic semistability of weighted flags.

A weight table attaches integers w^j_1 >= ... >= w^j_r to each of s flags on
an r-dimensional space. A subspace of dimension d sitting at positions
K = (K^1..K^s) has slope (sum_j sum_{a in K^j} w^j_a) / d; the weighted space
is generically semistable when no admissible subspace has slope exceeding the
total slope. For generic flags, "admissible" means exactly: position tuples K
whose Schubert class product on Gr(d, r) is nonzero — only those positions
are realized by actual subspaces, which is how the universal quantifier over
subspaces becomes a finite check.

Both checks here run over the position tuples of one d at a time, held as
index tuples into the list of d-subsets of [r] (`_position_indices`).  Each
builds one table per condition, with one entry per d-subset K, so a tuple's
sum costs s lookups.  `find_violations` tabulates row sums of a weight table;
`clinchers` tabulates margins read off a problem's index sets and never sees
a weight table.  The two tables hold the same numbers for a problem's own
weights, and computing them by separate routes is what makes agreement
between the slope verdict and the margins a cross-check.

`find_violations` first decides each d on the top-degree tuples alone and
scans every tuple only for a d that has a violation; `clinchers` always
scans every tuple.  So a wrong shortcut makes the two routes disagree
instead of passing unseen.

All slope comparisons are exact rationals; nothing here floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import getitem

from .cohomology import _position_indices, _top_degree_indices
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

    @classmethod
    def from_problem(cls, problem: SchubertProblem) -> "ParabolicWeights":
        """The weight table w^j_a = n - r + a - i^j_a of a position problem."""
        return cls(
            problem.r,
            tuple(ix.to_partition().padded(problem.r) for ix in problem.index_sets),
        )


def total_slope(weights: ParabolicWeights) -> Fraction:
    """The slope of the whole space: every weight, over r."""
    return Fraction(sum(map(sum, weights.rows)), weights.r)


@dataclass(frozen=True)
class SlopeViolation:
    d: int
    positions: tuple[IndexSet, ...]
    slope_sub: Fraction
    slope_total: Fraction


def find_violations(weights: ParabolicWeights) -> list[SlopeViolation]:
    """All nonvanishing position tuples of excessive slope, in the order of
    `nonvanishing_positions`; empty exactly when the weights are generically
    semistable.

    For each d, row j of the weights becomes a table whose entry for the k-th
    d-subset K is sum_{a in K} w^j_a; `combinations` yields the row's values
    at the d-subsets in the same lexicographic order as `_position_indices`.
    A tuple's weight is then one lookup per row.
    Comparisons are done on cross-multiplied integers; Fraction would also be
    exact, but keeping the comparison integral makes that explicit.

    A d is first decided on the tuples of top degree d(r - d)
    (`_top_degree_indices`): when none of them exceeds the bound, d is
    skipped, and otherwise every tuple is scanned, so the list is the one a
    full scan returns.  The skip is exact because every nonvanishing tuple K
    is dominated by a top-degree tuple L, L^j_a <= K^j_a for all j and a.
    By Pieri's rule sigma_1 * sigma_lam is the sum of the classes of lam
    with one box added inside the d x (r - d) rectangle.  Below top degree
    the product of K's classes is a nonzero sum of Schubert classes with
    nonnegative coefficients, none of them the full rectangle, so sigma_1
    times it is nonzero: nothing cancels.  The product commutes, so that is
    a sum of products in which one factor of K has gained one box, and one
    of them is nonzero.  A box added to row a of lam lowers the index i_a of
    its index set by one, as lam_a = r - d + a - i_a.  Repeat until top
    degree.  A weakly decreasing row takes no smaller a sum at lower
    positions, so L weighs at least as much as K.
    """
    r, s = weights.r, weights.s
    mu_total = total_slope(weights)
    out: list[SlopeViolation] = []
    for d in range(1, r):
        sets, tuples = _position_indices(d, r, s)
        tables = [list(map(sum, combinations(row, d))) for row in weights.rows]
        # slope_sub > slope_total  <=>  total * r_den > num * d
        bound = mu_total.numerator * d
        top = max(sum(map(getitem, tables, tup)) for tup in _top_degree_indices(d, r, s))
        if top * mu_total.denominator <= bound:
            continue
        for tup in tuples:
            total = sum(map(getitem, tables, tup))
            if total * mu_total.denominator > bound:
                out.append(
                    SlopeViolation(
                        d=d,
                        positions=tuple(sets[i] for i in tup),
                        slope_sub=Fraction(total, d),
                        slope_total=mu_total,
                    )
                )
    return out


def _margins(ix: IndexSet, n: int, r: int) -> tuple[int, ...]:
    """One condition's margin n - r + a - i_a at each position a = 1..r, after
    a leading 0 so that position a sits at index a: its share of the margin
    of a subspace at positions K is the sum of its entries at K."""
    return (0, *(n - r + a - i for a, i in enumerate(ix.elements, start=1)))


def clinchers(problem: SchubertProblem, d: int) -> list[int]:
    """The destabilization margin sum_j sum_{a in K^j} (n - r + a - i^j_a) - d(n - r)
    of every tuple K of `nonvanishing_positions(d, r, s)`, in that order.

    For the problem's own weight table this is d * (slope(K) - (n - r))
    whenever the total weight is r(n - r); semistability then forces every
    margin to be nonpositive.

    Each condition becomes a table of its `_margins` share at each d-subset
    of [r] (`_margin_table`), so a tuple's margin is s lookups minus d(n - r).
    """
    n, r = problem.n, problem.r
    _, tuples = _position_indices(d, r, problem.s)
    tables = [_margin_table(ix, d) for ix in problem.index_sets]
    base = d * (n - r)
    return [sum(map(getitem, tables, tup)) - base for tup in tuples]


@lru_cache(maxsize=None)
def _margin_table(ix: IndexSet, d: int) -> tuple[int, ...]:
    """One condition's `_margins` share at each d-subset of [ix.r], in the
    lexicographic order of `_position_indices`."""
    at = _margins(ix, ix.n, ix.r).__getitem__
    return tuple(sum(map(at, k)) for k in combinations(range(1, ix.r + 1), d))
