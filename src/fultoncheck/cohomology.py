"""Schubert-class arithmetic in H*(Gr(r, n)).

Classes are integer combinations of partitions inside the r x (n-r)
rectangle; products expand through `lr_coefficient` and truncate to the
rectangle. The point class is the full rectangle partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

from .littlewood import lr_coefficient
from .partitions import IndexSet, Partition, SchubertProblem, partition_to_index, partitions_with


@dataclass(frozen=True)
class CohomologyClass:
    """An element of H*(Gr(r, n)) with integer coefficients.

    `coeffs` maps trimmed partition tuples to nonzero integers, stored as a
    sorted tuple of pairs so equal classes compare equal.
    """

    r: int
    n: int
    coeffs: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_dict(cls, r: int, n: int, d: dict[tuple[int, ...], int]) -> "CohomologyClass":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return cls(r, n, items)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.coeffs)

    def coefficient(self, lam: Partition) -> int:
        key = lam.trimmed().parts
        for k, v in self.coeffs:
            if k == key:
                return v
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs


def unit_class(r: int, n: int) -> CohomologyClass:
    return CohomologyClass.from_dict(r, n, {(): 1})


def schubert_class(lam: Partition, r: int, n: int) -> CohomologyClass:
    if not lam.fits_in(r, n - r):
        raise ValueError(f"partition {lam.parts} outside the {r}x{n - r} rectangle")
    return CohomologyClass.from_dict(r, n, {lam.trimmed().parts: 1})


@lru_cache(maxsize=None)
def _shapes(size: int, rows: int, cols: int) -> tuple[Partition, ...]:
    """The partitions of `size` inside the rows x cols rectangle."""
    return tuple(partitions_with(size, rows, cols))


def class_product(x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    if (x.r, x.n) != (y.r, y.n):
        raise ValueError("classes live on different Grassmannians")
    r, n = x.r, x.n
    out: dict[tuple[int, ...], int] = {}
    for mu_key, cx in x.coeffs:
        mu = Partition(mu_key)
        for nu_key, cy in y.coeffs:
            nu = Partition(nu_key)
            total = mu.size + nu.size
            if total > r * (n - r):
                continue
            for lam in _shapes(total, r, n - r):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    out[lam.parts] = out.get(lam.parts, 0) + cx * cy * c
    return CohomologyClass.from_dict(r, n, out)


def problem_class(problem: SchubertProblem) -> CohomologyClass:
    r, n = problem.r, problem.n
    first, *rest = problem.partitions()
    acc = schubert_class(first, r, n)
    for lam in rest:
        acc = class_product(acc, schubert_class(lam, r, n))
        if acc.is_zero():
            break
    return acc


def intersection_number(problem: SchubertProblem) -> int:
    """Coefficient of the point class; requires total codim = dim Gr(r, n)."""
    r, n = problem.r, problem.n
    if problem.total_codim() != r * (n - r):
        raise ValueError(
            f"dimension condition fails: total codim {problem.total_codim()} != {r * (n - r)}"
        )
    point = Partition((n - r,) * r)
    return problem_class(problem).coefficient(point)


def invariant_dim(lams: Sequence[Partition], r: int) -> int:
    """Dimension of the invariant subspace of the tensor product of the
    irreducible SL(r) representations with highest weights `lams`."""
    if r < 1:
        raise ValueError("need r >= 1")
    trimmed = [l.trimmed() for l in lams]
    if not trimmed:
        raise ValueError("need at least one weight")
    for l in trimmed:
        if l.length > r:
            raise ValueError(f"weight {l.parts} has more than {r} rows")
    total = sum(l.size for l in trimmed)
    if total % r != 0:
        return 0
    m = total // r
    if any(l.parts and l.parts[0] > m for l in trimmed):
        return 0
    if m == 0:
        return 1
    n = r + m
    problem = SchubertProblem.from_partitions(trimmed, n, r)
    return intersection_number(problem)


@lru_cache(maxsize=None)
def nonvanishing_positions(
    d: int, r: int, s: int, max_codim: int | None = None
) -> tuple[tuple[IndexSet, ...], ...]:
    """All s-tuples of d-element index sets in [r] whose Schubert classes have
    a nonzero product in H*(Gr(d, r)); these are exactly the position tuples
    realized by some d-dimensional subspace for generic flags."""
    if not 0 < d <= r:
        raise ValueError("need 0 < d <= r")
    if s < 1:
        raise ValueError("need s >= 1")
    cap = d * (r - d) if max_codim is None else min(max_codim, d * (r - d))
    sets = [IndexSet(r, c) for c in combinations(range(1, r + 1), d)]
    out = []
    for tup in product(sets, repeat=s):
        if sum(k.codim() for k in tup) > cap:
            continue
        prob = SchubertProblem(r, d, tup)
        if not problem_class(prob).is_zero():
            out.append(tup)
    return tuple(out)
