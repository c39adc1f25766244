"""Schubert-class arithmetic in H*(Gr(r, n)).

A class is a plain dict from `Partition` (inside the r x (n-r) rectangle) to
its nonzero integer coefficient; the empty dict is zero.
Products expand through `lr_coefficient` and truncate to the rectangle. The
point class is the full rectangle partition.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .littlewood import lr_coefficient
from .partitions import IndexSet, Partition, SchubertProblem, partitions_with


def schubert_class(lam: Partition, r: int, n: int) -> dict[Partition, int]:
    if not lam.fits_in(r, n - r):
        raise ValueError(f"partition {lam.parts} outside the {r}x{n - r} rectangle")
    return {lam: 1}


@lru_cache(maxsize=None)
def _shapes(size: int, rows: int, cols: int) -> tuple[Partition, ...]:
    """The partitions of `size` inside the rows x cols rectangle."""
    return tuple(partitions_with(size, rows, cols))


def class_product(
    x: dict[Partition, int], y: dict[Partition, int], r: int, n: int
) -> dict[Partition, int]:
    """The product of two classes on Gr(r, n).

    Schubert classes and their products have positive coefficients, so no
    entry of the product cancels to zero."""
    out: dict[Partition, int] = {}
    for mu, cx in x.items():
        for nu, cy in y.items():
            total = mu.size + nu.size
            if total > r * (n - r):
                continue
            for lam in _shapes(total, r, n - r):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    out[lam] = out.get(lam, 0) + cx * cy * c
    return out


def problem_class(problem: SchubertProblem) -> dict[Partition, int]:
    """The product of the problem's condition classes on Gr(r, n).

    A codimension-0 condition has class sigma_empty = 1, so it is skipped and
    the product starts from the first nontrivial condition's class; a problem
    whose conditions are all trivial has class {empty: 1}.
    """
    r, n = problem.r, problem.n
    nontrivial = [lam for lam in problem.partitions() if lam.size]
    if not nontrivial:
        return {Partition(()): 1}
    first, *rest = nontrivial
    acc = schubert_class(first, r, n)
    for lam in rest:
        acc = class_product(acc, schubert_class(lam, r, n), r, n)
        if not acc:
            break
    return acc


def intersection_number(problem: SchubertProblem) -> int:
    """Coefficient of the point class; requires total codim = dim Gr(r, n)."""
    r, n = problem.r, problem.n
    if problem.total_codim() != r * (n - r):
        raise ValueError(
            f"dimension condition fails: total codim {problem.total_codim()} != {r * (n - r)}"
        )
    return problem_class(problem).get(Partition((n - r,) * r), 0)


@lru_cache(maxsize=None)
def nonvanishing_positions(d: int, r: int, s: int) -> tuple[tuple[IndexSet, ...], ...]:
    """All s-tuples of d-element index sets in [r] whose Schubert classes have
    a nonzero product in H*(Gr(d, r)); these are exactly the position tuples
    realized by some d-dimensional subspace for generic flags."""
    if not 0 < d <= r:
        raise ValueError("need 0 < d <= r")
    if s < 1:
        raise ValueError("need s >= 1")
    cap = d * (r - d)
    sets = [IndexSet(r, c) for c in combinations(range(1, r + 1), d)]
    out = []
    for tup in product(sets, repeat=s):
        if sum(k.codim() for k in tup) > cap:
            continue
        if problem_class(SchubertProblem(r, d, tup)):
            out.append(tup)
    return tuple(out)
