"""Schubert-class arithmetic in H*(Gr(r, n)).

A class is a plain dict from `Partition` (inside the r x (n-r) rectangle) to
its nonzero integer coefficient; the empty dict is zero.
Products expand through `lr_coefficient` and truncate to the rectangle. The
point class is the full rectangle partition.

An intersection number is read inside the dual of its largest condition
(`intersection_number`), not off the full product.  The position tables of
`nonvanishing_positions` have a top-degree subsequence
(`_top_degree_indices`) on which `semistability.find_violations` decides
each subspace dimension first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .littlewood import lr_coefficient
from .partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    _parts_contain,
    all_index_sets,
    partitions_with,
)


def schubert_class(lam: Partition, r: int, n: int) -> dict[Partition, int]:
    if not lam.fits_in(r, n - r):
        raise ValueError(f"partition {lam.parts} outside the {r}x{n - r} rectangle")
    return {lam: 1}


@lru_cache(maxsize=None)
def _shapes_within(size: int, outer: tuple[int, ...]) -> tuple[Partition, ...]:
    """The partitions of `size` inside the partition `outer` (given as its
    parts), in descending lexicographic order."""
    return tuple(lam for lam in partitions_with(size, len(outer), outer[0] if outer else 0)
                 if _parts_contain(outer, lam.parts))


def _product_within(
    x: dict[Partition, int], y: dict[Partition, int], outer: tuple[int, ...]
) -> dict[Partition, int]:
    """The product of two classes, keeping only the shapes inside `outer`.

    Schubert classes and their products have positive coefficients, so no
    entry of the product cancels to zero."""
    out: dict[Partition, int] = {}
    for mu, cx in x.items():
        for nu, cy in y.items():
            for lam in _shapes_within(mu.size + nu.size, outer):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    out[lam] = out.get(lam, 0) + cx * cy * c
    return out


def class_product(
    x: dict[Partition, int], y: dict[Partition, int], r: int, n: int
) -> dict[Partition, int]:
    """The product of two classes on Gr(r, n): every shape inside the
    r x (n-r) rectangle."""
    return _product_within(x, y, (n - r,) * r)


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
    """Coefficient of the point class; requires total codim = dim Gr(r, n).

    By the duality theorem, for |mu| + |lam| = r(n - r), sigma_mu * sigma_lam
    is the point class when mu is the dual lam^v = (n-r-lam_r, ...,
    n-r-lam_1), and 0 otherwise (Fulton, Young Tableaux, 1997, ch. 9).  So the number is the coefficient of lam^v in
    the product of the other classes, lam being a condition of largest
    codimension.  A shape nu in that product reaches lam^v only if nu is
    inside lam^v, since c^kappa_{nu,mu} = 0 unless nu is inside kappa; so each
    partial product keeps only the shapes inside lam^v.
    """
    r, n = problem.r, problem.n
    if problem.total_codim() != r * (n - r):
        raise ValueError(
            f"dimension condition fails: total codim {problem.total_codim()} != {r * (n - r)}"
        )
    lams = problem.partitions()
    last = max(range(len(lams)), key=lambda j: lams[j].size)
    dual = Partition(tuple(n - r - x for x in reversed(lams[last].padded(r))))
    acc = {Partition(()): 1}
    for j, lam in enumerate(lams):
        if j != last and lam.size:
            acc = _product_within(acc, {lam: 1}, dual.parts)
            if not acc:
                return 0
    return acc.get(dual, 0)


@lru_cache(maxsize=None)
def _position_indices(
    d: int, r: int, s: int
) -> tuple[tuple[IndexSet, ...], tuple[tuple[int, ...], ...]]:
    """The lexicographic d-subsets of [r], and each nonvanishing s-tuple of
    them (see `nonvanishing_positions`) as a tuple of indices into that list.

    A product of classes whose codimensions sum past dim Gr(d, r) = d(r - d)
    vanishes, so the tuples within that cap are found by a depth-first search
    that takes each set's codimension once and prunes a branch as soon as its
    codimension exceeds what is left of the cap; only those tuples have their
    class product computed.  The order is that of `itertools.product`.
    """
    if not 0 < d <= r:
        raise ValueError("need 0 < d <= r")
    if s < 1:
        raise ValueError("need s >= 1")
    sets = tuple(all_index_sets(r, d))
    codims = [k.codim() for k in sets]
    out = []
    for tup in _tuples_within(codims, s, d * (r - d)):
        if problem_class(SchubertProblem(r, d, tuple(sets[i] for i in tup))):
            out.append(tup)
    return sets, tuple(out)


def _tuples_within(weights: list[int], size: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All `size`-tuples (size >= 1) of indices into the nonnegative `weights`
    whose weights sum to at most `cap`, in lexicographic order.

    A depth-first search with an explicit stack, so that `size` is not bounded
    by the recursion limit."""
    n = len(weights)
    tup = [0] * size  # tup[k]: the next index to try at position k
    left = [cap] * size  # left[k]: `cap` minus the weights of tup[:k]
    k = 0
    while k >= 0:
        i, room = tup[k], left[k]
        while i < n and weights[i] > room:
            i += 1
        if i == n:  # position k is exhausted: advance the one before it
            k -= 1
            if k >= 0:
                tup[k] += 1
        elif k == size - 1:
            tup[k] = i
            yield tuple(tup)
            tup[k] = i + 1
        else:
            tup[k], tup[k + 1] = i, 0
            left[k + 1] = room - weights[i]
            k += 1


@lru_cache(maxsize=None)
def _top_degree_indices(d: int, r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The tuples of `_position_indices(d, r, s)` whose codimensions sum to
    dim Gr(d, r) = d(r - d), in the same order: those whose class product is
    a positive multiple of the point class."""
    sets, tuples = _position_indices(d, r, s)
    top = d * (r - d)
    return tuple(tup for tup in tuples if sum(sets[i].codim() for i in tup) == top)


@lru_cache(maxsize=None)
def nonvanishing_positions(d: int, r: int, s: int) -> tuple[tuple[IndexSet, ...], ...]:
    """All s-tuples of d-element index sets in [r] whose Schubert classes have
    a nonzero product in H*(Gr(d, r)), in lexicographic order; these are
    exactly the position tuples realized by some d-dimensional subspace for
    generic flags."""
    sets, tuples = _position_indices(d, r, s)
    return tuple(tuple(sets[i] for i in tup) for tup in tuples)
