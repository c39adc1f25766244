"""Schubert-class arithmetic in H*(Gr(r, n)).

A class is a plain dict from `Partition` to its nonzero integer coefficient;
the empty dict is zero.  Products expand through `lr_coefficient`.  There is
one product route, `_dual_product`: it multiplies every condition but one of
largest codimension lam and keeps only the shapes inside the dual lam^v, since
sigma_nu * sigma_lam is nonzero exactly when nu is inside lam^v.  An
intersection number is that product's coefficient of lam^v
(`intersection_number`), and a position tuple is realizable exactly when that
product is nonzero (`_position_indices`).  The position tables of
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


def _dual_product(problem: SchubertProblem) -> tuple[dict[Partition, int], Partition]:
    """The product of every condition class but one of largest codimension
    lam (the first such), kept inside the dual lam^v = (n-r-lam_r, ...,
    n-r-lam_1), returned with lam^v.

    The product starts from the first other nontrivial class {mu: 1} ({} when
    mu is not inside lam^v; the unit class when there is none) and stops as
    soon as it is zero.  By the duality theorem (Fulton, Young Tableaux,
    1997, 9.4) sigma_nu * sigma_lam is nonzero exactly when nu is inside
    lam^v, and is the point class when nu = lam^v.  Schubert products have
    nonnegative coefficients, so nothing cancels, and c^kappa_{nu,mu} = 0
    unless nu is inside kappa, so a shape outside lam^v never leads back
    inside it.  Hence the problem's class is nonzero exactly when this
    product is, and in top degree its point coefficient is this product's
    coefficient of lam^v.
    """
    r, n = problem.r, problem.n
    lams = problem.partitions()
    last = max(range(len(lams)), key=lambda j: lams[j].size)
    dual = Partition(tuple(n - r - x for x in reversed(lams[last].padded(r))))
    others = [lam for j, lam in enumerate(lams) if j != last and lam.size]
    if not others:
        return {Partition(()): 1}, dual
    first, *rest = others
    acc = {first: 1} if _parts_contain(dual.parts, first.parts) else {}
    for lam in rest:
        if not acc:
            break
        acc = _product_within(acc, {lam: 1}, dual.parts)
    return acc, dual


def intersection_number(problem: SchubertProblem) -> int:
    """Coefficient of the point class; requires total codim = dim Gr(r, n).

    It is read inside the dual of a largest condition (`_dual_product`).
    """
    r, n = problem.r, problem.n
    if problem.total_codim() != r * (n - r):
        raise ValueError(
            f"dimension condition fails: total codim {problem.total_codim()} != {r * (n - r)}"
        )
    classes, dual = _dual_product(problem)
    return classes.get(dual, 0)


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
    class product computed, inside the dual of a largest condition
    (`_dual_product`).  The order is that of `itertools.product`.
    """
    if not 0 < d <= r:
        raise ValueError("need 0 < d <= r")
    if s < 1:
        raise ValueError("need s >= 1")
    sets = tuple(all_index_sets(r, d))
    codims = [k.codim() for k in sets]
    out = []
    for tup in _tuples_within(codims, s, d * (r - d)):
        if _dual_product(SchubertProblem(r, d, tuple(sets[i] for i in tup)))[0]:
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
