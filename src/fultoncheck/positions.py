"""Schubert positions of subspaces and induced flags on sub and quotient.

The position of a d-dimensional V with respect to a complete flag E is the
set of levels u where dim(V ∩ E_u) jumps. Induced flags come with explicit
coordinates: on V, an ordered basis adapted to the jump levels, expressed in
V's own basis; on W/V, the images of the non-jump flag vectors, expressed in
a fixed complement basis chosen once per call. A jump profile and a quotient
map are one `Matrix.echelon_transform` each; a jump profile reduces the
transpose of its coordinates upside down, built as one `Matrix`. `cut`
builds every induced flag of the filtration run off one jump profile per
flag; the trace audit shares none of this, reading positions off its own certified elimination
(`filtration._lowest_rows`).
"""

from __future__ import annotations

from .linalg import Flag, LinAlgError, Matrix
from .partitions import IndexSet


def _bottom_pivot_profile(c: Matrix) -> list[tuple[int, tuple]]:
    """Column-reduce `c` so the lowest nonzero rows are distinct.

    Returns pairs (lowest_row_1based, coefficient_vector) sorted by level;
    the coefficient vectors, rows of the `echelon_transform` of the transpose
    of `c` upside down, express the reduced columns in the original ones and
    are invertible.
    """
    n, r = c.nrows, c.ncols
    if r == 0:
        return []
    piv, t = Matrix(c.field, r, n, tuple(zip(*reversed(c.rows)))).echelon_transform()
    if len(piv) != r or any(q >= n for q in piv):
        raise LinAlgError("subspace coordinates are rank deficient")
    return sorted(((n - q, t.rows[k]) for k, q in enumerate(piv)), key=lambda item: item[0])


def quotient_map(basis: Matrix) -> tuple[Matrix, Matrix]:
    """A projection P: ambient -> W/V in complement coordinates, V = span(basis).

    Returns (P, C): C's columns are the standard vectors completing `basis`
    greedily, and P @ basis = 0, P @ C = identity, so P is rows d: of
    [basis | C]^-1. One `echelon_transform` gives both: C from the pivots
    past `basis`, P from the rows of T below d = basis.ncols. Its pivots also
    check the basis: dependent columns raise `LinAlgError`.
    """
    n, d = basis.nrows, basis.ncols
    piv, t = basis.echelon_transform()
    if piv[:d] != tuple(range(d)):
        raise LinAlgError("subspace basis columns are dependent")
    comp = Matrix.identity(basis.field, n).take_columns(q - d for q in piv[d:])
    return Matrix(basis.field, n - d, n, t.rows[d:]), comp


def falcon_compose(i_set: IndexSet, k_set: IndexSet) -> IndexSet:
    """Position of S in W from the position I of V in W and the position K of
    S in V relative to the induced flag: L = {i_a : a in K}."""
    if k_set.n != i_set.r:
        raise ValueError("inner position must index the outer subspace dimensions")
    return IndexSet(i_set.n, tuple(i_set.elements[a - 1] for a in k_set.elements))


def dim_triple(positions: tuple[IndexSet, ...] | list[IndexSet]) -> int:
    """Expected dimension dim Gr(d, r) - sum of codims for a position tuple."""
    positions = tuple(positions)
    if not positions:
        raise ValueError("need at least one position")
    r = positions[0].n
    d = positions[0].r
    for k in positions:
        if k.n != r or k.r != d:
            raise ValueError("position tuple is not uniform")
    return d * (r - d) - sum(k.codim() for k in positions)


def rappel_delta(i_sets: tuple[IndexSet, ...], k_sets: tuple[IndexSet, ...]) -> int:
    """Exact difference dim(S,V,E(V)) - dim(S,W,E) for the position data:
    sum over j and a in K^j of (n - r + a - i^j_a), minus d(n - r)."""
    if len(i_sets) != len(k_sets):
        raise ValueError("position tuples differ in length")
    if not i_sets:
        raise ValueError("need at least one condition")
    n = i_sets[0].n
    r = i_sets[0].r
    d = k_sets[0].r
    total = 0
    for i_set, k_set in zip(i_sets, k_sets):
        if i_set.n != n or i_set.r != r or k_set.n != r or k_set.r != d:
            raise ValueError("position tuple shapes are inconsistent")
        for a in k_set.elements:
            total += n - r + a - i_set.elements[a - 1]
    return total - d * (n - r)


def cut(
    flags: tuple[Flag, ...], basis: Matrix
) -> tuple[tuple[IndexSet, ...], tuple[Flag, ...], tuple[Flag, ...], Matrix]:
    """Cut the flags' space W along V = span(basis): (positions, sub, quot, comp).

    `positions` holds the position I of V against each flag E. `sub` holds
    E_a(V) = E_{i_a} ∩ V in the coordinates of `basis`. `quot` holds on W/V
    the flag whose step b is the image of E_{alpha(b)}, alpha = [n] \\ I, in
    the coordinates of the complement basis `comp` (the projection is the one
    `quotient_map` returns). All three come from one jump profile per flag.
    """
    n, d = basis.nrows, basis.ncols
    if not flags:
        raise LinAlgError("need at least one flag")
    if any(f.n != n for f in flags):
        raise LinAlgError("subspace and flag ambient dimensions differ")
    proj, comp = quotient_map(basis)
    positions, subs, quots = [], [], []
    for f in flags:
        items = _bottom_pivot_profile(f.inverse @ basis)
        pos = IndexSet(n, tuple(level for level, _ in items))
        positions.append(pos)
        subs.append(Flag(Matrix.from_columns(basis.field, [c for _, c in items], nrows=d)))
        alpha = pos.complement().elements
        quots.append(Flag(proj @ f.matrix.take_columns([a - 1 for a in alpha])))
    return tuple(positions), tuple(subs), tuple(quots), comp
