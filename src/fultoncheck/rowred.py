"""Row reduction: the one exact RREF used by every matrix, over F_p and Q.

First-nonzero pivoting; the field enters only as its p (0 for Q). Over
F_p the entries are ints in [0, p), reduced mod p, and pivot inverses are
`pow(x, -1, p)`, exact for any prime p since Python ints do not overflow.

Over Q (p = 0) the entries are ints or `fractions.Fraction`s, and the
reduction is fraction-free: each row is scaled once to integers by the lcm
of its denominators (`_integer_vector`), a row is cleared against the pivot
row as `pv * row - f * prow`, and every new row is divided by the gcd of its
entries, so it stays primitive and its entries small. Only at the end is
each pivot row divided by its pivot, and an entry becomes a `Fraction` only
where that division is not exact, never a float. The RREF is unique, so the
result is the one a Gauss-Jordan pass over `Fraction`s gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Kept as a constant because benchmark runs record it in their metadata.
BACKEND = "pure"


def _integer_vector(xs) -> tuple[list[int], int]:
    """(d * xs, d) for ints and `Fraction`s `xs`: d is the lcm of their
    denominators, so every entry of d * xs is an int."""
    if Fraction not in map(type, xs):
        return list(xs), 1
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rref_mod(rows: list[list], p: int) -> tuple[list[list], list[int]]:
    """Reduce `rows` to RREF over F_p, or over Q when p = 0.

    Pivot search scans rows top-down and takes the first nonzero entry in the
    current column (no tolerance; arithmetic is exact). The input
    list-of-lists is consumed; callers pass a fresh copy and read the
    returned rows. The name predates the Q case; it stays because the
    benchmark's tracer counts row reductions through `rowred.rref_mod`.

    Returns:
        (rows, pivot_columns)
    """
    if not p:
        return _rref_rational(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            row = rows[r]
            for j in range(c, ncols):
                row[j] = row[j] * inv % p
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_rational(rows: list[list]) -> tuple[list[list], list[int]]:
    """`rref_mod(rows, 0)`: the fraction-free Gauss-Jordan pass over Q."""
    rows = [_primitive(_integer_vector(row)[0]) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                # A row above r holds its own pivot left of c, so the whole
                # row is scaled; prow is zero left of c.
                rows[i] = _primitive([pv * a - f * b for a, b in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for k, c in enumerate(pivots):
        pv = rows[k][c]
        if pv != 1:
            rows[k] = [a // pv if a % pv == 0 else Fraction(a, pv) for a in rows[k]]
    return rows, pivots
