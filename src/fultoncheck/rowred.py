"""Row reduction: the one exact RREF used by every matrix, over F_p and Q.

First-nonzero pivoting; the field enters only as its characteristic p, with
ints in [0, p) reduced mod p when p > 0 and `fractions.Fraction`s when p = 0.
Pivot inverses are `pow(x, -1, p)`, exact for any prime p since Python ints
do not overflow, or `1 / x` over Q.
"""

from __future__ import annotations

# Kept as a constant because benchmark runs record it in their metadata.
BACKEND = "pure"


def rref_mod(rows: list[list], p: int) -> tuple[list[list], list[int]]:
    """Reduce `rows` to RREF in place over F_p, or over Q when p = 0.

    Pivot search scans rows top-down and takes the first nonzero entry in the
    current column (no tolerance; arithmetic is exact). The input
    list-of-lists is consumed; callers pass a fresh copy. The name predates
    the Q case; it stays because the benchmark's tracer counts row
    reductions through `rowred.rref_mod`.

    Returns:
        (rows, pivot_columns)
    """
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
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        if inv != 1:
            row = rows[r]
            for j in range(c, ncols):
                row[j] = row[j] * inv % p if p else row[j] * inv
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = (row[j] - f * prow[j]) % p if p else row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots
