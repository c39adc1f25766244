"""Row-reduction kernels: the one exact RREF used by every matrix.

Reduced row echelon form with first-nonzero pivoting, over F_p (ints) and
over Q (fractions.Fraction). `rref_mod` takes pivot inverses with the
built-in modular inverse `pow(x, -1, p)` and works for any prime p, since
Python ints do not overflow.
"""

from __future__ import annotations

from fractions import Fraction

# Kept as a constant because benchmark runs record it in their metadata.
BACKEND = "pure"


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduce `rows` (entries in [0, p)) to RREF in place.

    Pivot search scans rows top-down and takes the first nonzero entry in the
    current column (no tolerance; arithmetic is exact mod p). The input
    list-of-lists is consumed; callers pass a fresh copy.

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


def rref_frac(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """RREF over the rationals; same control flow as `rref_mod`."""
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
        inv = 1 / rows[r][c]
        if inv != 1:
            row = rows[r]
            for j in range(c, ncols):
                row[j] = row[j] * inv
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots
