"""Exact linear algebra over a prime field or the rationals.

Matrices are immutable; columns are the vectors. Entries are plain Python
numbers (see `field`), and of the field the arithmetic reads only p (0 for Q):
products reduce mod p > 0, and over Q they take integer dot products of rows
and columns scaled to integers, making a `Fraction` only for an entry that is
not an integer. Rank, kernel and containment come from the one
exact RREF `rowred.rref_mod(rows, p)` (first-nonzero pivoting, no tolerances),
cached per matrix. Every question that needs the row operations themselves
(inverse, the coefficients of a jump profile, a quotient map) reads them off
one routine, `Matrix.echelon_transform`, which reduces `[M | I]` once. Random
flags are drawn in the open Bruhat cell of the flag variety: uniform lower
unitriangular bases (`random_unitriangular`), which are always invertible and
so need no retry. The only resampling left is `random_nonzero_combination`'s.
Every draw is a deterministic function of the supplied RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dc_field
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence

from .field import Field, SolverFault
from .rowred import _integer_vector, rref_mod

MAX_SAMPLE_ATTEMPTS = 100


class LinAlgError(ValueError, SolverFault):
    """Ill-posed exact linear algebra input (shape mismatch, singularity)."""


class SamplingError(SolverFault):
    """Random sampling failed to produce a full-rank object within the cap."""


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix; `rows` is a tuple of row tuples of field elements."""

    field: Field
    nrows: int
    ncols: int
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise LinAlgError("negative matrix dimension")
        if len(self.rows) != self.nrows:
            raise LinAlgError("row count mismatch")
        for row in self.rows:
            if len(row) != self.ncols:
                raise LinAlgError("ragged matrix rows")

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int | Fraction]], ncols: int | None = None) -> "Matrix":
        canon = tuple(tuple(field.reduce(x) for x in row) for row in rows)
        if ncols is None:
            ncols = len(canon[0]) if canon else 0
        return cls(field, len(canon), ncols, canon)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence[int | Fraction]], nrows: int | None = None) -> "Matrix":
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        rows = [[field.reduce(col[i]) for col in cols] for i in range(nrows)]
        return cls(field, nrows, len(cols), tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def take_columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, self.nrows, len(idx), tuple(tuple(row[j] for j in idx) for row in self.rows))

    def prefix_columns(self, k: int) -> "Matrix":
        return self.take_columns(range(k))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows, tuple(zip(*self.rows)) if self.rows else tuple(() for _ in range(self.ncols)))

    def reverse_rows(self) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols, tuple(reversed(self.rows)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.nrows != self.nrows or other.field != self.field:
            raise LinAlgError("hstack shape or field mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols, tuple(a + b for a, b in zip(self.rows, other.rows)))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows or self.field != other.field:
            raise LinAlgError("matmul shape or field mismatch")
        p = self.field.p
        bt = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if p:
            out = tuple(
                tuple(s % p for s in (sum(x * y for x, y in zip(row, col)) for col in bt))
                for row in self.rows
            )
        else:
            left = [_integer_vector(row) for row in self.rows]
            right = [_integer_vector(col) for col in bt]
            out = tuple(
                tuple(
                    s // d if s % d == 0 else Fraction(s, d)
                    for s, d in ((sum(x * y for x, y in zip(a, b)), da * db) for b, db in right)
                )
                for a, da in left
            )
        return Matrix(self.field, self.nrows, other.ncols, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def is_zero(self) -> bool:
        return not any(x for row in self.rows for x in row)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """The reduced row echelon form and its pivot columns, computed once."""
        # Cached in the instance dict directly: unlike
        # `functools.cached_property`, this takes no lock on first access.
        cached = self.__dict__.get("_echelon")
        if cached is not None:
            return cached
        f = self.field
        red, piv = rref_mod([list(row) for row in self.rows], f.p)
        cached = self.__dict__["_echelon"] = (
            Matrix(f, self.nrows, self.ncols, tuple(tuple(r) for r in red)),
            tuple(piv),
        )
        return cached

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns span the null space {x : self @ x = 0}; rank-nullity holds."""
        red, piv = self.rref()
        f = self.field
        pivset = set(piv)
        free = [j for j in range(self.ncols) if j not in pivset]
        cols = []
        for j in free:
            vec = [0] * self.ncols
            vec[j] = 1
            for k, pc in enumerate(piv):
                vec[pc] = -red.rows[k][j]  # `from_columns` reduces it
            cols.append(vec)
        return Matrix.from_columns(f, cols, nrows=self.ncols)

    def echelon_transform(self) -> tuple[tuple[int, ...], "Matrix"]:
        """One reduction of `[M | I]`: its pivot columns and its right block T.

        T is invertible and T @ M = rref(M). The pivots below `ncols` are
        those of M; a pivot q >= ncols says the standard vector e_{q - ncols}
        completes the span of M and the vectors before it.
        """
        n, m = self.nrows, self.ncols
        f = self.field
        work = []
        for i, row in enumerate(self.rows):
            unit = [0] * n
            unit[i] = 1
            work.append([*row, *unit])
        red, piv = rref_mod(work, f.p)
        return tuple(piv), Matrix(f, n, n, tuple(tuple(row[m:]) for row in red))

    def inverse(self) -> "Matrix":
        """The inverse: the T of `echelon_transform` when M is invertible."""
        n = self.nrows
        if n != self.ncols:
            raise LinAlgError("inverse of non-square matrix")
        piv, t = self.echelon_transform()
        if piv != tuple(range(n)):
            raise LinAlgError("matrix is singular")
        return t


def contained_in(small: Matrix, big: Matrix) -> bool:
    """True when every column of `small` lies in the column span of `big`:
    one reduction of `[big | small]` puts no pivot in `small`'s columns."""
    return all(q < big.ncols for q in big.hstack(small).rref()[1])


@dataclass(frozen=True)
class Flag:
    """A complete flag given by an ordered basis (invertible matrix).

    Step i is the span of the first i columns. Construction inverts the
    basis with one `[M | I]` reduction, which both checks invertibility
    (a singular or non-square basis raises `LinAlgError`) and stores the
    inverse; `inverse` takes no part in equality or hashing.
    """

    matrix: Matrix
    inverse: Matrix = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inverse", self.matrix.inverse())

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def step(self, i: int) -> Matrix:
        if not 0 <= i <= self.n:
            raise LinAlgError(f"flag step {i} outside [0, {self.n}]")
        return self.matrix.prefix_columns(i)


def random_unitriangular(field: Field, n: int, rng: Random) -> Matrix:
    """Uniform lower unitriangular matrix, drawn row by row below the diagonal;
    deterministic given the RNG state."""
    return Matrix(field, n, n, tuple(
        tuple(field.sample(rng) if j < i else 1 if j == i else 0 for j in range(n))
        for i in range(n)
    ))


def random_nonzero_combination(columns: Matrix, rng: Random) -> Matrix:
    """A random field combination of the columns, resampled while zero."""
    field = columns.field
    if columns.ncols == 0:
        raise LinAlgError("no columns to combine")
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        coeffs = Matrix.from_columns(field, [[field.sample(rng) for _ in range(columns.ncols)]])
        combo = columns @ coeffs
        if not combo.is_zero():
            return combo
    raise SamplingError("random combination stayed zero")
