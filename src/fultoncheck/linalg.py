"""Exact linear algebra over a prime field or the rationals.

Matrices are immutable; columns are the vectors. Entries are plain Python
numbers (see `field`), and of the field the arithmetic reads only p (0 for Q):
products reduce mod p > 0, and over Q they take integer dot products of rows
and columns scaled to integers, making a `Fraction` only for an entry that is
not an integer. Rank and kernel come from the one exact RREF
`rowred.rref_mod(rows, p)` (first-nonzero pivoting, no tolerances), whose own
row and pivot lists are cached per matrix; no reduced `Matrix` is built.
Every question that needs the row operations themselves (inverse, the
coefficients of a jump profile, a quotient map) reads them off one routine,
`Matrix.echelon_transform`, which reduces `[M | I]` once. Random flags are
drawn in the open Bruhat cell of the flag variety: uniform lower
unitriangular bases (`random_unitriangular`), which are always invertible and
so need no retry. The sampler returns plain rows; only a caller that keeps
the basis wraps it in a `Matrix`. Nothing here resamples: the one resampling
loop is `homspace.stabilized_min`.
A flag's stored inverse is certified by one product (`Flag._certified_inverse`),
so the audits that read it make no reduction.
Every draw is a deterministic function of the supplied RNG state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from dataclasses import field as dc_field
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Sequence

from .field import Field, SolverFault
from .rowred import _integer_vector, rref_mod


class LinAlgError(ValueError, SolverFault):
    """Ill-posed exact linear algebra input (shape mismatch, singularity)."""


class Matrix:
    """Immutable matrix; `rows` is a tuple of row tuples of field elements.

    A plain slotted class rather than a frozen dataclass, which pays for an
    `object.__setattr__` per field on every construction; nothing assigns to
    its fields after `__init__`. Equality, hashing and repr are a frozen
    dataclass's over the four fields. Validation stays in `__post_init__`,
    which `__init__` calls by name.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_echelon")

    def __init__(self, field: Field, nrows: int, ncols: int, rows: tuple[tuple[object, ...], ...]) -> None:
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise LinAlgError("negative matrix dimension")
        if len(self.rows) != self.nrows:
            raise LinAlgError("row count mismatch")
        for row in self.rows:
            if len(row) != self.ncols:
                raise LinAlgError("ragged matrix rows")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.nrows, self.ncols, self.rows) == (
            other.field, other.nrows, other.ncols, other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return (f"Matrix(field={self.field!r}, nrows={self.nrows!r}, "
                f"ncols={self.ncols!r}, rows={self.rows!r})")

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
    @lru_cache(maxsize=None)
    def identity(cls, field: Field, n: int) -> "Matrix":
        """The n x n identity: one shared instance per (field, n), since
        matrices are immutable."""
        return cls(field, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def take_columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, self.nrows, len(idx), tuple(tuple(row[j] for j in idx) for row in self.rows))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows or self.field != other.field:
            raise LinAlgError("matmul shape or field mismatch")
        p = self.field.p
        bt = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if p:
            out = tuple(
                tuple(sum(map(operator.mul, row, col)) % p for col in bt)
                for row in self.rows
            )
        else:
            left = [_integer_vector(row) for row in self.rows]
            right = [_integer_vector(col) for col in bt]
            out = tuple(
                tuple(
                    s // d if s % d == 0 else Fraction(s, d)
                    for s, d in ((sum(map(operator.mul, a, b)), da * db) for b, db in right)
                )
                for a, da in left
            )
        return Matrix(self.field, self.nrows, other.ncols, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def is_zero(self) -> bool:
        return not any(x for row in self.rows for x in row)

    def _rref(self) -> tuple[list[list], list[int]]:
        """`rref_mod`'s reduced rows and pivot columns, computed once."""
        try:
            return self._echelon
        except AttributeError:  # the slot is left unset until the first call
            pass
        cached = self._echelon = rref_mod([list(row) for row in self.rows], self.field.p)
        return cached

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns span the null space {x : self @ x = 0}; rank-nullity holds."""
        red, piv = self._rref()
        pivset = set(piv)
        free = [j for j in range(self.ncols) if j not in pivset]
        cols = []
        for j in free:
            vec = [0] * self.ncols
            vec[j] = 1
            for k, pc in enumerate(piv):
                vec[pc] = -red[k][j]  # `from_columns` reduces it
            cols.append(vec)
        return Matrix.from_columns(self.field, cols, nrows=self.ncols)

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


@dataclass(frozen=True)
class Flag:
    """A complete flag given by an ordered basis (invertible matrix).

    Step i is the span of the first i columns. Construction inverts the
    basis with one `[M | I]` reduction, which both checks invertibility
    (a singular or non-square basis raises `LinAlgError`) and stores the
    inverse; `inverse` takes no part in equality or hashing. The audits read
    the inverse only through `_certified_inverse`, which checks it by one
    product and no reduction.
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

    def _certified_inverse(self) -> Matrix | None:
        """The stored inverse if `matrix @ inverse` is the identity, else None.

        For square matrices one product is a certificate: M X = I gives
        X M = I. It is checked once per stored inverse and remembered outside
        the fields, so a later swap of `inverse` is checked afresh.
        """
        inverse = self.inverse
        if self.__dict__.get("_certified") is inverse:
            return inverse
        if self.matrix @ inverse != Matrix.identity(self.field, self.n):
            return None
        self.__dict__["_certified"] = inverse
        return inverse


def random_unitriangular(field: Field, n: int, rng: Random) -> tuple[tuple, ...]:
    """The rows of a uniform lower unitriangular matrix, drawn row by row below
    the diagonal; deterministic given the RNG state."""
    return tuple(
        tuple(field.sample(rng) if j < i else 1 if j == i else 0 for j in range(n))
        for i in range(n)
    )
