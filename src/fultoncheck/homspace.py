"""The linear system cutting out constrained map spaces between flagged spaces.

For a problem with positions I^1..I^s (r-subsets of [1, n]), flags F^j on an
r-dimensional space V and G^j on an (n-r)-dimensional space Q, the space of
interest is

    {phi: V -> Q  such that  phi(F^j_a) subseteq G^j_{i^j_a - a}  for all j, a}.

Maps are stored as quot_dim x sub_dim matrices acting on column vectors in the
sub space's coordinates. Because i^j_a - a is weakly increasing in a, the
nested step conditions reduce to one condition per flag generator, giving
exactly sum_j codim(I^j) constraint rows; the dimension of the solution space
is therefore always at least the expected dimension of the problem.
`build_system` always audits what it solves: `audit_system` re-checks every
solution against the step containments by products alone, not through the
rows and with no row reduction, after certifying each quotient flag's stored
inverse by one product.

Every random flag is drawn in the open Bruhat cell: a uniform lower
unitriangular basis, which needs no singular retry. The product of these
cells is dense in the product of flag varieties, so generic values are
unchanged. `random_flag_tuples` builds `Flag`s from such bases for the
filtration, which also reads the quotient flags themselves. Generic
dimensions come from sampling and taking the minimum; the rows read only
each sub flag's basis F^j and each quotient flag's inverse (G^j)^-1, so
`generic_hom_dim` draws both directly in the cell, with no inversion (lower
unitriangular matrices form a group, so (G^j)^-1 is uniform in the cell
exactly when G^j is). A draw stays on plain rows: `constraint_rows` assembles
them as lists and the rank is the pivot count of one `rref_mod`, so sampling
builds no `Matrix`; only `build_system` wraps the rows, in the `HomSystem` it
keeps. Kernel dimension is upper-semicontinuous, so every sample is an upper
bound, attained generically: a sample's kernel dimension
over F_p is never below the generic dimension over C. That in turn is never
below max(0, expected_dim), since the system has exactly total-codim rows. A
sample that lands on this floor therefore proves the generic value (the
result is `certified`), and sampling stops there; only values above the floor
rest on `trials` agreeing samples. A sample below the floor can only come
from a broken solver and raises `GenericityError`.

In chart coordinates every constraint entry is the product of one entry of F^j
and one of (G^j)^-1, so it has degree at most 2, and a rank-rho minor degree
at most 2 rho. By Schwartz-Zippel (Schwartz, J. ACM 27, 1980), one sample
with entries uniform in a set of size p misses the rank the chart reaches
generically over the field with probability at most 2 rho / p (`miss_bound`;
over Q the sample set has 2^31 - 1 elements). `crosscheck` refuses a field
whose bound exceeds `MAX_MISS_BOUND` over its range, and `filtration` one
whose bound exceeds it at its problem's rho = r(n - r), a necessary condition
only: the filtration draws its flags in the same cell, but its kernel draws
have no proven bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from .field import DEFAULT_TRIALS, MAX_TOTAL_TRIALS, Field, SolverFault
from .linalg import Flag, Matrix, random_nonzero_combination, random_unitriangular
from .partitions import SchubertProblem
from .rowred import rref_mod

# The largest accepted chance that one chart sample misses the generic rank.
MAX_MISS_BOUND = Fraction(1, 10**6)


class HomAuditError(SolverFault):
    """A solved map failed direct re-verification of a step containment."""


class GenericityError(SolverFault):
    """The generic value is undecided: the sampled dimensions never
    stabilized, or a sample fell below the proven floor, which a correct
    solver cannot produce."""


@dataclass(frozen=True)
class HomSystem:
    """The assembled constraint system and its exact solution space."""

    problem: SchubertProblem
    sub_flags: tuple[Flag, ...]
    quot_flags: tuple[Flag, ...]
    matrix: Matrix  # constraint rows over vec(phi), index u * sub_dim + v
    kernel: Matrix  # columns are vec'd basis solutions

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def dim(self) -> int:
        return self.kernel.ncols

    @property
    def sub_dim(self) -> int:
        return self.problem.r

    @property
    def quot_dim(self) -> int:
        return self.problem.n - self.problem.r

    def solutions(self) -> list[Matrix]:
        """The kernel basis vectors, each reshaped to a quot_dim x sub_dim map."""
        return [
            unvec(self.kernel.column(k), self.quot_dim, self.sub_dim, self.field)
            for k in range(self.dim)
        ]


def unvec(entries, quot_dim: int, sub_dim: int, field: Field) -> Matrix:
    entries = list(entries)
    if len(entries) != quot_dim * sub_dim:
        raise ValueError("vectorized map has the wrong length")
    rows = tuple(
        tuple(entries[u * sub_dim + v] for v in range(sub_dim)) for u in range(quot_dim)
    )
    return Matrix(field, quot_dim, sub_dim, rows)


def build_system(
    problem: SchubertProblem,
    sub_flags: tuple[Flag, ...],
    quot_flags: tuple[Flag, ...],
) -> HomSystem:
    """Assemble and solve the constraint system at the given flags, then
    re-verify every solution with `audit_system`."""
    r = problem.r
    m = problem.n - problem.r
    s = problem.s
    if len(sub_flags) != s or len(quot_flags) != s:
        raise ValueError("flag tuple length does not match the number of conditions")
    field = sub_flags[0].matrix.field
    for f in sub_flags:
        if f.n != r or f.matrix.field != field:
            raise ValueError("sub flag has wrong dimension or field")
    for g in quot_flags:
        if g.n != m or g.matrix.field != field:
            raise ValueError("quotient flag has wrong dimension or field")

    rows = constraint_rows(
        problem,
        tuple(f.matrix.rows for f in sub_flags),
        tuple(g.inverse.rows for g in quot_flags),
        field.p,
    )
    matrix = Matrix(field, len(rows), m * r, tuple(map(tuple, rows)))
    system = HomSystem(problem, sub_flags, quot_flags, matrix, matrix.kernel_basis())
    audit_system(system)
    return system


def constraint_rows(
    problem: SchubertProblem, sub_rows: tuple, quot_inv_rows: tuple, p: int
) -> list[list]:
    """The constraint rows over F_p (over Q when p = 0) for the rows of sub flag
    bases F^j and of quotient flag inverses (G^j)^-1, as fresh lists.

    One row per (condition j, flag generator a, missing quotient coordinate t):
    the a-th flag vector f^j_a must map into the span of the first i^j_a - a
    quotient flag vectors, i.e. its coordinates t >= i^j_a - a in the G^j basis
    vanish. Rows are emitted in (j, a, t) order for determinism.
    """
    r, m = problem.r, problem.n - problem.r
    rows: list[list] = []
    for j in range(problem.s):
        i_set = problem.index_sets[j].elements
        d_inv, f_mat = quot_inv_rows[j], sub_rows[j]
        for a in range(1, r + 1):
            level = i_set[a - 1] - a  # allowed quotient step for this generator
            f_col = [f_mat[v][a - 1] for v in range(r)]
            for t in range(level, m):
                # Row t of D^-1 (x) f_a: entry u * r + v is D^-1[t][u] * f_a[v].
                if p:
                    rows.append([du * fv % p for du in d_inv[t] for fv in f_col])
                else:
                    rows.append([du * fv for du in d_inv[t] for fv in f_col])
    return rows


def audit_system(system: HomSystem) -> None:
    """Re-verify every solved map against every step containment directly.

    This route never looks at the constraint rows and makes no row
    reduction, so it checks the row construction and the solver
    independently. Each quotient flag's stored inverse is first certified by
    one product (G @ G^-1 = I); then phi maps the first a vectors of F^j
    into G^j_level exactly when rows level.. of the first a columns of
    (G^j)^-1 phi F^j vanish.
    """
    problem = system.problem
    r, m = system.sub_dim, system.quot_dim
    quot_invs = []
    for j, g in enumerate(system.quot_flags):
        g_inv = g._certified_inverse()
        if g_inv is None:
            raise HomAuditError(
                f"stored inverse of quotient flag j={j + 1} is not its inverse "
                f"for problem {problem.text()}"
            )
        quot_invs.append(g_inv)
    for phi in system.solutions():
        for j in range(problem.s):
            i_set = problem.index_sets[j].elements
            coords = quot_invs[j] @ phi @ system.sub_flags[j].matrix
            for a in range(1, r + 1):
                level = min(i_set[a - 1] - a, m)
                if any(x for row in coords.rows[level:] for x in row[:a]):
                    raise HomAuditError(
                        f"solved map violates condition j={j + 1}, a={a} "
                        f"for problem {problem.text()}"
                    )


def sample_generic(system: HomSystem, rng: Random) -> Matrix:
    """A random nonzero element of the solution space, as a map matrix."""
    if system.dim == 0:
        raise ValueError("the solution space is zero; nothing to sample")
    combo = random_nonzero_combination(system.kernel, rng)
    return unvec(
        (combo.rows[i][0] for i in range(combo.nrows)),
        system.quot_dim,
        system.sub_dim,
        system.field,
    )


@dataclass(frozen=True)
class GenericDimResult:
    dim: int
    agreed: bool  # True when no sample disagreed: the first one was certified,
    # or the first `trials` coincided
    samples: tuple[int, ...]
    certified: bool = False  # True when a sample hit the proven floor


def stabilized_min(
    draw: Callable[[], int],
    trials: int,
    context: str,
    floor: int | None = None,
) -> GenericDimResult:
    """Sample integer dimensions until the generic (minimal) value is settled.

    With a `floor` (a proven lower bound on the generic value), a sample
    equal to it settles the value at once: the result is `certified` and no
    further draw is made. A sample below the floor is impossible for a
    correct solver, so it raises `GenericityError` naming the instance.

    Otherwise the value is accepted when the most recent `trials` samples all
    equal the running minimum. The first `trials` samples agreeing is the
    normal case; any disagreement triggers fresh samples, up to
    `MAX_TOTAL_TRIALS` in all, after which a hard error names the instance
    rather than letting an unstable value through.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    samples: list[int] = []
    for _ in range(MAX_TOTAL_TRIALS):
        sample = draw()
        samples.append(sample)
        if floor is not None and sample <= floor:
            if sample < floor:
                raise GenericityError(
                    f"dimension sample {sample} is below the proven floor {floor} "
                    f"for {context}: {samples}"
                )
            return GenericDimResult(
                dim=sample,
                agreed=len(samples) == 1,
                samples=tuple(samples),
                certified=True,
            )
        if len(samples) >= trials:
            tail = samples[-trials:]
            if all(x == tail[0] for x in tail) and tail[0] == min(samples):
                return GenericDimResult(
                    dim=tail[0],
                    agreed=len(samples) == trials,
                    samples=tuple(samples),
                )
    raise GenericityError(f"dimension samples never stabilized for {context}: {samples}")


def random_flag_tuples(
    problem: SchubertProblem, rng: Random, field: Field
) -> tuple[tuple[Flag, ...], tuple[Flag, ...]]:
    """Independent flag tuples on the sub and quotient model spaces, drawn in
    the open Bruhat cell: every sub flag, then every quotient flag."""
    r = problem.r
    m = problem.n - problem.r
    subs = tuple(Flag(Matrix(field, r, r, random_unitriangular(field, r, rng)))
                 for _ in range(problem.s))
    quots = tuple(Flag(Matrix(field, m, m, random_unitriangular(field, m, rng)))
                  for _ in range(problem.s))
    return subs, quots


def miss_bound(rho: int, field: Field) -> Fraction:
    """Schwartz-Zippel bound 2 rho / p on one chart sample missing a generic
    rank rho, p being the number of values a field sample draws from."""
    return Fraction(2 * rho, field.sample_size)


def generic_hom_dim(
    problem: SchubertProblem,
    rng: Random,
    field: Field,
    trials: int = DEFAULT_TRIALS,
) -> GenericDimResult:
    """Dimension of the constrained map space at generic flags.

    Each sample draws every sub flag basis and every quotient flag inverse as
    a fresh uniform lower unitriangular matrix and takes the exact rank of the
    constraint rows, read off the pivots of one `rref_mod`, with no `Matrix`.
    The floor is max(0, expected_dim): a sample there is the generic value,
    certified, and ends the sampling; otherwise the generic value is the
    stabilized minimum across samples.
    """

    r, m = problem.r, problem.n - problem.r
    p = field.p

    def draw() -> int:
        subs = tuple(random_unitriangular(field, r, rng) for _ in range(problem.s))
        quot_invs = tuple(random_unitriangular(field, m, rng) for _ in range(problem.s))
        return r * m - len(rref_mod(constraint_rows(problem, subs, quot_invs, p), p)[1])

    return stabilized_min(
        draw,
        trials,
        context=f"problem {problem.text()}",
        floor=max(0, problem.expected_dim()),
    )
