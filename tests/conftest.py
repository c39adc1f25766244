"""Shared fixtures: collects acceptance-criterion result lines for the summary.

Also the uniform samplers that tests use as an independent route beside the
package's open-cell flags: a matrix with uniform entries, a flag whose basis
is a uniform invertible matrix (redrawn while singular), and a subspace
given by its basis, a uniform full-rank matrix.

And the rank route that the package's audits no longer take, kept as the
tests' oracle: flag steps as column prefixes, containment of column spans by
one reduction, and Schubert positions from ranks, with the column
stacking they reduce.

And the one-tuple reference routes that the table-driven `find_violations`
and `clinchers` are checked against: `slope`, from a weight table, and
`clincher`, from a problem's index sets.

And the full-rectangle Schubert product that `cohomology`'s one product
route, inside the dual of the largest condition, is checked against:
`schubert_class`, `class_product` and `problem_class`.
"""

from fractions import Fraction

import pytest

from fultoncheck.linalg import Flag, LinAlgError, Matrix
from fultoncheck.littlewood import lr_coefficient
from fultoncheck.partitions import IndexSet, Partition, partitions_with
from fultoncheck.rowred import rref_mod


def uniform_matrix(field, nrows, ncols, rng) -> Matrix:
    return Matrix(
        field,
        nrows,
        ncols,
        tuple(tuple(field.sample(rng) for _ in range(ncols)) for _ in range(nrows)),
    )


def uniform_flag(field, n, rng) -> Flag:
    """A flag anywhere in the flag variety, not only in the open cell."""
    while True:
        try:
            return Flag(uniform_matrix(field, n, n, rng))
        except LinAlgError:
            continue


def uniform_subspace(field, n, d, rng) -> Matrix:
    while True:
        basis = uniform_matrix(field, n, d, rng)
        if basis.rank() == d:
            return basis


def uniform_flag_tuples(problem, rng, field):
    """Uniform flag tuples in the draw order of `random_flag_tuples`."""
    m = problem.n - problem.r
    subs = tuple(uniform_flag(field, problem.r, rng) for _ in range(problem.s))
    quots = tuple(uniform_flag(field, m, rng) for _ in range(problem.s))
    return subs, quots


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if right.nrows != left.nrows or right.field != left.field:
        raise LinAlgError("hstack shape or field mismatch")
    rows = tuple(a + b for a, b in zip(left.rows, right.rows))
    return Matrix(left.field, left.nrows, left.ncols + right.ncols, rows)


def prefix_columns(mat: Matrix, k: int) -> Matrix:
    return mat.take_columns(range(k))


def flag_step(flag: Flag, i: int) -> Matrix:
    """Step i of the flag: the span of its first i basis columns."""
    if not 0 <= i <= flag.n:
        raise LinAlgError(f"flag step {i} outside [0, {flag.n}]")
    return prefix_columns(flag.matrix, i)


def rref_of(mat: Matrix) -> tuple[list[list], list[int]]:
    """`rref_mod` of a fresh copy of the matrix's rows: (reduced rows, pivots)."""
    return rref_mod([list(row) for row in mat.rows], mat.field.p)


def contained_in(small: Matrix, big: Matrix) -> bool:
    """True when every column of `small` lies in the column span of `big`:
    one reduction of `[big | small]` puts no pivot in `small`'s columns."""
    return all(q < big.ncols for q in rref_of(hstack(big, small))[1])


def rank_positions(basis: Matrix, flag: Flag) -> IndexSet:
    """Position of span(basis), of full rank d: jumps of d + u - rank[basis | E_u]."""
    d, n = basis.ncols, flag.n
    dims = [0, *(d + u - hstack(basis, flag_step(flag, u)).rank() for u in range(1, n)), d]
    return IndexSet(n, tuple(u for u in range(1, n + 1) if dims[u] > dims[u - 1]))


def slope(positions, weights) -> Fraction:
    """Exact slope of a subspace at the given positions: weight sum over dim."""
    if len(positions) != weights.s:
        raise ValueError("position tuple length differs from the weight table")
    d = positions[0].r
    if d < 1:
        raise ValueError("slope needs a nonzero subspace")
    total = 0
    for k, row in zip(positions, weights.rows):
        if k.n != weights.r or k.r != d:
            raise ValueError("position shape does not match the weight table")
        for a in k.elements:
            total += row[a - 1]
    return Fraction(total, d)


def clincher(problem, positions) -> int:
    """The destabilization margin sum_j sum_{a in K^j} (n-r+a-i^j_a) - d(n-r),
    read directly off the problem's index sets, with no weight table."""
    if len(positions) != problem.s:
        raise ValueError("position tuple length differs from the problem")
    n, r = problem.n, problem.r
    d = len(positions[0].elements)
    total = 0
    for ix, k in zip(problem.index_sets, positions):
        if k.n != r or len(k.elements) != d:
            raise ValueError("position shape does not match the problem")
        total += sum(n - r + a - ix.elements[a - 1] for a in k.elements)
    return total - d * (n - r)


def schubert_class(lam: Partition, r: int, n: int) -> dict[Partition, int]:
    if not lam.fits_in(r, n - r):
        raise ValueError(f"partition {lam.parts} outside the {r}x{n - r} rectangle")
    return {lam: 1}


def class_product(x, y, r: int, n: int) -> dict[Partition, int]:
    """The product of two classes on Gr(r, n): every shape inside the
    r x (n-r) rectangle."""
    out: dict[Partition, int] = {}
    for mu, cx in x.items():
        for nu, cy in y.items():
            for lam in partitions_with(mu.size + nu.size, r, n - r):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    out[lam] = out.get(lam, 0) + cx * cy * c
    return out


def problem_class(problem) -> dict[Partition, int]:
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


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture(scope="session")
def criterion_lines(request):
    """Append 'PASS criterion N: ...' lines here; printed at session end."""
    return request.config._criterion_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.line(line)
