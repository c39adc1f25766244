"""Shared fixtures: collects acceptance-criterion result lines for the summary.

Also the uniform samplers that tests use as an independent route beside the
package's open-cell flags: a matrix with uniform entries, a flag whose basis
is a uniform invertible matrix (redrawn while singular), and a subspace
given by its basis, a uniform full-rank matrix.

And the rank route that the package's audits no longer take, kept as the
tests' oracle: flag steps as column prefixes, containment of column spans by
one reduction, and Schubert positions from ranks, with the column
stacking they reduce.
"""

import pytest

from fultoncheck.linalg import Flag, LinAlgError, Matrix
from fultoncheck.partitions import IndexSet


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


def contained_in(small: Matrix, big: Matrix) -> bool:
    """True when every column of `small` lies in the column span of `big`:
    one reduction of `[big | small]` puts no pivot in `small`'s columns."""
    return all(q < big.ncols for q in hstack(big, small).rref()[1])


def rank_positions(basis: Matrix, flag: Flag) -> IndexSet:
    """Position of span(basis), of full rank d: jumps of d + u - rank[basis | E_u]."""
    d, n = basis.ncols, flag.n
    dims = [0, *(d + u - hstack(basis, flag_step(flag, u)).rank() for u in range(1, n)), d]
    return IndexSet(n, tuple(u for u in range(1, n + 1) if dims[u] > dims[u - 1]))


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
