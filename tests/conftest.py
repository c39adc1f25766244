"""Shared fixtures: collects acceptance-criterion result lines for the summary.

Also the uniform samplers that tests use as an independent route beside the
package's open-cell flags: a matrix with uniform entries, a flag whose basis
is a uniform invertible matrix (redrawn while singular), and a subspace
given by its basis, a uniform full-rank matrix.
"""

import pytest

from fultoncheck.linalg import Flag, LinAlgError, Matrix


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
