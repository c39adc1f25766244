"""A problem padded with codimension-0 conditions agrees with its core.

`crosscheck` and `semistable` solve each core once and let every padded copy
read its verdicts; these tests check, over the CI family (r <= 2, n <= 5,
s <= 3), that the padded problem and its core really have the same constraint
rows, the same class and the same filtration invariants, and over r <= 3,
n <= 6, s <= 4 the same semistability verdicts.
"""

import random

from conftest import clincher
from fultoncheck.cohomology import intersection_number, nonvanishing_positions, problem_class
from fultoncheck.field import field_from_name
from fultoncheck.filtration import run_filtration_random, verify_trace
from fultoncheck.homspace import constraint_rows
from fultoncheck.linalg import random_unitriangular
from fultoncheck.partitions import IndexSet, Partition, SchubertProblem
from fultoncheck.semistability import ParabolicWeights, find_violations
from fultoncheck.sweeps import enumerate_problems, rng_for

PF = field_from_name("prime")
PADDED = [problem for problem in enumerate_problems(2, 5, 3) if problem.core() != problem]


def test_core_drops_exactly_the_trivial_conditions():
    assert len(PADDED) == 31
    for problem in PADDED:
        core = problem.core()
        assert (core.n, core.r) == (problem.n, problem.r)
        assert core.index_sets == tuple(ix for ix in problem.index_sets if ix.codim())
        assert core.core() is core


def test_core_keeps_a_condition_of_an_all_trivial_problem():
    trivial = IndexSet(4, (3, 4))
    assert trivial.codim() == 0
    for s in (1, 3):
        problem = SchubertProblem(4, 2, (trivial,) * s)
        assert problem.core() is problem
        assert problem_class(problem) == {Partition(()): 1}


def test_padded_problem_has_its_cores_rows_and_class():
    rng = random.Random(7)
    for problem in PADDED:
        r, m = problem.r, problem.n - problem.r
        subs = tuple(random_unitriangular(PF, r, rng) for _ in range(problem.s))
        quot_invs = tuple(random_unitriangular(PF, m, rng) for _ in range(problem.s))
        kept = [j for j, ix in enumerate(problem.index_sets) if ix.codim()]
        core = problem.core()
        assert constraint_rows(problem, subs, quot_invs, PF.p) == constraint_rows(
            core, tuple(subs[j] for j in kept), tuple(quot_invs[j] for j in kept), PF.p
        )
        assert problem_class(problem) == problem_class(core)


def test_padded_and_core_filtrations_agree():
    """The filtration still runs on padded problems (the `filtration` command
    takes any problem) and gives its core's invariants."""
    with_maps = 0
    for problem in PADDED:
        traces = [
            run_filtration_random(p, rng_for(5, f"trace:{p.text()}"), PF, trials=3, seed=5)
            for p in (problem, problem.core())
        ]
        padded, core = ((t.hom_dim, t.correction, verify_trace(t).ok) for t in traces)
        assert padded == core, problem.text()
        assert padded[2] is True
        with_maps += padded[0] > 0
    assert with_maps > 0


def _semistability_verdict(problem):
    """(semistable, largest clincher or None, every clincher <= 0), checked
    on the problem itself."""
    values = [
        clincher(problem, positions)
        for d in range(1, problem.r)
        for positions in nonvanishing_positions(d, problem.r, problem.s)
    ]
    semistable = not find_violations(ParabolicWeights.from_problem(problem))
    return semistable, max(values, default=None), all(v <= 0 for v in values)


def test_padded_and_core_semistability_verdicts_agree():
    """A codimension-0 condition has a zero weight row, and its position slot
    can take the codimension-0 set, so the verdicts are the core's."""
    checked = 0
    for problem in enumerate_problems(3, 6, 4):
        core = problem.core()
        if core == problem or intersection_number(problem) <= 0:
            continue
        assert _semistability_verdict(problem) == _semistability_verdict(core), problem.text()
        checked += 1
    assert checked == 190
