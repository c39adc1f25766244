"""Constrained map spaces between generic flags."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import contained_in, prefix_columns, uniform_flag, uniform_flag_tuples
from fultoncheck.cohomology import intersection_number
from fultoncheck.field import field_from_name
from fultoncheck.homspace import (
    GenericDimResult,
    GenericityError,
    MAX_MISS_BOUND,
    HomAuditError,
    audit_system,
    build_system,
    constraint_rows,
    generic_hom_dim,
    miss_bound,
    random_flag_tuples,
    sample_generic,
    stabilized_min,
    unvec,
)
from fultoncheck.linalg import Flag, Matrix, random_unitriangular
from fultoncheck.partitions import SchubertProblem
from fultoncheck.sweeps import enumerate_problems, rng_for

PF = field_from_name("prime")
QQ = field_from_name("rational")


def _system_for(text: str, seed: int):
    problem = SchubertProblem.parse(text)
    rng = random.Random(seed)
    sub_flags, quot_flags = random_flag_tuples(problem, rng, PF)
    return build_system(problem, sub_flags, quot_flags)


# ---------------------------------------------------------------------------
# Fixed-dimension fixtures at generic flags
# ---------------------------------------------------------------------------


def test_open_cell_condition_leaves_every_map():
    sys = _system_for("3,4@4", seed=1)
    assert sys.dim == 4  # r * (n - r) unconstrained
    assert sys.matrix.nrows == 0 or sys.matrix.rank() == 0


def test_point_count_two_forces_no_maps():
    sys = _system_for("2,4@4;2,4@4;2,4@4;2,4@4", seed=1)
    assert sys.dim == 0


def test_zero_intersection_number_leaves_one_map():
    sys = _system_for("1,4@4;2,3@4", seed=1)
    assert sys.dim == 1
    assert sys.matrix.nrows == 4
    assert sys.matrix.rank() == 3


def test_system_row_count_is_total_codim():
    for text in ["1,4@4;2,3@4", "2,4@4;2,4@4", "1,3,5@6;2,4,6@6"]:
        sys = _system_for(text, seed=3)
        assert sys.matrix.nrows == sys.problem.total_codim()
        assert sys.matrix.ncols == sys.sub_dim * sys.quot_dim


def test_solutions_satisfy_all_containments():
    sys = _system_for("1,4@4;2,3@4", seed=5)
    audit_system(sys)  # re-check of every solution by products alone
    for phi in sys.solutions():
        for j in range(sys.problem.s):
            f = sys.sub_flags[j].matrix
            g = sys.quot_flags[j].matrix
            for a in range(1, sys.problem.r + 1):
                level = min(sys.problem.index_sets[j].elements[a - 1] - a, sys.quot_dim)
                image = phi @ prefix_columns(f, a)
                assert contained_in(image, prefix_columns(g, level))


def test_unvec_layout_round_trip():
    entries = [PF.reduce(k) for k in range(6)]
    m = unvec(iter(entries), 2, 3, PF)
    assert m.nrows == 2 and m.ncols == 3
    assert m.rows[0] == (0, 1, 2)
    assert m.rows[1] == (3, 4, 5)


def test_sample_generic_produces_solution():
    sys = _system_for("1,4@4;2,3@4", seed=9)
    phi = sample_generic(sys, random.Random(4))
    assert not phi.is_zero()
    assert (phi.nrows, phi.ncols) == (sys.quot_dim, sys.sub_dim)


def test_sample_generic_rejects_zero_space():
    sys = _system_for("2,4@4;2,4@4;2,4@4;2,4@4", seed=9)
    with pytest.raises(ValueError):
        sample_generic(sys, random.Random(4))


# ---------------------------------------------------------------------------
# Generic-dimension estimation
# ---------------------------------------------------------------------------


def test_generic_dims_are_flag_order_invariant():
    base = SchubertProblem.parse("1,4@4;2,3@4")
    dims = set()
    for perm in itertools.permutations(base.index_sets):
        prob = SchubertProblem(base.n, base.r, perm)
        res = generic_hom_dim(prob, random.Random(11), PF)
        dims.add(res.dim)
    assert dims == {1}


def test_special_flags_never_drop_below_generic():
    """Dimension is minimized at generic flags: sampled values always >=."""
    problem = SchubertProblem.parse("1,4@4;2,3@4")
    generic = generic_hom_dim(problem, random.Random(2), PF).dim
    rng = random.Random(3)
    for _ in range(50):
        sub_flags, quot_flags = random_flag_tuples(problem, rng, PF)
        sys = build_system(problem, sub_flags, quot_flags)
        assert sys.dim >= generic


def test_repeated_flag_specialization_increases_dimension():
    # Using one flag pair for both conditions collapses two independent
    # constraints into one, strictly enlarging the solution space here.
    problem = SchubertProblem.parse("2,4@4;2,4@4")
    rng = random.Random(8)
    sub = uniform_flag(PF, 2, rng)
    quot = uniform_flag(PF, 2, rng)
    sys = build_system(problem, (sub, sub), (quot, quot))
    generic = generic_hom_dim(problem, random.Random(2), PF).dim
    assert generic == 2
    assert sys.dim == 3


def test_generic_hom_dim_reports_samples():
    # Generic dimension 2 equals expected_dim, the floor: one sample proves it.
    res = generic_hom_dim(SchubertProblem.parse("2,4@4;2,4@4"), random.Random(1), PF)
    assert res.dim == 2
    assert res.agreed
    assert res.samples == (2,)
    assert res.certified


def test_generic_hom_dim_above_the_floor_needs_agreeing_samples():
    problem = SchubertProblem.parse("1,4@4;2,3@4")
    assert max(0, problem.expected_dim()) == 0
    res = generic_hom_dim(problem, random.Random(1), PF, trials=3)
    assert res.dim == 1
    assert res.samples == (1, 1, 1)
    assert not res.certified


def test_positive_problems_are_certified_by_one_sample():
    positive = [p for p in enumerate_problems(2, 5, 3) if intersection_number(p) > 0]
    assert positive
    for problem in positive:
        res = generic_hom_dim(problem, rng_for(101, f"hom:{problem.text()}"), PF)
        assert res.samples == (0,), problem.text()
        assert res.certified and res.dim == 0


# ---------------------------------------------------------------------------
# Chart draws: lower unitriangular sub bases and quotient inverses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [PF, QQ], ids=["prime", "rational"])
def test_random_unitriangular_is_unit_lower_triangular_and_deterministic(field):
    rng = random.Random(4)
    rng.random()  # any state will do; the draw depends on it alone
    state = rng.getstate()
    n = 5
    m = random_unitriangular(field, n, rng)
    after = rng.getstate()
    for i in range(n):
        assert m[i][i] == 1
        assert all(m[i][j] == 0 for j in range(i + 1, n))
    rng.setstate(state)
    assert random_unitriangular(field, n, rng) == m
    assert rng.getstate() == after
    # Exactly n(n-1)/2 entries are drawn, in row order below the diagonal.
    rng.setstate(state)
    below = [field.sample(rng) for _ in range(n * (n - 1) // 2)]
    assert rng.getstate() == after
    assert below == [m[i][j] for i in range(n) for j in range(i)]


@pytest.mark.parametrize("field", [PF, QQ], ids=["prime", "rational"])
def test_build_system_rows_equal_the_chart_rows(field):
    """Full flags (L, D) give the same constraint rows as the chart (L, D^-1)."""
    problem = SchubertProblem.parse("2,4@5;2,4@5;1,3@5;2,5@5")
    r, m = problem.r, problem.n - problem.r
    rng = random.Random(6)
    subs = tuple(random_unitriangular(field, r, rng) for _ in range(problem.s))
    quot_invs = tuple(random_unitriangular(field, m, rng) for _ in range(problem.s))
    system = build_system(
        problem,
        tuple(Flag(Matrix(field, r, r, rows)) for rows in subs),
        tuple(Flag(Matrix(field, m, m, rows).inverse()) for rows in quot_invs),
    )
    assert system.matrix.rows == tuple(map(tuple, constraint_rows(problem, subs, quot_invs, field.p)))
    assert system.matrix.nrows == problem.total_codim()


def test_generic_hom_dim_builds_no_flag_and_inverts_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic_hom_dim must draw in the chart")

    monkeypatch.setattr(Flag, "__post_init__", refuse)
    for name in ("inverse", "echelon_transform", "kernel_basis"):
        monkeypatch.setattr(Matrix, name, refuse)
    for text, want in [("1,4@4;2,3@4", 1), ("2,4@4;2,4@4", 2), ("2,4@4;2,4@4;2,4@4;2,4@4", 0)]:
        assert generic_hom_dim(SchubertProblem.parse(text), random.Random(3), PF).dim == want


@pytest.mark.parametrize("field", [PF, QQ], ids=["prime", "rational"])
def test_generic_hom_dim_and_rank_build_no_matrix(field, monkeypatch):
    """A draw reduces plain rows, and `rank` caches `rref_mod`'s own lists,
    so neither constructs a `Matrix`; each construction runs `__post_init__`."""
    fresh = Matrix.from_rows(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    built = []
    post_init = Matrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counted)
    for text, want in [("1,4@4;2,3@4", 1), ("2,4@4;2,4@4", 2), ("2,4@4;2,4@4;2,4@4;2,4@4", 0)]:
        assert generic_hom_dim(SchubertProblem.parse(text), random.Random(3), field).dim == want
    assert fresh.rank() == 2
    assert built == []


@pytest.mark.parametrize("field", [PF, QQ], ids=["prime", "rational"])
def test_sample_generic_builds_only_the_map(field, monkeypatch):
    """A kernel draw combines the basis on plain rows: the map is its one
    `Matrix`, equal entry for entry, types included, to the product route.
    Over Q a basis of `Fraction`s, integral ones included, gives ints where
    the product does."""
    problem = SchubertProblem.parse("2,4@4;2,4@4")
    system = build_system(problem, *random_flag_tuples(problem, random.Random(2), field))
    assert system.dim == 2
    systems = [system]
    if not field.p:
        as_fractions = [[Fraction(x) for x in row] for row in system.kernel.rows]
        systems.append(dataclasses.replace(system, kernel=Matrix.from_rows(field, as_fractions)))
    built = []
    post_init = Matrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    for sys in systems:
        rng = random.Random(5)
        coeffs = Matrix.from_columns(field, [[field.sample(rng) for _ in range(2)]])
        product = sys.kernel @ coeffs
        want = unvec((row[0] for row in product.rows), sys.quot_dim, sys.sub_dim, field)
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "__post_init__", counted)
            phi = sample_generic(sys, random.Random(5))
        assert built == [phi]
        built.clear()
        assert phi == want
        assert [type(x) for row in phi.rows for x in row] == [
            type(x) for row in want.rows for x in row
        ]


def test_chart_dims_equal_dims_at_full_random_flags():
    """The chart is dense: its generic value is the one full flags give."""
    for problem in enumerate_problems(2, 5, 3):
        chart = generic_hom_dim(problem, rng_for(7, f"hom:{problem.text()}"), QQ).dim
        subs, quots = uniform_flag_tuples(problem, rng_for(8, problem.text()), QQ)
        assert build_system(problem, subs, quots).dim == chart, problem.text()


def test_miss_bound_is_two_rho_over_the_sample_set():
    assert miss_bound(6, field_from_name("prime:13")) == Fraction(12, 13)
    assert miss_bound(9, PF) == miss_bound(9, QQ) == Fraction(18, 2**31 - 1)
    assert miss_bound(6, field_from_name("prime:12000017")) <= MAX_MISS_BOUND
    assert miss_bound(6, field_from_name("prime:11999989")) > MAX_MISS_BOUND


def test_stabilized_min_accepts_late_stabilization():
    feed = iter([5, 3, 3, 3])
    res = stabilized_min(lambda: next(feed), trials=3, context="synthetic")
    assert res.dim == 3
    assert not res.agreed
    assert res.samples == (5, 3, 3, 3)
    assert not res.certified  # without a floor nothing is certified


def test_stabilized_min_agrees_immediately():
    feed = iter([2, 2, 2])
    res = stabilized_min(lambda: next(feed), trials=3, context="synthetic")
    assert res.dim == 2 and res.agreed and not res.certified


def test_stabilized_min_raises_when_never_stable():
    feed = iter(range(100, 0, -1))
    with pytest.raises(GenericityError):
        stabilized_min(lambda: next(feed), trials=3, context="synthetic")


def _counting(values):
    calls = []
    feed = iter(values)

    def draw():
        calls.append(None)
        return next(feed)

    return draw, calls


def test_stabilized_min_stops_at_the_floor():
    draw, calls = _counting([2, 2, 2])
    res = stabilized_min(draw, trials=3, context="synthetic", floor=2)
    assert len(calls) == 1
    assert res == GenericDimResult(dim=2, agreed=True, samples=(2,), certified=True)


def test_stabilized_min_reaches_the_floor_late():
    draw, calls = _counting([5, 4, 4, 1, 7])
    res = stabilized_min(draw, trials=3, context="synthetic", floor=1)
    assert len(calls) == 4
    assert res.dim == 1 and res.certified and not res.agreed
    assert res.samples == (5, 4, 4, 1)


def test_stabilized_min_above_the_floor_still_needs_trials():
    draw, calls = _counting([3, 3, 3, 0])
    res = stabilized_min(draw, trials=3, context="synthetic", floor=1)
    assert len(calls) == 3
    assert res == GenericDimResult(dim=3, agreed=True, samples=(3, 3, 3), certified=False)


def test_stabilized_min_below_the_floor_is_a_fault():
    draw, calls = _counting([3, 1, 2])
    with pytest.raises(GenericityError, match="below the proven floor 2 for synthetic"):
        stabilized_min(draw, trials=3, context="synthetic", floor=2)
    assert len(calls) == 2


def test_audit_catches_planted_violation():
    sys = _system_for("1,4@4;2,3@4", seed=5)
    # a kernel that pretends the all-ones map is a solution cannot pass
    from dataclasses import replace
    from fultoncheck.linalg import Matrix

    fake_kernel = Matrix.from_columns(PF, [[1] * sys.matrix.ncols])
    tampered = replace(sys, kernel=fake_kernel)
    with pytest.raises(HomAuditError):
        audit_system(tampered)
