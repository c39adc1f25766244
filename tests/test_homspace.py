"""Constrained map spaces between generic flags."""

import itertools
import random

import pytest

from fultoncheck.cohomology import intersection_number
from fultoncheck.field import field_from_name
from fultoncheck.homspace import (
    GenericDimResult,
    GenericityError,
    HomAuditError,
    audit_system,
    build_system,
    generic_hom_dim,
    random_flag_tuples,
    sample_generic,
    stabilized_min,
    unvec,
)
from fultoncheck.linalg import contained_in, random_flag
from fultoncheck.partitions import SchubertProblem
from fultoncheck.sweeps import enumerate_problems, rng_for

PF = field_from_name("prime")


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
    assert sys.matrix.nrows == 0 or sys.rank == 0


def test_point_count_two_forces_no_maps():
    sys = _system_for("2,4@4;2,4@4;2,4@4;2,4@4", seed=1)
    assert sys.dim == 0


def test_zero_intersection_number_leaves_one_map():
    sys = _system_for("1,4@4;2,3@4", seed=1)
    assert sys.dim == 1
    assert sys.matrix.nrows == 4
    assert sys.rank == 3


def test_system_row_count_is_total_codim():
    for text in ["1,4@4;2,3@4", "2,4@4;2,4@4", "1,3,5@6;2,4,6@6"]:
        sys = _system_for(text, seed=3)
        assert sys.matrix.nrows == sys.problem.total_codim()
        assert sys.matrix.ncols == sys.sub_dim * sys.quot_dim


def test_solutions_satisfy_all_containments():
    sys = _system_for("1,4@4;2,3@4", seed=5)
    audit_system(sys)  # independent rank-based re-check of every solution
    for phi in sys.solutions():
        for j in range(sys.problem.s):
            f = sys.sub_flags[j].matrix
            g = sys.quot_flags[j].matrix
            for a in range(1, sys.problem.r + 1):
                level = min(sys.problem.index_sets[j].elements[a - 1] - a, sys.quot_dim)
                image = phi @ f.prefix_columns(a)
                assert contained_in(image, g.prefix_columns(level))


def test_unvec_layout_round_trip():
    entries = [PF.from_int(k) for k in range(6)]
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
        sys = build_system(problem, sub_flags, quot_flags, audit=False)
        assert sys.dim >= generic


def test_repeated_flag_specialization_increases_dimension():
    # Using one flag pair for both conditions collapses two independent
    # constraints into one, strictly enlarging the solution space here.
    problem = SchubertProblem.parse("2,4@4;2,4@4")
    rng = random.Random(8)
    sub = random_flag(PF, 2, rng)
    quot = random_flag(PF, 2, rng)
    sys = build_system(problem, (sub, sub), (quot, quot), audit=False)
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
    tampered = replace(sys, kernel=fake_kernel, dim=1)
    with pytest.raises(HomAuditError):
        audit_system(tampered)
