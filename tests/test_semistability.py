"""Parabolic weights, slopes, violations, and the destabilization margin."""

import random
from fractions import Fraction

import pytest

from fultoncheck.cohomology import intersection_number, nonvanishing_positions
from fultoncheck.field import field_from_name
from fultoncheck.linalg import Flag, LinAlgError, Matrix, Subspace
from fultoncheck.partitions import IndexSet, SchubertProblem
from fultoncheck.positions import rappel_delta
from fultoncheck.semistability import (
    ParabolicSpace,
    ParabolicWeights,
    check_witness,
    clincher,
    find_violations,
    is_generically_semistable,
    slope,
    total_slope,
)
from fultoncheck.sweeps import enumerate_problems

QF = field_from_name("rational")


# ---------------------------------------------------------------------------
# Weight tables
# ---------------------------------------------------------------------------


def test_weights_from_problem():
    prob = SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")
    w = ParabolicWeights.from_problem(prob)
    assert w.rows == ((1, 0), (1, 0), (1, 0), (1, 0))
    prob2 = SchubertProblem.parse("1,4@4;2,3@4")
    w2 = ParabolicWeights.from_problem(prob2)
    assert w2.rows == ((2, 0), (1, 1))


def test_weights_validation_and_text():
    with pytest.raises(ValueError):
        ParabolicWeights(2, ((0, 1),))  # must be weakly decreasing
    w = ParabolicWeights(2, ((2, 0), (1, 1)))
    assert w.text() == "2,0\n1,1"
    assert ParabolicWeights.parse("2,0\n1,1") == w
    assert w.scale(3).rows == ((6, 0), (3, 3))


# ---------------------------------------------------------------------------
# Slopes and violations
# ---------------------------------------------------------------------------


def test_slope_fixture_four_conditions():
    prob = SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")
    w = ParabolicWeights.from_problem(prob)
    positions = (IndexSet(2, (1,)), IndexSet(2, (2,)), IndexSet(2, (2,)), IndexSet(2, (2,)))
    assert slope(positions, w) == Fraction(1)
    assert total_slope(w) == Fraction(2)


def test_solvable_problem_weights_are_semistable():
    prob = SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")
    w = ParabolicWeights.from_problem(prob)
    assert intersection_number(prob) == 2
    assert find_violations(w) == []
    assert is_generically_semistable(w)


def test_unsolvable_problem_weights_are_destabilized():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    w = ParabolicWeights.from_problem(prob)
    assert intersection_number(prob) == 0
    violations = find_violations(w)
    assert violations
    v = violations[0]
    assert v.d == 1
    assert v.slope_sub > v.slope_total
    assert not is_generically_semistable(w)


def test_violations_only_range_over_realizable_positions():
    # For the destabilized instance, the bad pair ({1},{1}) has vanishing
    # class product, so it must never be reported as a violation.
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    w = ParabolicWeights.from_problem(prob)
    for v in find_violations(w):
        k_texts = tuple(k.text() for k in v.positions)
        assert k_texts != ("1@2", "1@2")


def test_semistability_is_scale_invariant():
    for text in ["2,4@4;2,4@4;2,4@4;2,4@4", "1,4@4;2,3@4", "2,3@4;2,3@4"]:
        w = ParabolicWeights.from_problem(SchubertProblem.parse(text))
        base = is_generically_semistable(w)
        for factor in (1, 2, 3):
            assert is_generically_semistable(w.scale(factor)) == base


def test_extreme_weight_is_destabilized():
    # all weight on the first index of one condition, none elsewhere
    w = ParabolicWeights(2, ((2, 0), (0, 0), (0, 0), (0, 0)))
    assert not is_generically_semistable(w)


# ---------------------------------------------------------------------------
# Destabilization margin
# ---------------------------------------------------------------------------


def test_clincher_fixtures():
    four = SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")
    k_four = (IndexSet(2, (1,)), IndexSet(2, (2,)), IndexSet(2, (2,)), IndexSet(2, (2,)))
    assert clincher(four, k_four) == -1
    two = SchubertProblem.parse("1,4@4;2,3@4")
    k_two = (IndexSet(2, (1,)), IndexSet(2, (2,)))
    assert clincher(two, k_two) == 1


def test_clincher_validates_shapes():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    with pytest.raises(ValueError):
        clincher(prob, (IndexSet(2, (1,)),))
    with pytest.raises(ValueError):
        clincher(prob, (IndexSet(3, (1,)), IndexSet(3, (1,))))
    with pytest.raises(ValueError):
        clincher(prob, (IndexSet(2, (1,)), IndexSet(2, (1, 2))))


def test_clincher_equals_chain_ledger_everywhere():
    """Cross-module identity: the margin equals the dimension-ledger delta."""
    checked = 0
    for prob in enumerate_problems(3, 5, 3):
        for d in range(1, prob.r):
            for positions in nonvanishing_positions(d, prob.r, prob.s):
                assert clincher(prob, positions) == rappel_delta(prob.index_sets, positions)
                checked += 1
    assert checked > 100


def test_clincher_sign_matches_slope_comparison():
    """For a problem's own weight table, margin <= 0 iff slope <= total."""
    for text in ["2,4@4;2,4@4;2,4@4;2,4@4", "1,4@4;2,3@4", "2,3@4;2,3@4", "1,3@4;2,4@4;2,4@4"]:
        prob = SchubertProblem.parse(text)
        w = ParabolicWeights.from_problem(prob)
        mu_total = total_slope(w)
        for d in range(1, prob.r):
            for positions in nonvanishing_positions(d, prob.r, prob.s):
                margin = clincher(prob, positions)
                mu = slope(positions, w)
                assert (margin <= 0) == (mu <= mu_total), (text, positions)


# ---------------------------------------------------------------------------
# Explicit witnesses
# ---------------------------------------------------------------------------


def _weighted_plane():
    flags = (Flag.standard(QF, 2),)
    weights = ParabolicWeights(2, ((2, 0),))
    space = Subspace(Matrix.identity(QF, 2))
    return ParabolicSpace(space, flags, weights)


def test_witness_on_heavy_line_destabilizes():
    pv = _weighted_plane()
    heavy = Subspace(Matrix.from_columns(QF, [[1, 0]]))
    rep = check_witness(pv, heavy)
    assert rep.positions[0].elements == (1,)
    assert rep.slope_sub == Fraction(2)
    assert rep.slope_total == Fraction(1)
    assert rep.destabilizing


def test_witness_on_light_line_is_fine():
    pv = _weighted_plane()
    light = Subspace(Matrix.from_columns(QF, [[0, 1]]))
    rep = check_witness(pv, light)
    assert rep.positions[0].elements == (2,)
    assert rep.slope_sub == Fraction(0)
    assert not rep.destabilizing


def test_witness_must_live_inside_the_space():
    flags = (Flag.standard(QF, 1),)
    weights = ParabolicWeights(1, ((1,),))
    line = Subspace(Matrix.from_columns(QF, [[1, 0]]))
    pv = ParabolicSpace(line, flags, weights)
    outside = Subspace(Matrix.from_columns(QF, [[0, 1]]))
    with pytest.raises(LinAlgError):
        check_witness(pv, outside)
    with pytest.raises(LinAlgError):
        check_witness(pv, Subspace.zero(QF, 2))
