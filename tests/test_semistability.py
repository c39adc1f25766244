"""Parabolic weights, slopes, violations, and the destabilization margin."""

import random
from fractions import Fraction
from itertools import product
from operator import le

import pytest

from conftest import clincher, slope
from fultoncheck.cohomology import (
    _position_indices,
    _top_degree_indices,
    _tuples_within,
    intersection_number,
    nonvanishing_positions,
    problem_class,
)
from fultoncheck.partitions import IndexSet, SchubertProblem, all_index_sets
from fultoncheck.positions import rappel_delta
from fultoncheck.semistability import (
    ParabolicWeights,
    SlopeViolation,
    clinchers,
    find_violations,
    total_slope,
)
from fultoncheck.sweeps import enumerate_problems


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


def test_weights_validation_and_scale():
    with pytest.raises(ValueError):
        ParabolicWeights(2, ((0, 1),))  # must be weakly decreasing
    with pytest.raises(ValueError):
        ParabolicWeights(2, ((1, 0, 0),))  # row length must be r
    with pytest.raises(ValueError):
        ParabolicWeights(2, ((Fraction(1, 2), 0),))  # weights are integers


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


def test_unsolvable_problem_weights_are_destabilized():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    w = ParabolicWeights.from_problem(prob)
    assert intersection_number(prob) == 0
    violations = find_violations(w)
    assert violations
    v = violations[0]
    assert v.d == 1
    assert v.slope_sub > v.slope_total


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
        base = not find_violations(w)
        for factor in (1, 2, 3):
            scaled = ParabolicWeights(w.r, tuple(tuple(factor * x for x in row) for row in w.rows))
            assert (not find_violations(scaled)) == base


def test_extreme_weight_is_destabilized():
    # all weight on the first index of one condition, none elsewhere
    w = ParabolicWeights(2, ((2, 0), (0, 0), (0, 0), (0, 0)))
    assert find_violations(w)
    assert find_violations(w) == _violations_by_fractions(w)


def _violations_by_fractions(weights):
    """The violations found one tuple at a time with `Fraction` slopes."""
    mu_total = total_slope(weights)
    return [
        SlopeViolation(d, positions, slope(positions, weights), mu_total)
        for d in range(1, weights.r)
        for positions in nonvanishing_positions(d, weights.r, weights.s)
        if slope(positions, weights) > mu_total
    ]


def test_violation_tables_equal_the_fraction_route():
    """Unsolvable problems are the only ones with violations, and the sweep
    never examines them, so they are compared here."""
    destabilized = 0
    for prob in enumerate_problems(4, 6, 3):
        w = ParabolicWeights.from_problem(prob)
        found = find_violations(w)
        assert found == _violations_by_fractions(w), prob.text()
        destabilized += bool(found)
    assert destabilized == 114


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


def test_margin_tables_equal_the_chain_ledger():
    checked = 0
    for prob in enumerate_problems(4, 6, 3):
        for d in range(1, prob.r):
            expected = [
                rappel_delta(prob.index_sets, positions)
                for positions in nonvanishing_positions(d, prob.r, prob.s)
            ]
            assert clinchers(prob, d) == expected, (prob.text(), d)
            checked += len(expected)
    assert checked > 1000


def test_clinchers_validate_the_dimension():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    with pytest.raises(ValueError):
        clinchers(prob, 0)
    with pytest.raises(ValueError):
        clinchers(prob, 3)


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
# Realizable positions
# ---------------------------------------------------------------------------


def test_positions_equal_the_product_filter():
    """The pruned search keeps exactly the tuples of `product` whose class
    product is nonzero, in the same order."""
    for r in range(2, 5):
        for d in range(1, r):
            sets = all_index_sets(r, d)
            for s in range(1, 5):
                expected = tuple(
                    tup
                    for tup in product(sets, repeat=s)
                    if problem_class(SchubertProblem(r, d, tup))
                )
                assert nonvanishing_positions(d, r, s) == expected, (d, r, s)


def test_tuples_within_the_cap_equal_the_product_filter():
    rng = random.Random(7)
    for _ in range(40):
        weights = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        size, cap = rng.randrange(1, 5), rng.randrange(6)
        expected = [
            tup
            for tup in product(range(len(weights)), repeat=size)
            if sum(weights[i] for i in tup) <= cap
        ]
        assert list(_tuples_within(weights, size, cap)) == expected, (weights, size, cap)


def test_codim_cache_leaves_identity_unchanged():
    cached, fresh = all_index_sets(5, 2), all_index_sets(5, 2)
    assert [k.codim() for k in cached] == [k.to_partition().size for k in fresh]
    for k, f in zip(cached, fresh):
        assert (k == f, hash(k), repr(k), k.text()) == (True, hash(f), repr(f), f.text())
    assert sorted(cached[::-1]) == fresh and sorted(fresh[::-1]) == cached


# ---------------------------------------------------------------------------
# Top-degree tuples decide each subspace dimension
# ---------------------------------------------------------------------------


def _dominated(tup, trie, below) -> bool:
    """Whether some tuple stored in `trie` (nested dicts of set indices) has,
    at every position j, a set in `below[tup[j]]`."""
    if not tup:
        return True
    return any(i in below[tup[0]] and _dominated(tup[1:], sub, below) for i, sub in trie.items())


def test_every_position_tuple_is_dominated_by_a_top_degree_tuple():
    """The lemma behind `find_violations`' shortcut, on the tables: for each
    nonvanishing K there is a top-degree L with L^j_a <= K^j_a everywhere."""
    tuples_checked = 0
    for r in range(1, 7):
        for s in range(1, 5):
            for d in range(1, r + 1):
                sets, tuples = _position_indices(d, r, s)
                top = _top_degree_indices(d, r, s)
                assert bool(top) == bool(tuples), (d, r, s)
                assert all(sum(sets[i].codim() for i in tup) == d * (r - d) for tup in top)
                assert set(top) <= set(tuples)
                below = [{i for i, low in enumerate(sets) if all(map(le, low.elements, k.elements))}
                         for k in sets]
                trie: dict = {}
                for tup in top:
                    node = trie
                    for i in tup:
                        node = node.setdefault(i, {})
                for tup in tuples:
                    assert _dominated(tup, trie, below), (d, r, s, tup)
                tuples_checked += len(tuples)
    assert tuples_checked == 12256


def test_violations_of_unsolvable_problems_equal_a_full_scan():
    """Destabilized weights take the shortcut's full-scan branch; the list
    must be the one a plain scan of every tuple finds, in its order."""
    unsolvable = destabilized = 0
    for prob in enumerate_problems(4, 7, 3):
        if prob.r == 1 or intersection_number(prob):
            continue
        w = ParabolicWeights.from_problem(prob)
        expected = _violations_by_fractions(w)
        assert find_violations(w) == expected, prob.text()
        unsolvable += 1
        destabilized += bool(expected)
    assert (unsolvable, destabilized) == (585, 585)
