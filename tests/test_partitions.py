"""Partitions, index sets, and problem containers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fultoncheck.partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    _parts_contain,
    all_index_sets,
    partition_to_index,
    partitions_with,
)


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def test_partition_construction_and_views():
    p = Partition((3, 2, 2, 0))
    assert p.size == 7
    assert p.parts == (3, 2, 2)
    assert p == Partition((3, 2, 2)) and hash(p) == hash(Partition((3, 2, 2)))
    assert p.padded(6) == (3, 2, 2, 0, 0, 0)
    assert p.padded(3) == (3, 2, 2)
    with pytest.raises(ValueError):
        p.padded(2)
    assert p.scale(2).parts == (6, 4, 4)
    assert p.scale(0) == Partition(())
    q = Partition((2, 1))
    # The identity, kept because the benchmark's planted fault calls it: the
    # fault gate must see a wrong verdict, not a crash.
    assert q.trimmed() is q
    assert Partition((2, 1, 0)) == q
    assert Partition((0, 0)) == Partition(())


def test_parts_given_as_a_list_are_stored_as_a_tuple():
    p = Partition([2, 1, 0])
    assert p.parts == (2, 1)
    assert p == Partition((2, 1)) and hash(p) == hash(Partition((2, 1)))
    assert Partition([3]).parts == (3,)
    ix = IndexSet(4, [2, 4])
    assert ix.elements == (2, 4)
    assert ix == IndexSet(4, (2, 4)) and hash(ix) == hash(IndexSet(4, (2, 4)))


def test_partition_must_be_weakly_decreasing():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_bool_parts_and_indices_are_rejected():
    # bool is a subclass of int, but True is no part or index: it would
    # render as "True" in reports.
    for parts in [(True,), (2, True), (1, False), (1.0,)]:
        with pytest.raises(ValueError):
            Partition(parts)
    for elements in [(True,), (True, 2), (1.0, 2)]:
        with pytest.raises(ValueError):
            IndexSet(2, elements)


def test_partition_parse_text_round_trip():
    assert Partition.parse("3,2,1").parts == (3, 2, 1)
    assert Partition.parse("").parts == ()
    assert Partition.parse("0").parts == ()
    assert Partition.parse("3,2,1").text() == "3,2,1"
    assert Partition(()).text() == "0"
    assert Partition((2, 1, 0)).text() == "2,1"
    with pytest.raises(ValueError):
        Partition.parse("1,2")


def test_partition_containment_and_fit():
    big = Partition((3, 2))
    assert _parts_contain(big.parts, Partition((2, 2)).parts)
    assert not _parts_contain(big.parts, Partition((1, 1, 1)).parts)
    assert not _parts_contain(big.parts, Partition((4,)).parts)
    assert _parts_contain(big.parts, Partition((3, 2, 0, 0)).parts)
    assert _parts_contain(Partition((3, 2, 0)).parts, big.parts)
    assert _parts_contain(big.parts, Partition(()).parts)
    assert big.fits_in(2, 3)
    assert not big.fits_in(1, 3)
    assert not big.fits_in(2, 2)


def test_partitions_with_enumeration():
    assert [p.parts for p in partitions_with(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert [p.parts for p in partitions_with(0, 3)] == [()]
    assert [p.parts for p in partitions_with(3, 3, 2)] == [(2, 1), (1, 1, 1)]
    assert [p.parts for p in partitions_with(2, 0)] == []
    total = sum(1 for _ in partitions_with(8, 8))
    assert total == 22  # number of partitions of 8


# ---------------------------------------------------------------------------
# IndexSet and the position dictionary
# ---------------------------------------------------------------------------


def test_index_set_validation():
    IndexSet(4, (1, 3))
    IndexSet(4, ())
    with pytest.raises(ValueError):
        IndexSet(4, (3, 1))
    with pytest.raises(ValueError):
        IndexSet(4, (0, 1))
    with pytest.raises(ValueError):
        IndexSet(4, (2, 5))
    with pytest.raises(ValueError):
        IndexSet(4, (2, 2))


@pytest.mark.parametrize(
    "elements,shape",
    [((1, 3), (2, 1)), ((3, 4), (0, 0)), ((1, 4), (2, 0)), ((2, 3), (1, 1)),
     ((1, 2), (2, 2)), ((2, 4), (1, 0))],
)
def test_index_set_partition_dictionary_in_c4(elements, shape):
    ix = IndexSet(4, elements)
    assert ix.to_partition().padded(ix.r) == shape
    assert ix.to_partition() == Partition(shape)
    assert ix.codim() == sum(shape)


def test_index_set_complement_and_text():
    ix = IndexSet(4, (1, 3))
    assert ix.complement().elements == (2, 4)
    assert ix.text() == "1,3@4"
    assert IndexSet.parse("1,3@4") == ix
    assert IndexSet(4, ()).text() == "@4"
    assert IndexSet.parse("@4") == IndexSet(4, ())


def test_partition_to_index_round_trip_exhaustive():
    for n in range(1, 9):
        for r in range(0, n + 1):
            for ix in all_index_sets(n, r):
                lam = ix.to_partition()
                assert lam.padded(r) == tuple(n - r + a - i for a, i in enumerate(ix.elements, 1))
                assert lam.fits_in(r, n - r)
                assert partition_to_index(lam, n, r) == ix
                assert ix.codim() == lam.size


def test_all_index_sets_is_lex_sorted_and_complete():
    sets = all_index_sets(4, 2)
    assert len(sets) == 6
    assert [s.elements for s in sets] == sorted(s.elements for s in sets)
    assert partition_to_index(Partition((0, 0)), 4, 2).elements == (3, 4)


def test_partition_to_index_rejects_bad_fit():
    assert partition_to_index(Partition((3,)), 4, 1).elements == (1,)
    with pytest.raises(ValueError):
        partition_to_index(Partition((4,)), 4, 1)  # part wider than n - r
    with pytest.raises(ValueError):
        partition_to_index(Partition((1, 1, 1)), 4, 2)  # more rows than r


# ---------------------------------------------------------------------------
# SchubertProblem
# ---------------------------------------------------------------------------


def test_problem_round_trip_and_derived_quantities():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    assert prob.n == 4 and prob.r == 2 and prob.s == 2
    assert prob.text() == "1,4@4;2,3@4"
    assert [p.padded(prob.r) for p in prob.partitions()] == [(2, 0), (1, 1)]
    assert [p.parts for p in prob.partitions()] == [(2,), (1, 1)]
    assert prob.total_codim() == 4
    assert prob.expected_dim() == 0


def test_problem_with_negative_expected_dimension():
    prob = SchubertProblem.parse("1,4@4;1,4@4;1,4@4")
    assert prob.expected_dim() == -2


def test_problem_validation():
    with pytest.raises(ValueError):
        SchubertProblem(4, 2, ())
    with pytest.raises(ValueError):
        SchubertProblem(4, 2, (IndexSet(4, (1, 3)), IndexSet(5, (1, 3))))
    with pytest.raises(ValueError):
        SchubertProblem(4, 2, (IndexSet(4, (1,)),))


def test_problem_from_partitions():
    lams = [Partition((2,)), Partition((1, 1))]
    prob = SchubertProblem(4, 2, tuple(partition_to_index(lam, 4, 2) for lam in lams))
    assert prob.text() == "1,4@4;2,3@4"


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@st.composite
def index_sets(draw):
    n = draw(st.integers(1, 9))
    r = draw(st.integers(0, n))
    elements = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:r]))
    return IndexSet(n, elements)


@given(index_sets())
@settings(deadline=None)
def test_dictionary_shape_invariants(ix):
    lam = ix.to_partition()
    n, r = ix.n, ix.r
    assert lam.padded(r) == tuple(n - r + a - i for a, i in enumerate(ix.elements, 1))
    assert lam.fits_in(ix.r, ix.n - ix.r)
    assert lam.size == ix.codim()
    if ix.r:
        assert partition_to_index(lam, ix.n, ix.r) == ix


@given(index_sets())
@settings(deadline=None)
def test_complement_is_involutive(ix):
    assert ix.complement().complement() == ix
    assert ix.complement().r == ix.n - ix.r


def test_index_set_count_matches_binomials():
    for n in range(1, 8):
        for r in range(0, n + 1):
            count = len(all_index_sets(n, r))
            assert count == len(list(itertools.combinations(range(n), r)))
