"""Grassmannian cohomology: classes, products, intersection numbers."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fultoncheck.cohomology import (
    class_product,
    intersection_number,
    nonvanishing_positions,
    problem_class,
    schubert_class,
)
from fultoncheck.littlewood import lr_coefficient, lr_coefficient_pieri
from fultoncheck.partitions import Partition, SchubertProblem, partition_to_index, partitions_with
from fultoncheck.sweeps import enumerate_problems

P = Partition.parse


def _problem(lams, n: int, r: int) -> SchubertProblem:
    """The problem on Gr(r, n) whose conditions are the partitions `lams`."""
    return SchubertProblem(n, r, tuple(partition_to_index(lam, n, r) for lam in lams))


def test_unit_class_is_neutral():
    one = schubert_class(P("0"), 2, 4)
    x = schubert_class(P("2,1"), 2, 4)
    assert class_product(one, x, 2, 4) == x


def test_codim_two_product_in_c4():
    # In the 2-plane ring of C^4: (2) * (1,1) has no room left, product is 0
    # on the top cell but their squares each hit the point class once.
    a = schubert_class(P("2"), 2, 4)
    b = schubert_class(P("1,1"), 2, 4)
    assert class_product(a, b, 2, 4) == {}
    assert class_product(a, a, 2, 4) == {P("2,2"): 1}
    assert class_product(b, b, 2, 4) == {P("2,2"): 1}


def test_hyperplane_power_in_c4():
    h = schubert_class(P("1"), 2, 4)
    h2 = class_product(h, h, 2, 4)
    assert h2 == {P("2"): 1, P("1,1"): 1}
    h4 = class_product(h2, h2, 2, 4)
    assert h4 == {P("2,2"): 2}


def test_product_truncates_outside_the_box():
    # (2) * (2) in the 2-plane ring of C^4 leaves only the point class.
    a = schubert_class(P("2"), 2, 4)
    assert class_product(a, a, 2, 4) == {P("2,2"): 1}
    # in a bigger ambient space the same product keeps three terms
    b = schubert_class(P("2"), 2, 6)
    full = class_product(b, b, 2, 6)
    assert full == {P("4"): 1, P("3,1"): 1, P("2,2"): 1}


def test_class_product_is_commutative_and_associative():
    x = schubert_class(P("2"), 2, 6)
    y = schubert_class(P("1,1"), 2, 6)
    z = schubert_class(P("1"), 2, 6)
    assert class_product(x, y, 2, 6) == class_product(y, x, 2, 6)
    left = class_product(class_product(x, y, 2, 6), z, 2, 6)
    right = class_product(x, class_product(y, z, 2, 6), 2, 6)
    assert left == right


def test_products_agree_with_the_pieri_engine_up_to_c6():
    # class_product expands through the tableau engine; the Pieri engine
    # re-derives every product of two Schubert classes on Gr(r, n), n <= 6.
    pairs = 0
    for n in range(2, 7):
        for r in range(1, n):
            box = [lam for size in range(r * (n - r) + 1)
                   for lam in partitions_with(size, r, n - r)]
            for mu, nu in product(box, repeat=2):
                expected = {}
                for lam in partitions_with(mu.size + nu.size, r, n - r):
                    c = lr_coefficient_pieri(mu, nu, lam)
                    if c:
                        expected[lam] = c
                got = class_product(schubert_class(mu, r, n), schubert_class(nu, r, n), r, n)
                assert got == expected, (mu, nu, r, n)
                pairs += 1
    assert pairs == 1262


def test_intersection_numbers_in_c4():
    assert intersection_number(SchubertProblem.parse("1,4@4;2,3@4")) == 0
    assert intersection_number(SchubertProblem.parse("1,4@4;1,4@4")) == 1
    assert intersection_number(SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")) == 2
    assert intersection_number(SchubertProblem.parse("2,3@4;2,3@4")) == 1


def test_point_class_key_is_trimmed():
    # On Gr(2, 2) the point class is the empty partition, not (0, 0).
    assert intersection_number(SchubertProblem.parse("1,2@2")) == 1


@st.composite
def padded_triples(draw):
    """(r, n, mu, nu, lam) inside the r x (n-r) rectangle with |lam| = |mu| + |nu|."""
    r = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    shapes = [lam for size in range(r * cols + 1) for lam in partitions_with(size, r, cols)]
    mu = draw(st.sampled_from(shapes))
    nu = draw(st.sampled_from([x for x in shapes if x.size <= r * cols - mu.size]))
    lam = draw(st.sampled_from(list(partitions_with(mu.size + nu.size, r, cols))))
    return r, r + cols, mu, nu, lam


@given(padded_triples(), st.lists(st.integers(0, 3), min_size=3, max_size=3))
@settings(deadline=None, max_examples=80)
def test_trailing_zeros_change_no_answer(triple, zeros):
    r, n, *shapes = triple
    padded = [Partition(lam.parts + (0,) * k) for lam, k in zip(shapes, zeros)]
    for a, b in zip(shapes, padded):
        assert a == b and hash(a) == hash(b) and a.parts == b.parts
    mu, nu, lam = shapes
    pmu, pnu, plam = padded
    c = lr_coefficient(mu, nu, lam)
    assert lr_coefficient(pmu, pnu, plam) == c
    assert lr_coefficient_pieri(pmu, pnu, plam) == lr_coefficient_pieri(mu, nu, lam) == c
    product = class_product(schubert_class(mu, r, n), schubert_class(nu, r, n), r, n)
    padded_product = class_product(schubert_class(pmu, r, n), schubert_class(pnu, r, n), r, n)
    assert padded_product == product
    assert [k.parts for k in padded_product] == [k.parts for k in product]
    # sigma_mu * sigma_nu * sigma_{lam^vee} counts c^lam_{mu nu} points.
    def dual(x):
        return Partition(tuple(n - r - a for a in reversed(x.padded(r))))

    for lams in ([mu, nu, dual(lam)], [pmu, pnu, dual(plam)]):
        assert intersection_number(_problem(lams, n, r)) == c


def test_intersection_number_requires_expected_dimension_zero():
    with pytest.raises(ValueError):
        intersection_number(SchubertProblem.parse("1,4@4"))


def test_problem_class_multiplies_all_conditions():
    prob = SchubertProblem.parse("2,4@4;2,4@4")
    assert problem_class(prob) == {P("2"): 1, P("1,1"): 1}


def test_problem_class_of_one_condition_is_its_schubert_class():
    for text in ["1,4@4", "2,3@4", "3,4@4", "1,2@4", "1,3,5@6"]:
        prob = SchubertProblem.parse(text)
        (lam,) = prob.partitions()
        assert problem_class(prob) == schubert_class(lam, prob.r, prob.n)


def test_partition_outside_the_rectangle_is_refused():
    with pytest.raises(ValueError):
        schubert_class(P("3"), 2, 4)
    with pytest.raises(ValueError):
        schubert_class(P("1,1,1"), 2, 4)
    with pytest.raises(ValueError):
        _problem([P("3"), P("1")], 4, 2)


def test_invariant_dimensions_small_cases():
    # SL(r) invariants of a tensor product of irreducibles with total weight
    # r * m are counted by the intersection number on Gr(r, r + m).
    cases = [
        (["1", "1"], 2, 1),
        (["2", "1", "1"], 2, 1),
        (["1"] * 4, 2, 2),
        (["2,1"] * 3, 3, 2),
    ]
    for lams, r, expected in cases:
        parts = [P(text) for text in lams]
        n = r + sum(lam.size for lam in parts) // r
        problem = _problem(parts, n, r)
        assert intersection_number(problem) == expected


def test_nonvanishing_positions_excludes_zero_products():
    got = [tuple(k.text() for k in t) for t in nonvanishing_positions(1, 2, 2)]
    assert got == [("1@2", "2@2"), ("2@2", "1@2"), ("2@2", "2@2")]


def test_nonvanishing_positions_full_dimension_is_everything():
    # d = r: the only index set is [1..r] and the product is the unit class.
    got = list(nonvanishing_positions(2, 2, 3))
    assert len(got) == 1
    assert all(k.elements == (1, 2) for k in got[0])


def test_nonvanishing_positions_caps_total_codimension():
    # A product of total codimension above dim Gr(d, r) = d(r - d) vanishes.
    for d, r, s in [(1, 2, 2), (1, 3, 3), (2, 4, 3)]:
        got = nonvanishing_positions(d, r, s)
        assert got
        assert all(sum(k.codim() for k in t) <= d * (r - d) for t in got)


def test_intersection_numbers_inside_the_dual_equal_the_full_product():
    """Every core of r <= 4, n <= 7, s <= 4, as enumerated and reversed: the
    number read inside the dual of the largest condition is the point
    coefficient of the whole product.  The enumeration orders conditions by
    index set, not by size, so the largest condition is often not last."""
    cores = {prob.core() for prob in enumerate_problems(4, 7, 4)}
    largest_not_last = 0
    for core in cores:
        point = Partition((core.n - core.r,) * core.r)
        expected = problem_class(core).get(point, 0)
        flipped = SchubertProblem(core.n, core.r, core.index_sets[::-1])
        assert intersection_number(core) == intersection_number(flipped) == expected, core.text()
        sizes = [ix.codim() for ix in core.index_sets]
        largest_not_last += sizes[-1] < max(sizes)
    assert (len(cores), largest_not_last) == (1795, 1582)
