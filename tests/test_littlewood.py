"""Structure-constant computation: tableau engine vs determinant engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fultoncheck.littlewood import _tableau_count, lr_coefficient, lr_coefficient_pieri
from fultoncheck.partitions import Partition, partitions_up_to, partitions_with
from fultoncheck.sweeps import enumerate_triples

P = Partition.parse


# ---------------------------------------------------------------------------
# Frozen fixtures
# ---------------------------------------------------------------------------


def test_central_coefficient_is_two_in_both_engines():
    assert lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2
    assert lr_coefficient_pieri(P("2,1"), P("2,1"), P("3,2,1")) == 2


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_scaled_central_coefficient_grows_linearly(factor):
    mu = P("2,1").scale(factor)
    lam = P("3,2,1").scale(factor)
    assert lr_coefficient(mu, mu, lam) == factor + 1
    assert lr_coefficient_pieri(mu, mu, lam) == factor + 1


def test_single_row_factor_follows_strip_rule():
    # Adding a row of k boxes: coefficient 1 exactly when the skew shape is a
    # horizontal strip of size k, else 0.
    assert lr_coefficient(P("2,1"), P("2"), P("4,1")) == 1
    assert lr_coefficient(P("2,1"), P("2"), P("3,2")) == 1
    assert lr_coefficient(P("2,1"), P("2"), P("2,2,1")) == 1
    assert lr_coefficient(P("2,1"), P("2"), P("2,1,1,1")) == 0  # vertical pair
    assert lr_coefficient(P("2,1"), P("2"), P("3,1,1")) == 1
    assert lr_coefficient(P("2"), P("2"), P("3,1")) == 1
    assert lr_coefficient(P("2"), P("2"), P("2,2")) == 1
    assert lr_coefficient(P("2"), P("2"), P("2,1,1")) == 0


def test_trivial_and_degenerate_cases():
    empty = Partition(())
    assert lr_coefficient(empty, empty, empty) == 1
    assert lr_coefficient(P("2,1"), empty, P("2,1")) == 1
    assert lr_coefficient(empty, P("2,1"), P("2,1")) == 1
    assert lr_coefficient(P("2,1"), empty, P("3")) == 0
    # size mismatch is always zero
    assert lr_coefficient(P("2"), P("1"), P("2")) == 0
    # target must contain each factor
    assert lr_coefficient(P("3"), P("1"), P("2,2")) == 0
    assert lr_coefficient(P("1,1,1"), P("1"), P("2,2")) == 0
    # The engine itself: an empty shape holds no filling of a nonempty content.
    assert _tableau_count((), (), (1,)) == 0
    assert _tableau_count((), (), ()) == 1


def test_two_column_square_fixture():
    # s_(1,1) * s_(1,1) = s_(2,2) + s_(2,1,1) + s_(1,1,1,1)
    assert lr_coefficient(P("1,1"), P("1,1"), P("2,2")) == 1
    assert lr_coefficient(P("1,1"), P("1,1"), P("2,1,1")) == 1
    assert lr_coefficient(P("1,1"), P("1,1"), P("1,1,1,1")) == 1
    assert lr_coefficient(P("1,1"), P("1,1"), P("3,1")) == 0
    # The last row (3,3,2)/(2,2) would hold 1,1,2,2; the 2s need two 1s in
    # strictly earlier rows, which hold only one.
    assert lr_coefficient(P("2,2"), P("2,2"), P("3,3,2")) == 0


def test_trailing_zeros_do_not_change_coefficients():
    assert lr_coefficient(P("2,1"), Partition((2, 1, 0, 0)), Partition((3, 2, 1, 0))) == 2


# ---------------------------------------------------------------------------
# Engine-vs-engine and structural identities
# ---------------------------------------------------------------------------


def test_engines_agree_exhaustively_small():
    """Every (mu, nu, lam) with <= 4 rows and |mu| + |nu| <= 8, both engines."""
    shapes = partitions_up_to(8, 4)
    total = 0
    for mu in shapes:
        for nu in shapes:
            size = mu.size + nu.size
            if size > 8:
                continue
            for lam in partitions_with(size, 4):
                a = lr_coefficient(mu, nu, lam)
                b = lr_coefficient_pieri(mu, nu, lam)
                assert a == b, (mu.parts, nu.parts, lam.parts, a, b)
                total += 1
    assert total == 4147


@pytest.mark.parametrize("factor", [2, 3])
def test_engines_agree_on_scaled_sweep_triples(factor):
    """Every triple of the r <= 3, size <= 8 scaling sweep, scaled by `factor`."""
    for mu, nu, lam in enumerate_triples(3, 8):
        mu, nu, lam = mu.scale(factor), nu.scale(factor), lam.scale(factor)
        a = lr_coefficient(mu, nu, lam)
        b = lr_coefficient_pieri(mu, nu, lam)
        assert a == b, (mu.parts, nu.parts, lam.parts, a, b)


def test_symmetry_in_the_two_factors():
    shapes = partitions_up_to(5, 3)
    for mu in shapes:
        for nu in shapes:
            for lam in partitions_with(mu.size + nu.size, 3):
                assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


def test_row_sums_count_all_tableaux():
    # Summing c * (dimension-free check): sum over lam of c^lam_{mu,nu} for
    # mu=nu=(1) is 2: shapes (2) and (1,1).
    total = sum(lr_coefficient(P("1"), P("1"), lam) for lam in partitions_with(2, 2))
    assert total == 2


@st.composite
def partition_pairs(draw):
    def one():
        raw = draw(st.lists(st.integers(0, 4), min_size=0, max_size=3))
        return Partition(tuple(sorted(raw, reverse=True)))

    return one(), one()


@given(partition_pairs())
@settings(deadline=None, max_examples=60)
def test_coefficients_are_nonnegative_and_symmetric(pair):
    mu, nu = pair
    for lam in partitions_with(mu.size + nu.size, 6):
        c = lr_coefficient(mu, nu, lam)
        assert c >= 0
        assert c == lr_coefficient(nu, mu, lam)


@given(partition_pairs())
@settings(deadline=None, max_examples=40)
def test_unit_coefficient_at_union_shapes(pair):
    """The coefficient at the row-wise sum shape is always exactly 1."""
    mu, nu = pair
    k = max(mu.length, nu.length)
    summed = Partition(
        tuple(a + b for a, b in zip(mu.padded(k).parts, nu.padded(k).parts))
    )
    assert lr_coefficient(mu, nu, summed) == 1
