"""Structure-constant computation: tableau engine vs determinant engine."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fultoncheck.littlewood import _lr, _tableau_count, lr_coefficient, lr_coefficient_pieri
from fultoncheck.partitions import Partition, _parts_contain, partitions_with
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
    shapes = [p for size in range(9) for p in partitions_with(size, 4)]
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


def test_pieri_oracle_handles_ten_row_content():
    """nu = 1^10 has 10! Jacobi-Trudi permutations; the oracle expands its
    conjugate (10) in one strip, and still equals the tableau engine."""
    nu = Partition((1,) * 10)
    assert lr_coefficient_pieri(P("1"), nu, P("2,1,1,1,1,1,1,1,1,1")) == 1
    checked = nonzero = 0
    for mu in (P("1"), P("2"), P("1,1"), P("2,1")):
        for lam in partitions_with(sum(mu.parts) + 10, 13):
            if len(lam.parts) >= 10:
                c = lr_coefficient(mu, nu, lam)
                assert lr_coefficient_pieri(mu, nu, lam) == c, (mu.parts, lam.parts)
                checked += 1
                nonzero += c > 0
    assert (checked, nonzero) == (17, 11)


def test_engines_agree_where_nu_is_taller_than_wide():
    """Every nu of size 2..8 with more rows than columns, which the oracle
    expands through the conjugate triple, against every mu of size <= 3 with
    <= 3 rows and every lam of the right size, including the lam with fewer
    rows than nu that the prefix search alone was slow to rule out."""
    tall = [nu for size in range(2, 9) for nu in partitions_with(size, size)
            if len(nu.parts) > nu.parts[0]]
    checked = nonzero = 0
    for mu in (mu for size in range(4) for mu in partitions_with(size, 3)):
        for nu in tall:
            size = mu.size + nu.size
            for lam in partitions_with(size, size):
                c = lr_coefficient(mu, nu, lam)
                assert lr_coefficient_pieri(mu, nu, lam) == c, (mu.parts, nu.parts, lam.parts)
                checked += 1
                nonzero += c > 0
    assert (len(tall), checked, nonzero) == (28, 5769, 894)


def test_pieri_oracle_returns_zero_when_a_factor_does_not_fit(monkeypatch):
    """A factor outside lam gives 0 before any permutation is walked: the
    square nu = 6^6 has 720 permutations, and lam has one row too few for it."""
    from fultoncheck import littlewood

    def walked(*args):
        raise AssertionError("a permutation was walked")

    outside = [
        (P("1"), P("6,6,6,6,6,6"), P("9,8,8,8,4")),  # nu has more rows than lam
        (P("3,3"), P("2,2"), P("4,2,2,2")),  # mu is wider than lam's second row
        (P("2"), P("3,1,1"), P("5,2")),  # nu has more rows than lam
        (P("1,1,1,1"), P("1,1,1"), P("4,3")),  # neither fits; nu is taller than wide
    ]
    with monkeypatch.context() as patch:
        patch.setattr(littlewood, "_pieri_prefixes", walked)
        for mu, nu, lam in outside:
            assert lr_coefficient_pieri(mu, nu, lam) == 0, (mu.parts, nu.parts, lam.parts)
            assert lr_coefficient_pieri(nu, mu, lam) == 0, (mu.parts, nu.parts, lam.parts)
    for mu, nu, lam in outside:
        assert lr_coefficient(mu, nu, lam) == 0
    # Both factors fit: the oracle walks its permutations and agrees.
    assert lr_coefficient_pieri(P("1"), P("6,6,6,6,6"), P("7,6,6,6,6")) == 1


def test_engines_leave_no_reference_cycles():
    """Everything the engines allocate is freed by reference counting, so a
    sweep of counts leaves the cyclic garbage collector nothing to find."""
    triples = [
        (mu, nu, lam)
        for mu, nu, lam in enumerate_triples(3, 8)
        if _parts_contain(lam.parts, mu.parts) and _parts_contain(lam.parts, nu.parts)
    ]
    assert len(triples) == 927
    gc.collect()
    gc.disable()
    try:
        for factor in (1, 2, 3):
            for mu, nu, lam in triples:
                # Directly, not through the `_lr` cache, so every count runs.
                _tableau_count(lam.scale(factor).parts, mu.scale(factor).parts,
                               nu.scale(factor).parts)
        for mu, nu, lam in triples[:400]:
            lr_coefficient_pieri(mu, nu, lam)
        list(partitions_with(12, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _both_orientations(mu, nu, lam):
    """The coefficient by `lr_coefficient`, after checking that the tableau
    count gives it with either factor as the content."""
    c = lr_coefficient(mu, nu, lam)
    if _parts_contain(lam.parts, mu.parts) and _parts_contain(lam.parts, nu.parts):
        assert _tableau_count(lam.parts, mu.parts, nu.parts) == c
        assert _tableau_count(lam.parts, nu.parts, mu.parts) == c
    return c


def test_symmetry_in_the_two_factors():
    """`lr_coefficient` counts in one orientation only, so the symmetry is
    checked on the tableau count itself."""
    shapes = [p for size in range(6) for p in partitions_with(size, 3)]
    for mu in shapes:
        for nu in shapes:
            for lam in partitions_with(mu.size + nu.size, 3):
                _both_orientations(mu, nu, lam)


def test_both_orders_share_one_cache_entry():
    _lr.cache_clear()
    lr_coefficient(P("3,1"), P("2,2,1"), P("4,3,2"))
    lr_coefficient(P("2,2,1"), P("3,1"), P("4,3,2"))
    assert _lr.cache_info().misses == 1


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
        assert _both_orientations(mu, nu, lam) >= 0


@given(partition_pairs())
@settings(deadline=None, max_examples=40)
def test_unit_coefficient_at_union_shapes(pair):
    """The coefficient at the row-wise sum shape is always exactly 1."""
    mu, nu = pair
    k = max(len(mu.parts), len(nu.parts))
    summed = Partition(tuple(a + b for a, b in zip(mu.padded(k), nu.padded(k))))
    assert lr_coefficient(mu, nu, summed) == 1
