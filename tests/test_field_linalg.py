"""Exact field arithmetic and the matrix/subspace/flag layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fultoncheck import linalg, rowred
from fultoncheck.field import (
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    _is_prime,
    field_from_name,
    least_prime_from,
)
from fultoncheck.linalg import (
    MAX_SAMPLE_ATTEMPTS,
    Flag,
    LinAlgError,
    Matrix,
    SamplingError,
    Subspace,
    contained_in,
    random_flag,
    random_matrix,
    random_nonzero_combination,
    random_subspace,
)
from fultoncheck.rowred import rref_mod

PF = PrimeField(DEFAULT_PRIME)
QF = RationalField()
MERSENNE_61 = 2**61 - 1
# The least strong pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
FIELD_NAMES = ["prime", "prime:2", "prime:3", "rational"]


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_prime_field_basics():
    f = PrimeField(7)
    assert f.from_int(-1) == 6
    assert f.mul(3, 5) == 1
    assert f.neg(2) == 5
    assert f.name == "prime:7"


def test_prime_field_refuses_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    for n in (PSI_12, PSI_13):
        with pytest.raises(ValueError):
            PrimeField(n)
    assert PrimeField(MERSENNE_61).p == MERSENNE_61


def test_is_prime_agrees_with_a_sieve():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_least_prime_from():
    assert [least_prime_from(n) for n in (0, 2, 8, 24, 12_000_000)] == [2, 2, 11, 29, 12_000_017]
    assert all(not _is_prime(n) for n in range(12_000_000, 12_000_017))


def test_sample_size_counts_the_values_a_sample_draws_from():
    assert PrimeField(13).sample_size == 13
    assert PF.sample_size == QF.sample_size == DEFAULT_PRIME
    rng = random.Random(2)
    assert {PrimeField(5).sample(rng) for _ in range(200)} == set(range(5))


def test_rational_field_basics():
    f = RationalField()
    assert f.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    assert f.from_int(-4) == Fraction(-4)


def test_field_from_name():
    assert field_from_name("prime").p == DEFAULT_PRIME
    assert field_from_name("prime:97").p == 97
    assert field_from_name("rational").name == "rational"
    with pytest.raises(ValueError):
        field_from_name("galois:4")


def test_characteristic_is_the_only_field_tag():
    assert PrimeField(7).characteristic == 7
    assert PF.characteristic == DEFAULT_PRIME
    assert RationalField().characteristic == 0
    # A class attribute, not a dataclass field: equality and repr ignore it.
    assert RationalField() == QF and "characteristic" not in repr(QF)


def test_field_sample_streams_match():
    """Both fields consume the RNG identically, so seeded runs correspond."""
    a = [PF.sample(random.Random(5)) for _ in range(1)]
    b = [QF.sample(random.Random(5)) for _ in range(1)]
    assert int(b[0]) % DEFAULT_PRIME == a[0] % DEFAULT_PRIME


# ---------------------------------------------------------------------------
# Matrices: frozen fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_rank_of_dependent_rows(field):
    m = Matrix.from_rows(field, [[1, 2], [2, 4]])
    assert m.rank() == 1


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_kernel_of_sum_functional(field):
    m = Matrix.from_rows(field, [[1, 1]])
    kb = m.kernel_basis()
    assert kb.ncols == 1
    assert (m @ kb).is_zero()
    col = kb.column(0)
    assert col[0] == field.neg(col[1])


def test_inverse_fixture_rational():
    m = Matrix.from_rows(QF, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv.rows == Matrix.from_rows(QF, [[1, -1], [-1, 2]]).rows
    assert (m @ inv).rows == Matrix.identity(QF, 2).rows


def test_shape_validation():
    a = Matrix.from_rows(QF, [[1, 2]])
    b = Matrix.from_rows(QF, [[1], [2], [3]])
    with pytest.raises(LinAlgError):
        a @ b
    with pytest.raises(LinAlgError):
        a.hstack(Matrix.from_rows(QF, [[1], [2]]))
    with pytest.raises(LinAlgError):
        Matrix.from_rows(QF, [[1, 2], [3]])


def test_column_helpers():
    m = Matrix.from_rows(QF, [[1, 2, 3], [4, 5, 6]])
    assert m.column(2) == (Fraction(3), Fraction(6))
    assert m.prefix_columns(2).rows == ((Fraction(1), Fraction(2)), (Fraction(4), Fraction(5)))
    assert m.take_columns([2, 0]).rows == ((Fraction(3), Fraction(1)), (Fraction(6), Fraction(4)))
    assert m.transpose().rows == ((Fraction(1), Fraction(4)), (Fraction(2), Fraction(5)), (Fraction(3), Fraction(6)))
    assert m.reverse_rows().rows == ((Fraction(4), Fraction(5), Fraction(6)), (Fraction(1), Fraction(2), Fraction(3)))


def test_flag_stores_its_inverse():
    rng = random.Random(5)
    for field in (PF, QF):
        m = random_flag(field, 4, rng).matrix
        fl = Flag(m)
        assert fl.inverse == m.inverse()
        assert (m @ fl.inverse) == Matrix.identity(field, 4)
        # The stored inverse is not part of a flag's identity.
        assert fl == Flag(m) and hash(fl) == hash(Flag(m))


def test_flag_rejects_singular_or_nonsquare_basis():
    with pytest.raises(LinAlgError):
        Flag(Matrix.from_rows(PF, [[1, 2], [2, 4]]))
    with pytest.raises(LinAlgError):
        Flag(Matrix.from_rows(QF, [[1, 0, 0], [0, 1, 0]]))


def test_random_flag_gives_up_after_max_attempts(monkeypatch):
    draws = []

    def singular(field, nrows, ncols, rng):
        draws.append((nrows, ncols))
        return Matrix.zeros(field, nrows, ncols)

    monkeypatch.setattr(linalg, "random_matrix", singular)
    with pytest.raises(SamplingError):
        random_flag(PF, 3, random.Random(0))
    assert draws == [(3, 3)] * MAX_SAMPLE_ATTEMPTS


def test_singular_matrix_has_no_inverse():
    m = Matrix.from_rows(PF, [[1, 2], [2, 4]])
    assert not m.is_invertible()
    with pytest.raises(LinAlgError):
        m.inverse()


def test_inverse_of_empty_matrix():
    for field in (PF, QF):
        empty = Matrix(field, 0, 0, ())
        assert empty.inverse() == empty


def test_inverse_refuses_singular_and_nonsquare():
    for field in (field_from_name("prime:2"), PF, QF):
        for rows in ([[0]], [[1, 1], [1, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                     [[1, 0]], [[1], [0]]):
            with pytest.raises(LinAlgError):
                Matrix.from_rows(field, rows).inverse()
    with pytest.raises(LinAlgError):
        Matrix(PF, 0, 2, ()).inverse()


@pytest.mark.parametrize("name", ["prime:2", "prime:101", "rational"])
def test_inverse_matches_augmented_rref_route(name):
    """`inverse` agrees with reducing `hstack(m, I)` through `Matrix.rref`."""
    field = field_from_name(name)
    rng = random.Random(17)
    seen = {"invertible": 0, "singular": 0}
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[0])  # force a singular matrix
        m = Matrix.from_rows(field, rows)
        red, piv = m.hstack(Matrix.identity(field, n)).rref()
        if len(piv) == n and all(pc < n for pc in piv):
            inv = m.inverse()
            assert inv == red.take_columns(range(n, 2 * n))
            assert m @ inv == Matrix.identity(field, n)
            seen["invertible"] += 1
        else:
            with pytest.raises(LinAlgError):
                m.inverse()
            seen["singular"] += 1
    assert min(seen.values()) > 0


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_echelon_transform_reads_rref_off_one_reduction(name):
    """T is invertible, T @ M = rref(M), and the pivots inside M are M's own."""
    field = field_from_name(name)
    rng = random.Random(23)
    deficient = 0
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 10)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])  # force a rank-deficient matrix
        m = Matrix.from_rows(field, rows, ncols=ncols)
        piv, t = m.echelon_transform()
        red, m_piv = m.rref()
        assert t.is_invertible()
        assert t @ m == red
        assert tuple(q for q in piv if q < ncols) == m_piv
        assert len(piv) == nrows  # the identity block completes the rank
        deficient += len(m_piv) < min(nrows, ncols)
    assert deficient > 0


# ---------------------------------------------------------------------------
# Matrices: properties
# ---------------------------------------------------------------------------


@st.composite
def small_int_matrix(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return rows


@given(small_int_matrix())
@settings(deadline=None)
def test_rank_plus_nullity_is_width(rows):
    m = Matrix.from_rows(PF, rows)
    kb = m.kernel_basis()
    assert m.rank() + kb.ncols == m.ncols
    assert (m @ kb).is_zero()


@given(small_int_matrix())
@settings(deadline=None)
def test_rank_equals_transpose_rank(rows):
    m = Matrix.from_rows(PF, rows)
    assert m.rank() == m.transpose().rank()


def test_rank_agrees_across_fields_on_500_matrices():
    """Small integer matrices: rank mod the default prime == rank over Q."""
    rng = random.Random(2024)
    for _ in range(500):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert Matrix.from_rows(PF, rows).rank() == Matrix.from_rows(QF, rows).rank()


@pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME])
def test_product_mod_p_is_the_rational_product_reduced(p):
    fp = PrimeField(p)
    rng = random.Random(p)
    for _ in range(100):
        # An inner dimension of 0 gives the zero matrix of the outer shape.
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = [[rng.randint(-2 * p, 2 * p) for _ in range(k)] for _ in range(m)]
        b = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(k)]
        over_q = Matrix.from_rows(QF, a, ncols=k) @ Matrix.from_rows(QF, b, ncols=n)
        over_p = Matrix.from_rows(fp, a, ncols=k) @ Matrix.from_rows(fp, b, ncols=n)
        assert (over_p.nrows, over_p.ncols) == (over_q.nrows, over_q.ncols) == (m, n)
        assert all(type(x) is Fraction for row in over_q.rows for x in row)
        assert over_p.rows == tuple(tuple(int(x) % p for x in row) for row in over_q.rows)


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------


def test_backend_reports_identity():
    assert rowred.BACKEND == "pure"


def _random_rref_pair(rng: random.Random, nrows: int, ncols: int):
    """An integer matrix A and its RREF R, valid over Q and over every F_p.

    R is a random integer RREF; A = E @ R for a unimodular E (unit lower
    times unit upper triangular, then a row permutation), which is
    invertible modulo every prime, so R is the RREF of A over each field.
    """
    k = rng.randint(0, min(nrows, ncols))
    pivots = sorted(rng.sample(range(ncols), k))
    target = [[0] * ncols for _ in range(nrows)]
    for i, pc in enumerate(pivots):
        target[i][pc] = 1
        for j in range(pc + 1, ncols):
            if j not in pivots:
                target[i][j] = rng.randint(-5, 5)
    lower = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0) for j in range(nrows)] for i in range(nrows)]
    upper = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(nrows)] for i in range(nrows)]
    mix = [[sum(lower[i][t] * upper[t][j] for t in range(nrows)) for j in range(nrows)] for i in range(nrows)]
    rng.shuffle(mix)
    a = [[sum(mix[i][t] * target[t][j] for t in range(nrows)) for j in range(ncols)] for i in range(nrows)]
    return a, target, pivots


@pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME, MERSENNE_61])
def test_rref_mod_agrees_with_rref_frac_mod_p(p):
    rng = random.Random(p)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        a, target, pivots = _random_rref_pair(rng, nrows, ncols)
        red_q, piv_q = rref_mod([[Fraction(x) for x in row] for row in a], 0)
        want = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in red_q]
        assert want == [[x % p for x in row] for row in target]
        red_p, piv_p = rref_mod([[x % p for x in row] for row in a], p)
        assert piv_p == piv_q == pivots
        assert red_p == want


def test_rref_over_q_keeps_non_integer_fractions():
    # By hand: scale row 0 by 3/2; subtract 1/3 of it from row 1 and all of
    # it from row 2; scale row 1 by 4/3; clear column 2 with it. Row 2 = row
    # 0 + row 1 vanishes, and column 0 holds no pivot.
    q = Fraction
    rows = [
        [q(0), q(2, 3), q(1, 2), q(1)],
        [q(0), q(1, 3), q(1), q(0)],
        [q(0), q(1), q(3, 2), q(1)],
    ]
    red, piv = rref_mod(rows, 0)
    assert piv == [1, 2]
    assert red == [[0, 1, 0, 2], [0, 0, 1, q(-2, 3)], [0, 0, 0, 0]]
    assert all(type(x) is Fraction for row in red for x in row)


def test_rational_reduction_matches_modular_pivots():
    rng = random.Random(7)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        _, piv_q = rref_mod([[Fraction(x) for x in row] for row in rows], 0)
        _, piv_p = rref_mod([[x % DEFAULT_PRIME for x in row] for row in rows], DEFAULT_PRIME)
        assert piv_q == piv_p


# ---------------------------------------------------------------------------
# Subspaces and flags
# ---------------------------------------------------------------------------


def test_subspace_requires_independent_basis():
    with pytest.raises(LinAlgError):
        Subspace(Matrix.from_columns(PF, [[1, 2], [2, 4]]))


def test_subspace_contains_and_coords():
    v = Subspace(Matrix.from_columns(QF, [[1, 1, 0], [0, 0, 1]]))
    w = Subspace(Matrix.from_columns(QF, [[2, 2, 3]]))
    assert v.contains(w)
    coords = Matrix.from_columns(QF, [[2, 3]])
    assert (v.basis @ coords).rows == w.basis.rows
    outside = Subspace(Matrix.from_columns(QF, [[1, 0, 0]]))
    assert not v.contains(outside)
    with pytest.raises(LinAlgError):
        v.contains(Subspace.full(QF, 2))


def test_contained_in_edge_cases():
    a = Matrix.from_columns(QF, [[1, 0]])
    zero_cols = Matrix.zeros(QF, 2, 0)
    assert contained_in(zero_cols, a)
    assert not contained_in(a, zero_cols)
    assert contained_in(Matrix.zeros(QF, 2, 1), zero_cols)


@pytest.mark.parametrize("name", ["prime:2", "prime:3"])
def test_contained_in_agrees_with_rank(name):
    field = field_from_name(name)
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(0, 9)
        big = random_matrix(field, n, rng.randint(0, 5), rng)
        small = random_matrix(field, n, rng.randint(0, 5), rng)
        expected = big.hstack(small).rank() == big.rank()
        assert contained_in(small, big) == expected
        seen[expected] += 1
    assert min(seen.values()) > 50


def test_standard_flag_steps():
    fl = Flag.standard(QF, 4)
    assert fl.step(2).ncols == 2
    assert fl.step(2).column(1) == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    sub = fl.step_subspace(3)
    assert sub.dim == 3
    for i in range(1, 4):
        assert fl.step_subspace(i + 1 if i < 4 else 4).contains(fl.step_subspace(i))


def test_random_objects_are_well_formed():
    rng = random.Random(0)
    m = random_matrix(PF, 3, 5, rng)
    assert (m.nrows, m.ncols) == (3, 5)
    fl = random_flag(PF, 5, rng)
    assert fl.matrix.is_invertible()
    v = random_subspace(PF, 6, 2, rng)
    assert (v.ambient_dim, v.dim) == (6, 2)
    combo = random_nonzero_combination(Matrix.identity(PF, 3), rng)
    assert combo.ncols == 1 and not combo.is_zero()


def test_random_nonzero_combination_needs_columns():
    rng = random.Random(0)
    with pytest.raises(LinAlgError):
        random_nonzero_combination(Matrix.zeros(PF, 3, 0), rng)
