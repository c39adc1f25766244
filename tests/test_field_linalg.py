"""Exact field arithmetic and the matrix/subspace/flag layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniform_flag, uniform_matrix
from fultoncheck import rowred
from fultoncheck.field import (
    DEFAULT_PRIME,
    Field,
    _is_prime,
    field_from_name,
    least_prime_from,
)
from fultoncheck.linalg import (
    Flag,
    LinAlgError,
    Matrix,
    contained_in,
    random_nonzero_combination,
    random_unitriangular,
)
from fultoncheck.positions import cut, quotient_map
from fultoncheck.rowred import rref_mod

PF = Field(DEFAULT_PRIME)
QF = Field(0)
MERSENNE_61 = 2**61 - 1
# The least strong pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
FIELD_NAMES = ["prime", "prime:2", "prime:3", "rational"]


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_prime_field_basics():
    f = Field(7)
    assert f.reduce(-1) == 6
    assert f.reduce(3 * 5) == 1
    assert f.reduce(-2) == 5
    assert f.name == "prime:7"


def test_prime_field_refuses_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    for n in (PSI_12, PSI_13):
        with pytest.raises(ValueError):
            Field(n)
    assert Field(MERSENNE_61).p == MERSENNE_61


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
    assert Field(13).sample_size == 13
    assert PF.sample_size == QF.sample_size == DEFAULT_PRIME
    rng = random.Random(2)
    assert {Field(5).sample(rng) for _ in range(200)} == set(range(5))


def test_rational_field_basics():
    f = Field(0)
    assert f.name == "rational"
    # Over Q an element is any int or Fraction, and `reduce` keeps it as it is.
    assert f.reduce(-4) == -4 and type(f.reduce(-4)) is int
    assert f.reduce(Fraction(1, 2) * Fraction(2, 3)) == Fraction(1, 3)


def test_field_from_name():
    assert field_from_name("prime").p == DEFAULT_PRIME
    assert field_from_name("prime:97").p == 97
    assert field_from_name("rational").name == "rational"
    with pytest.raises(ValueError):
        field_from_name("galois:4")
    # p = 0 means Q, but only the name `rational` reaches it.
    for name in ("prime:0", "prime:1", "prime:4", "prime:-7"):
        with pytest.raises(ValueError, match="is not prime"):
            field_from_name(name)
    for name in ("prime:x", "prime:", "prime:7.0", "prime:0x7"):
        with pytest.raises(ValueError, match="prime:P needs an integer prime P"):
            field_from_name(name)
    # One spelling per field: P only in plain decimal, so that a report's
    # field and a checkpoint's config name the field one way.
    assert field_from_name("prime:12000017").name == "prime:12000017"
    for name in ("prime:2_000_003", "prime: 12000017", "prime:+12000017", "prime:012000017"):
        with pytest.raises(ValueError, match="prime:P needs an integer prime P"):
            field_from_name(name)


def test_characteristic_is_the_only_field_tag():
    assert Field(7).p == 7
    assert PF.p == DEFAULT_PRIME == field_from_name("prime").p
    assert QF.p == 0 and field_from_name("rational") == QF
    assert Field(7) != Field(11) != QF
    for p in (1, 4, -7):
        with pytest.raises(ValueError, match="is not prime"):
            Field(p)


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
    assert col[0] == field.reduce(-col[1])


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
        m = uniform_flag(field, 4, rng).matrix
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


def test_singular_matrix_has_no_inverse():
    m = Matrix.from_rows(PF, [[1, 2], [2, 4]])
    assert m.rank() < m.nrows
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
        assert t.rank() == t.nrows == t.ncols
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
    fp = Field(p)
    rng = random.Random(p)
    for _ in range(100):
        # An inner dimension of 0 gives the zero matrix of the outer shape.
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = [[rng.randint(-2 * p, 2 * p) for _ in range(k)] for _ in range(m)]
        b = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(k)]
        over_q = Matrix.from_rows(QF, a, ncols=k) @ Matrix.from_rows(QF, b, ncols=n)
        over_p = Matrix.from_rows(fp, a, ncols=k) @ Matrix.from_rows(fp, b, ncols=n)
        assert (over_p.nrows, over_p.ncols) == (over_q.nrows, over_q.ncols) == (m, n)
        assert all(type(x) in (int, Fraction) for row in over_q.rows for x in row)
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
    assert all(type(x) in (int, Fraction) for row in red for x in row)


def test_int_entries_over_q_divide_into_fractions_not_floats():
    """A pivot 2 among int entries gives 1/2 as a Fraction: the reduction
    inverts it exactly, never as a float `1 / 2`."""
    m = Matrix.from_rows(QF, [[2, 1], [0, 1]])
    assert all(type(x) is int for row in m.rows for x in row)
    red, piv = Matrix.from_rows(QF, [[2, 1]]).rref()
    kernel = Matrix.from_rows(QF, [[2, 1]]).kernel_basis()
    inv = m.inverse()
    assert piv == (0,) and red.rows == ((1, Fraction(1, 2)),)
    assert kernel.rows == ((Fraction(-1, 2),), (1,))
    assert inv.rows == ((Fraction(1, 2), Fraction(-1, 2)), (0, 1))
    for mat in (red, kernel, inv):
        assert all(type(x) in (int, Fraction) for row in mat.rows for x in row)
    assert m @ inv == Matrix.identity(QF, 2)


def _fraction_rref(rows):
    """Reference: Gauss-Jordan over `Fraction`s with first-nonzero pivoting."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _rational_entry(rng: random.Random):
    """Mostly zeros and small ints of either sign, and `Fraction`s, some of
    them with denominator 1."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _exact_types(rows) -> bool:
    """Every entry is an int or a `Fraction`, and an int exactly when it is
    an integer."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for row in rows for x in row)


def test_rational_rref_matches_a_fraction_reference():
    """The fraction-free reduction over Q gives the RREF and pivots of plain
    `Fraction` Gauss-Jordan on 600 seeded matrices up to 9x10: int and
    `Fraction` entries, denominator-1 `Fraction`s, negative pivots, zero
    rows, and rows of length 0."""
    rng = random.Random(31)
    for _ in range(600):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 10)
        rows = [[_rational_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(nrows):
            if rng.random() < 0.1:
                rows[i] = [0] * ncols
            elif rng.random() < 0.2 and i:  # a dependent row
                k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                rows[i] = [k * x + y for x, y in zip(rows[i - 1], rows[rng.randrange(i)])]
        want, want_piv = _fraction_rref(rows)
        red, piv = rref_mod([list(row) for row in rows], 0)
        assert (red, piv) == (want, want_piv), rows
        assert _exact_types(red)


def test_rational_product_matches_a_fraction_reference():
    """`Matrix.mul` over Q on 300 seeded pairs with `Fraction` operands: the
    entries are the `Fraction` dot products, ints where they are integers."""
    rng = random.Random(32)
    for _ in range(300):
        m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = [[_rational_entry(rng) for _ in range(k)] for _ in range(m)]
        b = [[_rational_entry(rng) for _ in range(n)] for _ in range(k)]
        got = Matrix.from_rows(QF, a, ncols=k) @ Matrix.from_rows(QF, b, ncols=n)
        want = [[sum((Fraction(a[i][t]) * b[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
                for i in range(m)]
        assert (got.nrows, got.ncols) == (m, n)
        assert [list(row) for row in got.rows] == want
        assert _exact_types(got.rows)


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
    dependent = Matrix.from_columns(PF, [[1, 2], [2, 4]])
    with pytest.raises(LinAlgError):
        quotient_map(dependent)
    with pytest.raises(LinAlgError):
        cut((Flag(Matrix.identity(PF, 2)),), dependent)


def test_subspace_contains_and_coords():
    v = Matrix.from_columns(QF, [[1, 1, 0], [0, 0, 1]])
    w = Matrix.from_columns(QF, [[2, 2, 3]])
    assert contained_in(w, v)
    coords = Matrix.from_columns(QF, [[2, 3]])
    assert (v @ coords).rows == w.rows
    outside = Matrix.from_columns(QF, [[1, 0, 0]])
    assert not contained_in(outside, v)
    with pytest.raises(LinAlgError):
        contained_in(Matrix.identity(QF, 2), v)


def test_contained_in_edge_cases():
    a = Matrix.from_columns(QF, [[1, 0]])
    zero_cols = Matrix(QF, 2, 0, ((), ()))
    assert contained_in(zero_cols, a)
    assert not contained_in(a, zero_cols)
    assert contained_in(Matrix.from_columns(QF, [[0, 0]]), zero_cols)


@pytest.mark.parametrize("name", ["prime:2", "prime:3"])
def test_contained_in_agrees_with_rank(name):
    field = field_from_name(name)
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(0, 9)
        big = uniform_matrix(field, n, rng.randint(0, 5), rng)
        small = uniform_matrix(field, n, rng.randint(0, 5), rng)
        expected = big.hstack(small).rank() == big.rank()
        assert contained_in(small, big) == expected
        seen[expected] += 1
    assert min(seen.values()) > 50


def test_standard_flag_steps():
    fl = Flag(Matrix.identity(QF, 4))
    assert fl.step(2).ncols == 2
    assert fl.step(2).column(1) == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert fl.step(3).rank() == 3
    for i in range(1, 4):
        assert contained_in(fl.step(i), fl.step(i + 1))


def test_random_objects_are_well_formed():
    rng = random.Random(0)
    fl = Flag(random_unitriangular(PF, 5, rng))
    assert fl.matrix.rank() == 5
    combo = random_nonzero_combination(Matrix.identity(PF, 3), rng)
    assert combo.ncols == 1 and not combo.is_zero()


def test_random_nonzero_combination_needs_columns():
    rng = random.Random(0)
    with pytest.raises(LinAlgError):
        random_nonzero_combination(Matrix(PF, 3, 0, ((),) * 3), rng)
