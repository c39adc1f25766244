"""Geometric positions: jump profiles, induced flags, chain composition."""

import random

import pytest

from conftest import (
    contained_in,
    flag_step,
    hstack,
    rank_positions,
    uniform_flag,
    uniform_matrix,
    uniform_subspace,
)
from fultoncheck.field import Field, field_from_name
from fultoncheck.linalg import Flag, LinAlgError, Matrix
from fultoncheck.partitions import IndexSet
from fultoncheck.positions import (
    cut,
    dim_triple,
    falcon_compose,
    quotient_map,
    rappel_delta,
)

PF = field_from_name("prime")
QF = Field(0)


def _position(basis: Matrix, e: Flag) -> IndexSet:
    """The position of span(basis) against `e`, read through `cut`."""
    return cut((e,), basis)[0][0]


# ---------------------------------------------------------------------------
# Positions relative to the standard flag
# ---------------------------------------------------------------------------


def test_position_of_coordinate_subspaces():
    e = Flag(Matrix.identity(QF, 4))
    v = Matrix.from_columns(QF, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert _position(v, e).elements == (2, 4)
    w = Matrix.from_columns(QF, [[1, 0, 0, 0]])
    assert _position(w, e).elements == (1,)


def test_position_uses_lowest_jump_levels():
    e = Flag(Matrix.identity(QF, 4))
    # span(e1 + e2, e3): levels where the intersection dimension jumps are 2, 3
    v = Matrix.from_columns(QF, [[1, 1, 0, 0], [0, 0, 1, 0]])
    assert _position(v, e).elements == (2, 3)


def test_position_of_zero_and_full():
    e = Flag(Matrix.identity(QF, 3))
    assert _position(Matrix(QF, 3, 0, ((),) * 3), e).elements == ()
    assert _position(Matrix.identity(QF, 3), e).elements == (1, 2, 3)


def test_position_is_generic_for_random_subspace():
    # A random subspace against an independent random flag sits in the open
    # cell: positions n - r + 1, ..., n.
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 7)
        r = rng.randint(1, n)
        v = uniform_subspace(PF, n, r, rng)
        e = uniform_flag(PF, n, rng)
        assert _position(v, e).elements == tuple(range(n - r + 1, n + 1))


# ---------------------------------------------------------------------------
# Induced flags
# ---------------------------------------------------------------------------


def test_induced_flag_on_subspace_realizes_jumps():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        r = rng.randint(1, n)
        v = uniform_subspace(PF, n, r, rng)
        e = uniform_flag(PF, n, rng)
        (pos,), sub, _, _ = cut((e,), v)
        assert pos == rank_positions(v, e)
        l = sub[0]
        # the a-th induced step, sent back to ambient coordinates, lies in
        # the Schubert level where the a-th jump happens
        for a in range(1, r + 1):
            step_amb = v @ flag_step(l, a)
            assert contained_in(step_amb, flag_step(e, pos.elements[a - 1]))


def test_quotient_map_identities():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        d = rng.randint(1, n - 1)
        v = uniform_subspace(PF, n, d, rng)
        proj, comp = quotient_map(v)
        assert (proj @ v).is_zero()
        assert (proj @ comp).rows == Matrix.identity(PF, n - d).rows


@pytest.mark.parametrize("field_name", ["prime", "prime:2", "prime:3", "rational"])
def test_quotient_map_is_the_bottom_of_the_inverse(field_name):
    """P is the unique map killing V and fixing C: rows d: of [V | C]^-1."""
    field = field_from_name(field_name)
    rng = random.Random(31)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 9)
        d = rng.randint(0, n)
        rows = [[0] * d if rng.random() < 0.3 else [rng.randint(-2, 2) for _ in range(d)]
                for _ in range(n)]  # zero rows make the completion nontrivial
        basis = Matrix.from_rows(field, rows, ncols=d)
        if basis.rank() < d:
            continue
        proj, comp = quotient_map(basis)
        for j in range(comp.ncols):  # standard basis vectors
            assert sorted(comp.column(j)) == [0] * (n - 1) + [1]
        inv = hstack(basis, comp).inverse()
        assert proj.rows == inv.rows[d:]
        checked += 1
    assert checked > 30


def test_induced_quotient_flag_of_coordinate_line():
    e = Flag(Matrix.identity(QF, 3))
    v = Matrix.from_columns(QF, [[1, 0, 0]])
    _, _, quot, comp = cut((e,), v)
    proj, comp_again = quotient_map(v)
    assert comp == comp_again
    assert (proj @ v).is_zero()
    # images of e2, e3 under projection along e1 give the standard flag
    assert quot[0].matrix.rows == Matrix.identity(QF, 2).rows


def test_induced_quotient_flag_of_zero_space_is_original():
    e = Flag(Matrix.identity(QF, 3))
    _, _, quot, _ = cut((e,), Matrix(QF, 3, 0, ((),) * 3))
    assert quot[0].matrix.rows == e.matrix.rows


def test_induced_quotient_flag_rejects_ambient_mismatch():
    line = Matrix.from_columns(QF, [[1, 0, 0, 0]])
    with pytest.raises(LinAlgError):
        cut((Flag(Matrix.identity(QF, 3)),), line)
    with pytest.raises(LinAlgError):
        cut((), line)


# ---------------------------------------------------------------------------
# Chain composition and the dimension ledger
# ---------------------------------------------------------------------------


def test_falcon_compose_fixture():
    i_set = IndexSet(4, (2, 4))
    assert falcon_compose(i_set, IndexSet(2, (1,))).elements == (2,)
    assert falcon_compose(i_set, IndexSet(2, (2,))).elements == (4,)
    assert falcon_compose(i_set, IndexSet(2, (1, 2))).elements == (2, 4)
    assert falcon_compose(i_set, IndexSet(2, ())).elements == ()


def test_falcon_compose_validates_shapes():
    with pytest.raises(ValueError):
        falcon_compose(IndexSet(4, (2, 4)), IndexSet(3, (1,)))


def test_dim_triple_fixtures():
    # one condition {1,4} and one {2,3} on a line inside a 2-space
    terminal = (IndexSet(2, (1,)), IndexSet(2, (2,)))
    assert dim_triple(terminal) == 0
    # open-cell positions: d(r-d) with no codimension
    assert dim_triple((IndexSet(2, (2,)),)) == 1
    assert dim_triple((IndexSet(4, (3, 4)),)) == 4
    # zero-dimensional subspace
    assert dim_triple((IndexSet(3, ()), IndexSet(3, ()))) == 0


def test_dim_triple_validates_uniform_shapes():
    with pytest.raises(ValueError):
        dim_triple(())
    with pytest.raises(ValueError):
        dim_triple((IndexSet(2, (1,)), IndexSet(3, (1,))))
    with pytest.raises(ValueError):
        dim_triple((IndexSet(3, (1,)), IndexSet(3, (1, 2))))


def test_rappel_delta_worked_fixture():
    i_sets = (IndexSet(4, (1, 4)), IndexSet(4, (2, 3)))
    k_sets = (IndexSet(2, (1,)), IndexSet(2, (2,)))
    assert rappel_delta(i_sets, k_sets) == 1


def test_rappel_delta_open_positions_vanish():
    i_sets = (IndexSet(4, (3, 4)),)
    k_sets = (IndexSet(2, (2,)),)
    # generic line in a generic 2-plane: (4-2+2-4) - 1*2 = 0 - 2 = -2
    assert rappel_delta(i_sets, k_sets) == -2


def test_chain_identity_on_random_subspace_chains():
    """Position composition and the dimension-difference identity, 120 chains."""
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        d = rng.randint(1, r)
        s = rng.randint(1, 3)
        v = uniform_subspace(PF, n, r, rng)
        w_in_v = uniform_subspace(PF, r, d, rng)
        w = v @ w_in_v
        flags = [uniform_flag(PF, n, rng) for _ in range(s)]
        i_sets, inner, _, _ = cut(tuple(flags), v)
        assert i_sets == tuple(rank_positions(v, e) for e in flags)
        k_sets = cut(inner, w_in_v)[0]
        direct = tuple(rank_positions(w, e) for e in flags)
        assert tuple(falcon_compose(i, k) for i, k in zip(i_sets, k_sets)) == direct
        assert dim_triple(k_sets) - dim_triple(direct) == rappel_delta(i_sets, k_sets)


# ---------------------------------------------------------------------------
# Cutting a flagged space
# ---------------------------------------------------------------------------


def test_flagged_space_restrict_and_quotient():
    n, r = 5, 2
    for field in (PF, QF):
        rng = random.Random(21)
        flags = tuple(uniform_flag(field, n, rng) for _ in range(2))
        basis = uniform_subspace(field, n, r, rng)
        positions, inner, quot, comp = cut(flags, basis)
        assert all(f.n == r for f in inner)
        assert len(inner) == 2
        assert positions == tuple(rank_positions(basis, f) for f in flags)
        proj, comp_again = quotient_map(basis)
        assert comp == comp_again
        assert all(q.n == n - r for q in quot)
        assert (proj @ basis).is_zero()
        assert (proj @ comp).rows == Matrix.identity(field, n - r).rows
        for f, q, pos in zip(flags, quot, positions):
            # step b of the quotient flag is the image of E_{alpha(b)}, all of it
            alpha = pos.complement().elements
            for b, level in enumerate(alpha, start=1):
                image = proj @ flag_step(f, level)
                assert image.rank() == b
                assert contained_in(image, flag_step(q, b))


def _oracle_positions(basis: Matrix, e: Flag) -> tuple[int, ...]:
    """Jumps of dim(V ∩ E_u) = d + u - rank([V | E_u]), by ranks alone."""
    d = basis.ncols
    dims = [d + u - hstack(basis, flag_step(e, u)).rank() for u in range(e.n + 1)]
    return tuple(u for u in range(1, e.n + 1) if dims[u] > dims[u - 1])


@pytest.mark.parametrize("field_name", ["prime", "prime:2", "rational"])
def test_cut_agrees_with_rank_oracle(field_name):
    """Positions, sub flags and quotient flags of `cut`, checked by ranks."""
    field = field_from_name(field_name)
    rng = random.Random(909)
    special = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        d = rng.randint(0, n)
        s = rng.randint(1, 3)
        flags = tuple(uniform_flag(field, n, rng) for _ in range(s))
        # Take at least half of the basis columns V can fit inside the step
        # E_j of the first flag from E_j, so V often sits in a special position.
        j = rng.randint(0, n)
        k = rng.randint((min(d, j) + 1) // 2, min(d, j))
        while True:
            inside = flag_step(flags[0], j) @ uniform_matrix(field, j, k, rng)
            basis = hstack(inside, uniform_matrix(field, n, d - k, rng))
            if basis.rank() == d:
                break
        positions, sub, quot, comp = cut(flags, basis)
        proj, comp_again = quotient_map(basis)
        assert comp == comp_again
        assert ({f.n for f in sub}, len(sub), {q.n for q in quot}, len(quot)) == ({d}, s, {n - d}, s)
        generic = tuple(range(n - d + 1, n + 1))
        special += any(pos.elements != generic for pos in positions)
        for e, pos, l, q in zip(flags, positions, sub, quot):
            assert pos.elements == _oracle_positions(basis, e) == rank_positions(basis, e).elements
            for a, level in enumerate(pos.elements, start=1):
                step_amb = basis @ flag_step(l, a)
                assert step_amb.rank() == a
                assert contained_in(step_amb, flag_step(e, level))
            for b, level in enumerate(pos.complement().elements, start=1):
                image = proj @ flag_step(e, level)
                assert image.rank() == b
                assert contained_in(image, flag_step(q, b))
    assert special >= 30
