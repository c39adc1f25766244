"""Kernel filtration: construction, exact rank formula, trace auditing."""

import dataclasses
import json
import random

import pytest

from conftest import (
    contained_in,
    flag_step,
    hstack,
    rank_positions,
    uniform_flag,
    uniform_flag_tuples,
    uniform_matrix,
)
from fultoncheck.cohomology import intersection_number
from fultoncheck.field import field_from_name
from fultoncheck.filtration import (
    TERMINATION_INJECTIVE,
    TERMINATION_KERNEL_VANISHED,
    TERMINATION_NO_MAPS,
    TERMINATION_TANGENT_ZERO,
    _lowest_rows,
    run_filtration,
    run_filtration_random,
    trace_to_dict,
    verify_trace,
)
from fultoncheck.homspace import (
    HomAuditError,
    audit_system,
    build_system,
    generic_hom_dim,
    random_flag_tuples,
)
from fultoncheck.linalg import Matrix
from fultoncheck.partitions import IndexSet, SchubertProblem
from fultoncheck.sweeps import enumerate_problems, rng_for

PF = field_from_name("prime")
QF = field_from_name("rational")


def _trace(text: str, seed: int = 7, field=PF, trials: int = 3):
    problem = SchubertProblem.parse(text)
    return run_filtration_random(problem, random.Random(seed), field, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Worked fixture: one extra map beyond the expected count
# ---------------------------------------------------------------------------


def test_worked_fixture_full_shape():
    tr = _trace("1,4@4;2,3@4")
    assert tr.hom_dim == 1
    assert tr.expected_dim == 0
    assert tr.correction == 1
    assert tr.hom_dim == tr.expected_dim + tr.correction
    assert tr.termination == TERMINATION_TANGENT_ZERO
    assert tr.h == 1
    step = tr.steps[0]
    assert step.level == 1
    assert step.dim == 1
    assert step.tangent_dim == 0
    assert step.psi is None
    assert tuple(k.elements for k in step.amb_positions) == ((1,), (2,))
    assert tr.terminal_dim == 1
    assert tuple(k.elements for k in tr.terminal_positions) == ((1,), (2,))
    assert len(tr.etas) == 1


def test_worked_fixture_audits_green():
    tr = _trace("1,4@4;2,3@4")
    audit = verify_trace(tr)
    assert audit.ok, audit.details
    assert set(audit.checks) == {
        "shape_consistency",
        "strict_descent",
        "terminal_dim_zero",
        "positions_geometric",
        "position_chain",
        "containments",
        "eta_kernels",
        "rank_formula",
        "hom_lower_bound",
        "tangent_bound",
        "chain_bound",
    }
    assert all(audit.checks.values())


def test_worked_fixture_over_rationals():
    tr = _trace("1,4@4;2,3@4", field=QF)
    assert tr.hom_dim == 1 and tr.correction == 1
    assert verify_trace(tr).ok


# ---------------------------------------------------------------------------
# Termination modes
# ---------------------------------------------------------------------------


def test_open_cell_terminates_injective():
    tr = _trace("3,4@4")
    assert tr.termination == TERMINATION_INJECTIVE
    assert tr.h == 0
    assert tr.hom_dim == 4
    assert tr.correction == 0
    assert len(tr.etas) == 1  # the generic map itself certifies injectivity
    assert tr.terminal_dim == 0
    assert tuple(k.elements for k in tr.terminal_positions) == ((),)
    assert verify_trace(tr).ok


def test_overdetermined_problem_terminates_no_maps():
    tr = _trace("1,4@4;1,4@4;1,4@4")
    assert tr.termination == TERMINATION_NO_MAPS
    assert tr.h == 0
    assert tr.hom_dim == 0
    assert tr.expected_dim == -2
    assert tr.correction == 2
    assert tr.etas == ()
    # terminal object is the whole source with open positions
    assert tr.terminal_dim == 2
    assert verify_trace(tr).ok


def test_descending_chain_can_reach_zero():
    tr = _trace("2,3@4")
    assert tr.termination == TERMINATION_KERNEL_VANISHED
    assert tr.hom_dim == 2 == tr.expected_dim
    assert tr.correction == 0
    last = tr.steps[-1]
    assert last.dim == 0
    assert last.tangent_dim == 0
    assert last.psi is None
    assert tr.terminal_dim == 0
    assert tuple(k.elements for k in tr.terminal_positions) == ((),)
    assert verify_trace(tr).ok


def test_source_bigger_than_target_descends_to_zero():
    tr = _trace("2,3,4@4")
    assert tr.termination == TERMINATION_KERNEL_VANISHED
    assert tr.hom_dim == 3 == tr.expected_dim
    assert tr.correction == 0
    assert verify_trace(tr).ok


def test_every_step_strictly_descends():
    for text in ["2,3@4", "2,3,4@4", "1,3,5@6", "2,4,6@6;2,4,6@6"]:
        tr = _trace(text, seed=13)
        dims = [s.dim for s in tr.steps]
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert verify_trace(tr).ok


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------


def test_same_seed_gives_identical_traces():
    for text in ["1,4@4;2,3@4", "2,3@4", "3,4@4", "1,3,5@6", "2,4,6@6;2,4,6@6"]:
        for seed in (1, 2):
            a = trace_to_dict(_trace(text, seed=seed))
            b = trace_to_dict(_trace(text, seed=seed))
            assert a == b


def test_different_seeds_agree_on_invariants():
    for seed in range(1, 21):
        tr = _trace("1,4@4;2,3@4", seed=seed)
        assert (tr.hom_dim, tr.correction, tr.h) == (1, 1, 1)
        assert tuple(k.elements for k in tr.terminal_positions) == ((1,), (2,))


def test_trace_dict_is_json_serializable():
    tr = _trace("1,4@4;2,3@4")
    doc = trace_to_dict(tr, verify_trace(tr))
    blob = json.dumps(doc, sort_keys=True)
    assert '"hom_dim": 1' in blob
    round_tripped = json.loads(blob)
    assert round_tripped["terminal"]["dim"] == 1
    assert round_tripped["audit"]["ok"] is True


def test_rational_and_prime_traces_match_on_invariants():
    for text in ["1,4@4;2,3@4", "2,3@4"]:
        a = _trace(text, seed=5, field=PF)
        b = _trace(text, seed=5, field=QF)
        assert a.hom_dim == b.hom_dim
        assert a.correction == b.correction
        assert a.termination == b.termination
        assert [s.dim for s in a.steps] == [s.dim for s in b.steps]


# ---------------------------------------------------------------------------
# Flags: drawn in the open cell, checked against uniform flags
# ---------------------------------------------------------------------------


def _is_lower_unitriangular(mat: Matrix) -> bool:
    return all(
        x == (1 if i == j else 0)
        for i, row in enumerate(mat.rows)
        for j, x in enumerate(row)
        if j >= i
    )


def test_random_filtration_draws_its_flags_in_the_open_cell():
    for field in (PF, QF):
        for text in ["1,4@4;2,3@4", "2,4@5;2,4@5;1,3@5;2,5@5", "1,3,5@6"]:
            tr = _trace(text, seed=11, field=field)
            flags = tr.sub_flags + tr.quot_flags
            assert all(_is_lower_unitriangular(fl.matrix) for fl in flags)
            again = _trace(text, seed=11, field=field)
            assert again.sub_flags + again.quot_flags == flags


def _invariants(tr) -> tuple:
    steps = tuple((st.dim, st.amb_positions, st.rel_positions, st.tangent_dim) for st in tr.steps)
    return tr.hom_dim, tr.correction, tr.termination, tr.h, tr.terminal_positions, steps


@pytest.mark.parametrize(
    "field_name, ranges, cores_with_maps",
    [("prime", (3, 6, 4), 75), ("rational", (3, 5, 4), 11)],
    ids=["prime", "rational"],
)
def test_open_cell_flags_give_the_filtration_of_uniform_flags(field_name, ranges, cores_with_maps):
    """Reference route: flags with uniform invertible bases cover the whole
    flag variety, so the open-cell draws must reach the same filtration on
    every core with maps in the crosscheck benchmark's ranges."""
    field = field_from_name(field_name)
    cores = {problem.core() for problem in enumerate_problems(*ranges)}
    with_maps = sorted((c for c in cores if intersection_number(c) == 0), key=SchubertProblem.text)
    assert len(with_maps) == cores_with_maps
    for core in with_maps:
        text = core.text()
        cell = run_filtration_random(core, rng_for(101, f"trace:{text}"), field)
        subs, quots = uniform_flag_tuples(core, rng_for(101, f"uniform:{text}"), field)
        uniform = run_filtration(core, subs, quots, rng_for(101, f"trace:{text}"))
        assert _invariants(cell) == _invariants(uniform), text
        assert verify_trace(cell).ok and verify_trace(uniform).ok, text


# ---------------------------------------------------------------------------
# Audit catches tampering
# ---------------------------------------------------------------------------


def test_audit_rejects_corrupted_terminal_positions():
    tr = _trace("1,4@4;2,3@4")
    fake = (IndexSet(2, (2,)), IndexSet(2, (2,)))
    bad = dataclasses.replace(tr, steps=(dataclasses.replace(tr.steps[0], amb_positions=fake),))
    assert bad.terminal_positions == fake
    audit = verify_trace(bad)
    assert not audit.ok
    assert not audit.checks["positions_geometric"] or not audit.checks["rank_formula"]


def test_audit_fails_malformed_terminal_positions_without_raising():
    # Positions in a 3-dimensional ambient space for a rank-2 problem: the
    # correction cannot be computed, so the rank identity fails as a check.
    tr = _trace("1,4@4;2,3@4")
    fake = (IndexSet(3, (1,)), IndexSet(3, (1,)))
    bad = dataclasses.replace(tr, steps=(dataclasses.replace(tr.steps[-1], amb_positions=fake),))
    audit = verify_trace(bad)
    assert not audit.ok
    assert not audit.checks["terminal_dim_zero"]
    assert not audit.checks["rank_formula"]
    assert "malformed trace" in audit.details["rank_formula"]


AUDIT_CHECKS = [
    "shape_consistency", "strict_descent", "terminal_dim_zero", "positions_geometric",
    "position_chain", "containments", "eta_kernels", "rank_formula", "hom_lower_bound",
    "tangent_bound", "chain_bound",
]


def test_audit_fails_a_malformed_trace_and_never_raises():
    # Each tampered copy makes one check raise: the repeated last level
    # breaks `falcon_compose` in the position chain, and a one-column eta_0
    # breaks the product with eta in the containments.  The audit fails
    # that check and still reports all 11, in order.
    tr = _trace("1,4@4;2,3@4")
    assert list(verify_trace(tr).checks) == AUDIT_CHECKS
    repeated = dataclasses.replace(tr, steps=tr.steps + tr.steps[-1:])
    cut_eta = dataclasses.replace(tr, etas=(tr.etas[0].take_columns([0]),))
    for bad, failed in ((repeated, "position_chain"), (cut_eta, "containments")):
        audit = verify_trace(bad)
        assert list(audit.checks) == AUDIT_CHECKS
        assert not audit.ok
        assert not audit.checks[failed]
        assert audit.details[failed].startswith("malformed trace: ")
        assert audit.failed_checks() == [name for name in AUDIT_CHECKS if not audit.checks[name]]


def test_audit_rejects_positions_from_a_planted_top_pivot_profile(monkeypatch):
    # The run reads its positions off `_bottom_pivot_profile`; the audit must
    # not, or a wrong profile would agree with itself.
    from fultoncheck import positions

    def top_pivot_profile(c):
        if c.ncols == 0:
            return []
        piv, t = Matrix(c.field, c.ncols, c.nrows, tuple(zip(*c.rows))).echelon_transform()
        return sorted(((q + 1, t.rows[k]) for k, q in enumerate(piv)), key=lambda item: item[0])

    monkeypatch.setattr(positions, "_bottom_pivot_profile", top_pivot_profile)
    audit = verify_trace(_trace("1,4@4;2,3@4"))
    assert not audit.checks["positions_geometric"]
    assert "ambient positions differ" in audit.details["positions_geometric"]


def test_audit_rejects_an_ambient_basis_that_does_not_compose():
    # Twice the true basis spans the same line, so only the composition
    # basis_in_ambient == parent @ basis_in_parent can tell.
    tr = _trace("1,4@4;2,3@4")
    step = tr.steps[0]
    doubled = step.basis_in_ambient @ Matrix.from_rows(PF, [[2]])
    bad = dataclasses.replace(tr, steps=(dataclasses.replace(step, basis_in_ambient=doubled),))
    audit = verify_trace(bad)
    assert not audit.checks["positions_geometric"]
    assert "parent @ basis_in_parent" in audit.details["positions_geometric"]
    assert audit.checks["position_chain"]


def test_audit_rejects_a_dependent_basis():
    tr = _trace("1,4@4;2,3@4")
    step = tr.steps[0]
    zero = Matrix.from_columns(PF, [[0, 0]])
    bad = dataclasses.replace(
        tr, steps=(dataclasses.replace(step, basis_in_parent=zero, basis_in_ambient=zero),)
    )
    audit = verify_trace(bad)
    assert not audit.checks["positions_geometric"]
    assert "dependent" in audit.details["positions_geometric"]


def test_audit_rejects_corrupted_relative_positions():
    tr = _trace("1,4@4;2,3@4")
    step = tr.steps[0]
    swapped = tuple(reversed(step.rel_positions))
    assert swapped != step.rel_positions
    bad = dataclasses.replace(tr, steps=(dataclasses.replace(step, rel_positions=swapped),))
    audit = verify_trace(bad)
    assert not audit.ok
    assert not audit.checks["position_chain"]
    assert audit.checks["positions_geometric"]


def test_audit_rejects_wrong_hom_dim():
    tr = _trace("2,3@4")
    bad = dataclasses.replace(tr, hom_dim=tr.hom_dim + 1)
    audit = verify_trace(bad)
    assert not audit.ok
    assert not audit.checks["rank_formula"]
    assert "!=" in audit.details["rank_formula"]


# ---------------------------------------------------------------------------
# Certificate audits: products only, so a broken kernel cannot pass them
# ---------------------------------------------------------------------------


# Every termination, a second level (1,5,6@6;2,3,4@6) and the two problems
# whose quotient is zero-dimensional, so their quotient flags are 0 x 0.
CERTIFIED_PROBLEMS = [
    "1,4@4;2,3@4", "1,5,6@6;2,3,4@6", "2,4@5;2,4@5;1,3@5;2,5@5", "3,4@4", "2,3@4",
    "1,2@2", "1@1",
]


def _wrong_inverse(flag):
    """The stored inverse with 1 added to its top-left entry: same shape, not the inverse."""
    inv = flag.inverse
    rows = [list(row) for row in inv.rows]
    rows[0][0] += 1
    return Matrix.from_rows(inv.field, rows, ncols=inv.ncols)


def _system_at(trace):
    return build_system(trace.problem, trace.sub_flags, trace.quot_flags)


def _refuse_reduction(monkeypatch):
    from fultoncheck import linalg

    def refuse(rows, p):
        raise AssertionError("the audit made a row reduction")

    monkeypatch.setattr(linalg, "rref_mod", refuse)


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
@pytest.mark.parametrize("text", CERTIFIED_PROBLEMS)
def test_certificate_audits_pass_without_any_reduction(monkeypatch, text, field):
    tr = _trace(text, field=field)
    system = _system_at(tr)
    _refuse_reduction(monkeypatch)
    audit_system(system)
    audit = verify_trace(tr)
    assert audit.checks["containments"] and audit.checks["positions_geometric"], audit.details
    if text in ("1,2@2", "1@1"):
        assert tr.termination == TERMINATION_NO_MAPS
        assert all(g.n == 0 and g._certified_inverse() == g.matrix for g in tr.quot_flags)
    monkeypatch.undo()
    assert verify_trace(tr).ok


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_a_wrong_quotient_inverse_fails_both_audits(field):
    tr = _trace("1,5,6@6;2,3,4@6", field=field)
    system = _system_at(tr)
    g = tr.quot_flags[1]
    object.__setattr__(g, "inverse", _wrong_inverse(g))
    with pytest.raises(HomAuditError, match="stored inverse of quotient flag j=2"):
        audit_system(system)
    audit = verify_trace(tr)
    assert audit.failed_checks() == ["containments"]
    assert audit.details["containments"] == "quotient flag 2: stored inverse is not its inverse"


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_a_wrong_sub_inverse_fails_the_trace_audit(field):
    tr = _trace("1,5,6@6;2,3,4@6", field=field)
    f = tr.sub_flags[0]
    object.__setattr__(f, "inverse", _wrong_inverse(f))
    audit = verify_trace(tr)
    assert audit.failed_checks() == ["positions_geometric", "containments"]
    for name in audit.failed_checks():
        assert audit.details[name] == "sub flag 1: stored inverse is not its inverse"


@pytest.mark.parametrize("field_name", ["prime", "prime:2", "rational"])
def test_lowest_rows_agree_with_the_rank_oracle(field_name):
    # Subspaces often in special position: at least half of the basis columns
    # that fit inside a step of the flag are drawn from it, as in the `cut`
    # oracle test.
    field = field_from_name(field_name)
    rng = random.Random(404)
    special = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        d = rng.randint(0, n)
        flag = uniform_flag(field, n, rng)
        j = rng.randint(0, n)
        k = rng.randint((min(d, j) + 1) // 2, min(d, j))
        basis = hstack(
            flag_step(flag, j) @ uniform_matrix(field, j, k, rng), uniform_matrix(field, n, d - k, rng)
        )
        reduced = _lowest_rows(flag.inverse @ basis)
        if basis.rank() < d:
            assert reduced is None
            continue
        lows, t = reduced
        assert t.rank() == d and len(set(lows)) == d
        adapted = flag.inverse @ basis @ t
        for col, low in enumerate(lows):
            assert adapted.rows[low][col] and not any(row[col] for row in adapted.rows[low + 1:])
        pos = rank_positions(basis, flag)
        assert tuple(sorted(low + 1 for low in lows)) == pos.elements
        special += pos.elements != tuple(range(n - d + 1, n + 1))
    assert special >= 15


def _with_one_flag_redrawn(record, rng):
    """A copy of a trace or hom system with one sub or quotient flag redrawn
    anywhere in the flag variety: the first violated (u, j, a) then moves
    across levels, conditions and steps."""
    kind = rng.choice(["sub_flags", "quot_flags"])
    flags = list(getattr(record, kind))
    j = rng.randrange(len(flags))
    flags[j] = uniform_flag(flags[j].field, flags[j].n, rng)
    return dataclasses.replace(record, **{kind: tuple(flags)})


def _first_violation_by_ranks(trace) -> str:
    """The containment check by the rank route: S cap F_a from one kernel,
    containment by one reduction; the detail `_containments` must give."""
    problem = trace.problem
    r, m = problem.r, problem.n - problem.r
    for u, eta in enumerate(trace.etas):
        amb = trace.steps[u - 1].basis_in_ambient if u else Matrix.identity(eta.field, r)
        for j in range(problem.s):
            i_set = problem.index_sets[j].elements
            for a in range(1, r + 1):
                ker = hstack(amb, flag_step(trace.sub_flags[j], a)).kernel_basis()
                inter = Matrix(eta.field, amb.ncols, ker.ncols, ker.rows[: amb.ncols])
                level = min(i_set[a - 1] - a, m)
                if not contained_in(eta @ inter, flag_step(trace.quot_flags[j], level)):
                    return f"eta_{u}, condition {j + 1}, step {a}"
    return "ok"


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_containments_fail_where_the_rank_route_does(field):
    # The certificate route must pass or fail exactly as the rank route
    # does, at the same first (u, j, a). A redrawn flag breaks level 0, so
    # every other tampered copy instead moves one entry of a later eta_u.
    rng = random.Random(17)
    details = set()
    for text in ("1,4@4;2,3@4", "1,5,6@6;2,3,4@6", "1,5,6@6;3,4,5@6;3,4,5@6", "2,5@6;3,4@6", "3,4@4"):
        tr = _trace(text, field=field)
        for i in range(12):
            if i % 2 and len(tr.etas) > 1:
                u = rng.randrange(1, len(tr.etas))
                rows = [list(row) for row in tr.etas[u].rows]
                rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += 1
                etas = list(tr.etas)
                etas[u] = Matrix.from_rows(field, rows, ncols=tr.etas[u].ncols)
                bad = dataclasses.replace(tr, etas=tuple(etas))
            else:
                bad = _with_one_flag_redrawn(tr, rng)
            want = _first_violation_by_ranks(bad)
            assert verify_trace(bad).details["containments"] == want, text
            details.add(want)
    assert len(details) >= 5 and any(d.startswith("eta_1") for d in details)


def _first_map_violation_by_ranks(system):
    """`audit_system`'s message by the rank route, or None when every map passes."""
    problem = system.problem
    r, m = problem.r, problem.n - problem.r
    for phi in system.solutions():
        for j in range(problem.s):
            i_set = problem.index_sets[j].elements
            for a in range(1, r + 1):
                image = phi @ flag_step(system.sub_flags[j], a)
                level = min(i_set[a - 1] - a, m)
                if not contained_in(image, flag_step(system.quot_flags[j], level)):
                    return f"solved map violates condition j={j + 1}, a={a} for problem {problem.text()}"
    return None


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_audit_system_fails_where_the_rank_route_does(field):
    rng = random.Random(23)
    messages = set()
    for text in ("1,4@4;2,3@4", "1,5,6@6;2,3,4@6", "1,5,6@6;3,4,5@6;3,4,5@6", "2,5@6;3,4@6", "3,4@4"):
        problem = SchubertProblem.parse(text)
        system = build_system(problem, *random_flag_tuples(problem, random.Random(3), field))
        for _ in range(10):
            bad = _with_one_flag_redrawn(system, rng)
            want = _first_map_violation_by_ranks(bad)
            try:
                audit_system(bad)
                got = None
            except HomAuditError as exc:
                got = str(exc)
            assert got == want, text
            messages.add(want)
    assert len(messages) >= 6


@pytest.mark.parametrize("field", [PF, QF], ids=["prime", "rational"])
def test_a_kernel_that_drops_its_last_pivot_fails_the_audit(monkeypatch, field):
    # The flags are drawn with the true kernel; the planted one then makes
    # `kernel_basis` add a column that is no solution, and only a route that
    # makes no reduction of its own is sure to see it.
    from fultoncheck import linalg
    from fultoncheck.rowred import rref_mod

    def drop_last_pivot(rows, p):
        red, piv = rref_mod(rows, p)
        return red, piv[:-1]

    for text in ("1,4@4;2,3@4", "1,5,6@6;2,3,4@6", "2,3@4"):
        problem = SchubertProblem.parse(text)
        subs, quots = random_flag_tuples(problem, random.Random(5), field)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref_mod", drop_last_pivot)
            with pytest.raises(HomAuditError, match="solved map violates"):
                build_system(problem, subs, quots)


# ---------------------------------------------------------------------------
# Existence / dimension answers
# ---------------------------------------------------------------------------


# The intersection is generically nonempty exactly when the generic map-space
# dimension equals the expected dimension.


def test_answers_for_solvable_zero_dim_problem():
    prob = SchubertProblem.parse("2,4@4;2,4@4;2,4@4;2,4@4")
    assert generic_hom_dim(prob, random.Random(3), PF).dim == 0
    assert prob.expected_dim() == 0


def test_answers_for_unsolvable_zero_dim_problem():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    assert generic_hom_dim(prob, random.Random(3), PF).dim == 1
    assert prob.expected_dim() == 0


def test_answers_for_open_cell():
    prob = SchubertProblem.parse("3,4@4")
    assert generic_hom_dim(prob, random.Random(3), PF).dim == 4
    assert prob.expected_dim() == 4


def test_answers_for_overdetermined_problem():
    prob = SchubertProblem.parse("1,4@4;1,4@4;1,4@4")
    assert generic_hom_dim(prob, random.Random(3), PF).dim == 0
    assert prob.expected_dim() == -2


def test_trace_seed_helper_matches_direct_runs():
    prob = SchubertProblem.parse("1,4@4;2,3@4")
    a = run_filtration_random(prob, rng_for(42, "x"), PF, trials=3, seed=42)
    b = run_filtration_random(prob, rng_for(42, "x"), PF, trials=3, seed=42)
    assert trace_to_dict(a) == trace_to_dict(b)
