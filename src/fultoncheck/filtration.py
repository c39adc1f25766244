"""Kernel filtrations by the tangent-space method, with an exact trace audit.

Starting from a generic constrained map phi: V -> Q, set S^(1) = ker(phi).
At each level the subspace chain S^(u) acquires positions relative to its
parent and to V; the relative problem (S^(u) inside S^(u-1), induced flags)
is solved with the same system builder, its solution space being the tangent
space of the relative intersection. A zero tangent space stops the chain; a
generic tangent element psi otherwise descends to S^(u+1) = ker(psi). The
chain may genuinely end in the zero subspace (a final recorded level of
dimension 0).

Every trace stores the composite comparison maps eta_u: S^(u) -> Q
(eta_0 = phi; eta_u = eta_{u-1} restricted to complement representatives and
composed with psi^(u)), so that the audit can replay all containments
eta_u(S^(u) cap F^j_a) <= G^j_{i^j_a - a} and the exact rank identity

    hom_dim = expected_dim + correction(terminal level)

without re-running any random choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random

from .field import Field
from .homspace import (
    DEFAULT_TRIALS,
    GenericDimResult,
    HomSystem,
    build_system,
    random_flag_tuples,
    sample_generic,
    stabilized_min,
)
from .linalg import Flag, Matrix, Subspace, contained_in
from .partitions import IndexSet, SchubertProblem
from .positions import FlaggedSpace, dim_triple, falcon_compose, rappel_delta

TERMINATION_NO_MAPS = "no_maps"
TERMINATION_INJECTIVE = "injective"
TERMINATION_TANGENT_ZERO = "tangent_zero"
TERMINATION_KERNEL_VANISHED = "kernel_vanished"

STOP_RULE_NOTE = (
    "stopping rule: a zero tangent space is taken as the zero-dimensionality "
    "certificate (no attempt is made to distinguish a non-reduced isolated "
    "point); the level-1 chain bound is checked with d = dim S^(1) on its "
    "left-hand side"
)


class FiltrationError(RuntimeError):
    """The recursion violated a structural guarantee (descent or depth)."""


@dataclass(frozen=True)
class FiltrationStep:
    """Level u of the chain: S^(u) inside its parent S^(u-1) and inside V."""

    level: int
    dim: int
    rel_positions: tuple[IndexSet, ...]  # position of S^(u) in S^(u-1)
    amb_positions: tuple[IndexSet, ...]  # position of S^(u) in V (subsets of [r])
    tangent_dim: int
    basis_in_parent: Matrix  # d_{u-1} x d_u
    basis_in_ambient: Matrix  # r x d_u
    psi: Matrix | None  # generic tangent element used to descend, if any


@dataclass(frozen=True)
class FiltrationTrace:
    problem: SchubertProblem
    field_name: str
    sub_flags: tuple[Flag, ...]
    quot_flags: tuple[Flag, ...]
    hom_dim: int
    expected_dim: int
    phi: Matrix | None
    steps: tuple[FiltrationStep, ...]
    termination: str
    terminal_dim: int
    terminal_positions: tuple[IndexSet, ...]
    correction: int
    etas: tuple[Matrix, ...]
    note: str = ""
    seed: int | None = None

    @property
    def h(self) -> int:
        return len(self.steps)


def _generic_kernel_element(
    system: HomSystem, rng: Random, trials: int, context: str
) -> tuple[Matrix, GenericDimResult]:
    """A sampled map whose kernel dimension equals the stabilized generic one."""
    drawn: list[tuple[int, Matrix]] = []

    def draw() -> int:
        candidate = sample_generic(system, rng)
        k = candidate.ncols - candidate.rank()
        drawn.append((k, candidate))
        return k

    result = stabilized_min(draw, trials, context=context)
    chosen = next(mat for k, mat in drawn if k == result.dim)
    return chosen, result


def _full_positions(s: int, n: int, d: int) -> tuple[IndexSet, ...]:
    return tuple(IndexSet(n, tuple(range(1, d + 1))) for _ in range(s))


def _empty_positions(s: int, n: int) -> tuple[IndexSet, ...]:
    return tuple(IndexSet(n, ()) for _ in range(s))


def run_filtration(
    problem: SchubertProblem,
    sub_flags: tuple[Flag, ...],
    quot_flags: tuple[Flag, ...],
    rng: Random,
    trials: int = DEFAULT_TRIALS,
    seed: int | None = None,
) -> FiltrationTrace:
    """Run the kernel recursion at the given flags and record everything.

    The kernel dimensions of the sampled maps (phi and each psi) are
    stabilized over `trials` agreeing samples, so the recorded chain is the
    generic one for these flags with overwhelming probability; every other
    quantity is exact linear algebra.
    """
    r = problem.r
    s = problem.s
    system = build_system(problem, sub_flags, quot_flags)
    field = system.field
    expected = problem.expected_dim()

    def finish(
        phi: Matrix | None,
        steps: list[FiltrationStep],
        termination: str,
        terminal_dim: int,
        terminal_positions: tuple[IndexSet, ...],
        etas: list[Matrix],
    ) -> FiltrationTrace:
        correction = rappel_delta(problem.index_sets, terminal_positions)
        return FiltrationTrace(
            problem=problem,
            field_name=field.name,
            sub_flags=sub_flags,
            quot_flags=quot_flags,
            hom_dim=system.dim,
            expected_dim=expected,
            phi=phi,
            steps=tuple(steps),
            termination=termination,
            terminal_dim=terminal_dim,
            terminal_positions=terminal_positions,
            correction=correction,
            etas=tuple(etas),
            note=STOP_RULE_NOTE,
            seed=seed,
        )

    if system.dim == 0:
        # The only constrained map is zero; the chain never starts and the
        # terminal level is V itself (full positions).
        return finish(
            phi=None,
            steps=[],
            termination=TERMINATION_NO_MAPS,
            terminal_dim=r,
            terminal_positions=_full_positions(s, r, r),
            etas=[],
        )

    phi, _ = _generic_kernel_element(
        system, rng, trials, context=f"initial map for {problem.text()}"
    )
    if phi.ncols - phi.rank() == 0:
        return finish(
            phi=phi,
            steps=[],
            termination=TERMINATION_INJECTIVE,
            terminal_dim=0,
            terminal_positions=_empty_positions(s, r),
            etas=[phi],
        )

    steps: list[FiltrationStep] = []
    etas: list[Matrix] = [phi]
    parent_space = FlaggedSpace(r, sub_flags)
    parent_basis_ambient = Matrix.identity(field, r)
    basis_in_parent = phi.kernel_basis()
    prev_amb = _full_positions(s, r, r)
    eta_prev = phi
    level = 1

    while True:
        if level > r:
            raise FiltrationError(
                f"chain depth exceeded the rank bound for {problem.text()}"
            )
        d = basis_in_parent.ncols
        basis_in_ambient = parent_basis_ambient @ basis_in_parent
        rel_positions, sub_space, quot_space, comp = parent_space.cut(basis_in_parent)
        amb_positions = tuple(
            falcon_compose(prev_amb[j], rel_positions[j]) for j in range(s)
        )

        tangent_dim, psi = 0, None
        if d > 0:
            rel_problem = SchubertProblem(parent_space.dim, d, rel_positions)
            tangent = build_system(rel_problem, sub_space.flags, quot_space.flags)
            tangent_dim = tangent.dim
            if tangent_dim > 0:
                psi, _ = _generic_kernel_element(
                    tangent,
                    rng,
                    trials,
                    context=f"level-{level} descent for {problem.text()}",
                )
                if psi.ncols - psi.rank() >= d:
                    raise FiltrationError(
                        f"descent failed to shrink the subspace at level {level} "
                        f"for {problem.text()}"
                    )
        steps.append(
            FiltrationStep(
                level=level,
                dim=d,
                rel_positions=rel_positions,
                amb_positions=amb_positions,
                tangent_dim=tangent_dim,
                basis_in_parent=basis_in_parent,
                basis_in_ambient=basis_in_ambient,
                psi=psi,
            )
        )
        if psi is None:
            # Either the previous descent map was injective (d == 0: the
            # chain ends in the zero subspace, recorded as a genuine final
            # level) or no constrained tangent map is left to descend with.
            return finish(
                phi=phi,
                steps=steps,
                termination=TERMINATION_KERNEL_VANISHED if d == 0 else TERMINATION_TANGENT_ZERO,
                terminal_dim=d,
                terminal_positions=amb_positions,
                etas=etas,
            )
        eta_prev = eta_prev @ comp @ psi
        etas.append(eta_prev)
        parent_space = sub_space
        parent_basis_ambient = basis_in_ambient
        prev_amb = amb_positions
        basis_in_parent = psi.kernel_basis()
        level += 1


def run_filtration_random(
    problem: SchubertProblem,
    rng: Random,
    fld: Field,
    trials: int = DEFAULT_TRIALS,
    seed: int | None = None,
) -> FiltrationTrace:
    """Sample fresh flag tuples, then run the recursion at them."""
    subs, quots = random_flag_tuples(problem, rng, fld)
    return run_filtration(problem, subs, quots, rng, trials=trials, seed=seed)


@dataclass(frozen=True)
class TraceAudit:
    ok: bool
    checks: dict[str, bool] = dc_field(default_factory=dict)
    details: dict[str, str] = dc_field(default_factory=dict)
    note: str = ""

    def failed_checks(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def _intersection_in_sub_coords(amb_basis: Matrix, step_cols: Matrix) -> Matrix:
    """Coordinates (in the columns of amb_basis) of span(amb_basis) cap
    span(step_cols): the top block of the kernel of [amb_basis | step_cols]."""
    stacked = amb_basis.hstack(step_cols)
    ker = stacked.kernel_basis()
    d = amb_basis.ncols
    rows = ker.rows[:d]
    return Matrix(amb_basis.field, d, ker.ncols, tuple(rows))


def _rank_positions(basis: Matrix, flag: Flag) -> IndexSet:
    """Position of span(basis), of full rank d: jumps of d + u - rank[basis | E_u]."""
    d, n = basis.ncols, flag.n
    dims = [0, *(d + u - basis.hstack(flag.step(u)).rank() for u in range(1, n)), d]
    return IndexSet(n, tuple(u for u in range(1, n + 1) if dims[u] > dims[u - 1]))


def verify_trace(trace: FiltrationTrace) -> TraceAudit:
    """Re-check every verifiable claim of a completed trace, exactly.

    Checks, in order: recorded shapes are coherent; dimensions strictly
    descend; the terminal level solves a rigid problem (dim_triple = 0);
    ambient bases compose and ambient positions match ranks alone; the
    position chain composes exactly, pinning each relative position K as
    falcon_compose(I, K) is injective in K; every comparison map eta_u
    satisfies all step containments and has the next subspace as its exact
    kernel; the rank identity hom = expected + correction holds; and the two
    inequality bounds (tangent bound and the chain bound with d = d_1) hold.
    """
    problem = trace.problem
    r, s = problem.r, problem.s
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks[name] = ok
        details[name] = detail if detail else ("ok" if ok else "failed")

    # --- shape consistency -------------------------------------------------
    shape_problems: list[str] = []
    if len(trace.sub_flags) != s or len(trace.quot_flags) != s:
        shape_problems.append("flag tuple lengths")
    for f in trace.sub_flags:
        if f.n != r:
            shape_problems.append("sub flag dimension")
    for g in trace.quot_flags:
        if g.n != problem.n - r:
            shape_problems.append("quotient flag dimension")
    dims = [step.dim for step in trace.steps]
    prev_dim = r
    for step in trace.steps:
        if len(step.rel_positions) != s or len(step.amb_positions) != s:
            shape_problems.append(f"level {step.level}: position tuple length")
        for k in step.rel_positions:
            if k.n != prev_dim or k.r != step.dim:
                shape_problems.append(f"level {step.level}: relative position shape")
        for k in step.amb_positions:
            if k.n != r or k.r != step.dim:
                shape_problems.append(f"level {step.level}: ambient position shape")
        if step.basis_in_parent.nrows != prev_dim or step.basis_in_parent.ncols != step.dim:
            shape_problems.append(f"level {step.level}: parent basis shape")
        if step.basis_in_ambient.nrows != r or step.basis_in_ambient.ncols != step.dim:
            shape_problems.append(f"level {step.level}: ambient basis shape")
        prev_dim = step.dim
    if trace.steps:
        last = trace.steps[-1]
        if trace.terminal_dim != last.dim or trace.terminal_positions != last.amb_positions:
            shape_problems.append("terminal data does not match the last level")
        if trace.termination in (TERMINATION_TANGENT_ZERO, TERMINATION_KERNEL_VANISHED):
            if last.tangent_dim != 0:
                shape_problems.append("terminating level with nonzero tangent")
        if trace.termination == TERMINATION_KERNEL_VANISHED and last.dim != 0:
            shape_problems.append("kernel_vanished termination with a nonzero final level")
        if trace.termination == TERMINATION_TANGENT_ZERO and last.dim == 0:
            shape_problems.append("tangent_zero termination at the zero subspace")
    expected_etas = {
        TERMINATION_NO_MAPS: 0,
        TERMINATION_INJECTIVE: 1,
        TERMINATION_TANGENT_ZERO: trace.h,
        TERMINATION_KERNEL_VANISHED: trace.h,
    }.get(trace.termination)
    if expected_etas is None:
        shape_problems.append(f"unknown termination {trace.termination!r}")
    elif len(trace.etas) != expected_etas:
        shape_problems.append("comparison map count")
    if trace.termination == TERMINATION_NO_MAPS and trace.hom_dim != 0:
        shape_problems.append("no_maps termination with nonzero solution space")
    record("shape_consistency", not shape_problems, "; ".join(shape_problems))

    # --- strict descent ----------------------------------------------------
    descent_ok = True
    descent_msg = ""
    if trace.h == 0:
        if trace.termination not in (TERMINATION_NO_MAPS, TERMINATION_INJECTIVE):
            descent_ok = False
            descent_msg = "empty chain with a descending termination"
    else:
        seq = [r] + dims
        for a, b in zip(seq, seq[1:]):
            if b >= a:
                descent_ok = False
                descent_msg = f"non-strict descent {seq}"
        if any(d == 0 for d in dims[:-1]):
            descent_ok = False
            descent_msg = "interior zero level"
        if dims[-1] == 0 and trace.termination != TERMINATION_KERNEL_VANISHED:
            descent_ok = False
            descent_msg = "zero final level without kernel_vanished termination"
        if trace.h > r:
            descent_ok = False
            descent_msg = "chain longer than the rank bound"
    record("strict_descent", descent_ok, descent_msg)

    # --- terminal level is rigid --------------------------------------------
    try:
        terminal_value = dim_triple(trace.terminal_positions)
        record(
            "terminal_dim_zero",
            terminal_value == 0,
            f"dim_triple(terminal) = {terminal_value}",
        )
    except ValueError as exc:
        record("terminal_dim_zero", False, f"malformed terminal positions: {exc}")

    # --- ambient bases compose (so have full rank); positions from ranks ----
    geo_msg = ""
    try:
        parent = Matrix.identity(trace.steps[0].basis_in_parent.field, r) if trace.steps else None
        for step in trace.steps:
            Subspace(step.basis_in_parent)  # raises on dependent columns
            if step.basis_in_ambient != parent @ step.basis_in_parent:
                geo_msg = f"level {step.level}: ambient basis is not parent @ basis_in_parent"
                break
            amb = tuple(_rank_positions(step.basis_in_ambient, f) for f in trace.sub_flags)
            if amb != step.amb_positions:
                geo_msg = f"level {step.level}: ambient positions differ"
                break
            parent = step.basis_in_ambient
    except Exception as exc:  # exact arithmetic: any failure is a real defect
        geo_msg = f"error: {exc}"
    record("positions_geometric", not geo_msg, geo_msg)

    # --- position chain composes exactly ------------------------------------
    chain_ok = True
    chain_msg = ""
    prev_amb = _full_positions(s, r, r)
    for step in trace.steps:
        composed = tuple(
            falcon_compose(prev_amb[j], step.rel_positions[j]) for j in range(s)
        )
        if composed != step.amb_positions:
            chain_ok = False
            chain_msg = f"level {step.level}: composition mismatch"
            break
        prev_amb = step.amb_positions
    record("position_chain", chain_ok, chain_msg)

    # --- containments of every comparison map -------------------------------
    cont_ok = True
    cont_msg = ""
    if trace.etas:
        field = trace.etas[0].field
        m = problem.n - r
        for u, eta in enumerate(trace.etas):
            amb_basis = (
                Matrix.identity(field, r) if u == 0 else trace.steps[u - 1].basis_in_ambient
            )
            for j in range(s):
                i_set = problem.index_sets[j].elements
                f_mat = trace.sub_flags[j].matrix
                g_mat = trace.quot_flags[j].matrix
                for a in range(1, r + 1):
                    level_cap = i_set[a - 1] - a
                    inter = _intersection_in_sub_coords(
                        amb_basis, f_mat.prefix_columns(a)
                    )
                    image = eta @ inter
                    if not contained_in(image, g_mat.prefix_columns(min(level_cap, m))):
                        cont_ok = False
                        cont_msg = f"eta_{u}, condition {j + 1}, step {a}"
                        break
                if not cont_ok:
                    break
            if not cont_ok:
                break
    record("containments", cont_ok, cont_msg)

    # --- each comparison map kills exactly the next subspace ----------------
    ker_ok = True
    ker_msg = ""
    for u, eta in enumerate(trace.etas):
        here_dim = r if u == 0 else trace.steps[u - 1].dim
        if u < len(trace.steps):
            next_dim = trace.steps[u].dim
            next_basis = trace.steps[u].basis_in_parent
        else:
            next_dim = 0
            next_basis = None
        if eta.ncols != here_dim:
            ker_ok = False
            ker_msg = f"eta_{u} domain dimension"
            break
        if eta.ncols - eta.rank() != next_dim:
            ker_ok = False
            ker_msg = f"eta_{u} kernel dimension"
            break
        if next_basis is not None and next_basis.ncols and not (eta @ next_basis).is_zero():
            ker_ok = False
            ker_msg = f"eta_{u} does not kill level {u + 1}"
            break
    record("eta_kernels", ker_ok, ker_msg)

    # --- exact rank identity -------------------------------------------------
    try:
        recomputed = rappel_delta(problem.index_sets, trace.terminal_positions)
    except ValueError:
        recomputed = None
    rank_ok = (
        recomputed is not None
        and trace.correction == recomputed
        and trace.hom_dim == trace.expected_dim + trace.correction
        and trace.expected_dim == problem.expected_dim()
    )
    record(
        "rank_formula",
        rank_ok,
        f"hom {trace.hom_dim} = expected {trace.expected_dim} + correction {trace.correction}"
        if rank_ok
        else f"hom {trace.hom_dim} != expected {trace.expected_dim} + correction "
        f"{trace.correction} (recomputed {recomputed})",
    )
    record(
        "hom_lower_bound",
        trace.hom_dim >= max(0, trace.expected_dim),
        f"hom {trace.hom_dim} vs max(0, {trace.expected_dim})",
    )

    # --- the two inequality bounds -------------------------------------------
    if trace.h == 0:
        record("tangent_bound", True, "no level-1 subspace; vacuous")
        record("chain_bound", True, "no level-1 subspace; vacuous")
    else:
        d1 = trace.steps[0].dim
        rel_terminal = _full_positions(s, d1, d1)
        for step in trace.steps[1:]:
            rel_terminal = tuple(
                falcon_compose(rel_terminal[j], step.rel_positions[j]) for j in range(s)
            )
        dim_s_in_v = dim_triple(trace.steps[0].amb_positions)
        dim_t_in_s = dim_triple(rel_terminal)
        dim_t_in_v = dim_triple(trace.terminal_positions)
        tangent1 = trace.steps[0].tangent_dim
        bound = dim_s_in_v + dim_t_in_s - dim_t_in_v
        record(
            "tangent_bound",
            tangent1 <= bound,
            f"tangent {tangent1} <= {dim_s_in_v} + {dim_t_in_s} - {dim_t_in_v}",
        )
        lhs = dim_s_in_v + rappel_delta(problem.index_sets, trace.steps[0].amb_positions)
        rhs = dim_t_in_v - dim_t_in_s + rappel_delta(
            problem.index_sets, trace.terminal_positions
        )
        record("chain_bound", lhs <= rhs, f"{lhs} <= {rhs} (d taken as d_1)")

    ok = all(checks.values())
    return TraceAudit(ok=ok, checks=checks, details=details, note=trace.note)


def _entry_to_json(value, fld: Field):
    if fld.characteristic:
        return int(value)
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def matrix_to_json(mat: Matrix | None):
    if mat is None:
        return None
    return [[_entry_to_json(x, mat.field) for x in row] for row in mat.rows]


def _positions_to_json(positions: tuple[IndexSet, ...]):
    return [list(k.elements) for k in positions]


def trace_to_dict(trace: FiltrationTrace, audit: TraceAudit | None = None) -> dict:
    """A deterministic plain-data rendering of a trace (and its audit)."""
    doc = {
        "problem": trace.problem.text(),
        "n": trace.problem.n,
        "r": trace.problem.r,
        "s": trace.problem.s,
        "field": trace.field_name,
        "seed": trace.seed,
        "hom_dim": trace.hom_dim,
        "expected_dim": trace.expected_dim,
        "correction": trace.correction,
        "termination": trace.termination,
        "h": trace.h,
        "terminal": {
            "dim": trace.terminal_dim,
            "positions": _positions_to_json(trace.terminal_positions),
        },
        "phi": matrix_to_json(trace.phi),
        "sub_flags": [matrix_to_json(f.matrix) for f in trace.sub_flags],
        "quot_flags": [matrix_to_json(g.matrix) for g in trace.quot_flags],
        "steps": [
            {
                "level": step.level,
                "dim": step.dim,
                "rel_positions": _positions_to_json(step.rel_positions),
                "amb_positions": _positions_to_json(step.amb_positions),
                "tangent_dim": step.tangent_dim,
                "basis_in_parent": matrix_to_json(step.basis_in_parent),
                "basis_in_ambient": matrix_to_json(step.basis_in_ambient),
                "psi": matrix_to_json(step.psi),
            }
            for step in trace.steps
        ],
        "etas": [matrix_to_json(e) for e in trace.etas],
        "note": trace.note,
    }
    if audit is not None:
        doc["audit"] = {
            "ok": audit.ok,
            "checks": dict(audit.checks),
            "details": dict(audit.details),
            "note": audit.note,
        }
    return doc
