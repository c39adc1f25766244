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
from math import gcd, lcm
from random import Random

from .field import Field, SolverFault
from .homspace import (
    DEFAULT_TRIALS,
    HomSystem,
    build_system,
    random_flag_tuples,
    sample_generic,
    stabilized_min,
)
from .linalg import Flag, Matrix
from .partitions import IndexSet, SchubertProblem
from .positions import cut, dim_triple, falcon_compose, rappel_delta

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


class FiltrationError(SolverFault):
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
    """What one run computed; the terminal data and the correction derive from it."""

    problem: SchubertProblem
    sub_flags: tuple[Flag, ...]
    quot_flags: tuple[Flag, ...]
    hom_dim: int
    phi: Matrix | None
    steps: tuple[FiltrationStep, ...]
    etas: tuple[Matrix, ...]
    seed: int | None = None

    @property
    def h(self) -> int:
        return len(self.steps)

    @property
    def termination(self) -> str:
        if not self.steps:
            return TERMINATION_NO_MAPS if self.phi is None else TERMINATION_INJECTIVE
        if self.steps[-1].dim == 0:
            return TERMINATION_KERNEL_VANISHED
        return TERMINATION_TANGENT_ZERO

    @property
    def terminal_dim(self) -> int:
        """The last level's dimension; with no level, V's (no maps) or 0 (phi injective)."""
        if self.steps:
            return self.steps[-1].dim
        return self.problem.r if self.phi is None else 0

    @property
    def terminal_positions(self) -> tuple[IndexSet, ...]:
        if self.steps:
            return self.steps[-1].amb_positions
        return _full_positions(self.problem.s, self.problem.r, self.terminal_dim)

    @property
    def correction(self) -> int:
        return rappel_delta(self.problem.index_sets, self.terminal_positions)

    @property
    def expected_dim(self) -> int:
        return self.problem.expected_dim()

    @property
    def field_name(self) -> str:
        return self.sub_flags[0].field.name


def _generic_kernel_element(system: HomSystem, rng: Random, trials: int, context: str) -> Matrix:
    """A sampled map whose kernel dimension equals the stabilized generic one."""
    drawn: list[tuple[int, Matrix]] = []

    def draw() -> int:
        candidate = sample_generic(system, rng)
        k = candidate.ncols - candidate.rank()
        drawn.append((k, candidate))
        return k

    dim = stabilized_min(draw, trials, context=context).dim
    return next(mat for k, mat in drawn if k == dim)


def _full_positions(s: int, n: int, d: int) -> tuple[IndexSet, ...]:
    return tuple(IndexSet(n, tuple(range(1, d + 1))) for _ in range(s))


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

    def done(phi: Matrix | None, steps=(), etas=()) -> FiltrationTrace:
        return FiltrationTrace(problem, sub_flags, quot_flags, system.dim, phi,
                               tuple(steps), tuple(etas), seed)

    if system.dim == 0:
        # The only constrained map is zero; the chain never starts and the
        # terminal level is V itself (full positions).
        return done(None)

    phi = _generic_kernel_element(
        system, rng, trials, context=f"initial map for {problem.text()}"
    )
    if phi.ncols - phi.rank() == 0:
        return done(phi, etas=[phi])

    steps: list[FiltrationStep] = []
    etas: list[Matrix] = [phi]
    parent_flags = sub_flags
    parent_basis_ambient = Matrix.identity(system.field, r)
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
        rel_positions, rel_subs, rel_quots, comp = cut(parent_flags, basis_in_parent)
        amb_positions = tuple(
            falcon_compose(prev_amb[j], rel_positions[j]) for j in range(s)
        )

        tangent_dim, psi = 0, None
        if d > 0:
            rel_problem = SchubertProblem(basis_in_parent.nrows, d, rel_positions)
            tangent = build_system(rel_problem, rel_subs, rel_quots)
            tangent_dim = tangent.dim
            if tangent_dim > 0:
                psi = _generic_kernel_element(
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
            return done(phi, steps, etas)
        eta_prev = eta_prev @ comp @ psi
        etas.append(eta_prev)
        parent_flags = rel_subs
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
    checks: dict[str, bool] = dc_field(default_factory=dict)
    details: dict[str, str] = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, passed in self.checks.items() if not passed]


def _lowest_rows(coords: Matrix) -> tuple[list[int], Matrix] | None:
    """Column-reduce `coords` until its columns' lowest nonzero rows are distinct.

    Returns (lows, t): t is invertible and column k of coords @ t has its
    lowest nonzero entry in row lows[k] (0-based). None means a column
    reduced to zero, so the columns of `coords` are dependent. This is the
    audit's own elimination, sharing nothing with `rowred`: a column is
    cleared against the earlier one with the same lowest row as
    pv * col - f * pcol, and over Q every column starts scaled to integers
    and stays primitive together with its column of t.
    """
    field = coords.field
    p = field.p
    n, d = coords.nrows, coords.ncols
    by_low: dict[int, tuple[list, list]] = {}
    for k in range(d):
        col = [row[k] for row in coords.rows]
        unit = [0] * d
        scale = 1 if p else lcm(*[x.denominator for x in col])
        if scale > 1:  # Q: clear the denominators of the entries
            col = [x.numerator * (scale // x.denominator) for x in col]
        unit[k] = scale
        low = next((i for i in range(n - 1, -1, -1) if col[i]), -1)
        while low in by_low:
            pcol, punit = by_low[low]
            pv, f = pcol[low], col[low]
            col = [pv * x - f * y for x, y in zip(col, pcol)]
            unit = [pv * x - f * y for x, y in zip(unit, punit)]
            if p:
                col = [x % p for x in col]
                unit = [x % p for x in unit]
            else:
                g = gcd(*col, *unit)
                if g > 1:
                    col = [x // g for x in col]
                    unit = [x // g for x in unit]
            low = next((i for i in range(low - 1, -1, -1) if col[i]), -1)
        if low < 0:
            return None
        by_low[low] = (col, unit)
    units = [unit for _, unit in by_low.values()]
    lows = list(by_low)
    return lows, Matrix(field, d, d, tuple(zip(*units)) if units else ())


def _shape_consistency(trace: FiltrationTrace) -> tuple[bool, str]:
    problem = trace.problem
    r, s = problem.r, problem.s
    shape_problems: list[str] = []
    if len(trace.sub_flags) != s or len(trace.quot_flags) != s:
        shape_problems.append("flag tuple lengths")
    for f in trace.sub_flags:
        if f.n != r:
            shape_problems.append("sub flag dimension")
    for g in trace.quot_flags:
        if g.n != problem.n - r:
            shape_problems.append("quotient flag dimension")
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
    if trace.steps and trace.steps[-1].tangent_dim != 0:
        shape_problems.append("terminating level with nonzero tangent")
    expected_etas = {TERMINATION_NO_MAPS: 0, TERMINATION_INJECTIVE: 1}
    if len(trace.etas) != expected_etas.get(trace.termination, trace.h):
        shape_problems.append("comparison map count")
    if trace.termination == TERMINATION_NO_MAPS and trace.hom_dim != 0:
        shape_problems.append("no_maps termination with nonzero solution space")
    return not shape_problems, "; ".join(shape_problems) or "ok"


def _strict_descent(trace: FiltrationTrace) -> tuple[bool, str]:
    r = trace.problem.r
    dims = [step.dim for step in trace.steps]
    if trace.h > r:
        return False, "chain longer than the rank bound"
    if 0 in dims[:-1]:
        return False, "interior zero level"
    seq = [r, *dims]
    if any(b >= a for a, b in zip(seq, seq[1:])):
        return False, f"non-strict descent {seq}"
    return True, "ok"


def _terminal_dim_zero(trace: FiltrationTrace) -> tuple[bool, str]:
    value = dim_triple(trace.terminal_positions)
    return value == 0, f"dim_triple(terminal) = {value}"


def _positions_geometric(trace: FiltrationTrace) -> tuple[bool, str]:
    """Ambient bases compose and have full rank; positions are read off lowest rows.

    With F^-1 certified, the columns of F^-1 @ basis reduced to distinct
    lowest rows prove the basis has full rank d, and dim(S cap F_u) jumps
    exactly at those rows plus one.
    """
    if not trace.steps:
        return True, "ok"
    r = trace.problem.r
    parent = Matrix.identity(trace.steps[0].basis_in_parent.field, r)
    for step in trace.steps:
        if step.basis_in_ambient != parent @ step.basis_in_parent:
            return False, f"level {step.level}: ambient basis is not parent @ basis_in_parent"
        amb = []
        for j, flag in enumerate(trace.sub_flags):
            f_inv = flag._certified_inverse()
            if f_inv is None:
                return False, f"sub flag {j + 1}: stored inverse is not its inverse"
            reduced = _lowest_rows(f_inv @ step.basis_in_ambient)
            if reduced is None:
                return False, f"level {step.level}: parent basis columns are dependent"
            amb.append(IndexSet(r, tuple(sorted(low + 1 for low in reduced[0]))))
        if tuple(amb) != step.amb_positions:
            return False, f"level {step.level}: ambient positions differ"
        parent = step.basis_in_ambient
    return True, "ok"


def _position_chain(trace: FiltrationTrace) -> tuple[bool, str]:
    r, s = trace.problem.r, trace.problem.s
    prev_amb = _full_positions(s, r, r)
    for step in trace.steps:
        composed = tuple(falcon_compose(prev_amb[j], step.rel_positions[j]) for j in range(s))
        if composed != step.amb_positions:
            return False, f"level {step.level}: composition mismatch"
        prev_amb = step.amb_positions
    return True, "ok"


def _containments(trace: FiltrationTrace) -> tuple[bool, str]:
    """eta_u(S^(u) cap F^j_a) <= G^j_{i^j_a - a} for every map, condition and step.

    Once per (level, condition), the basis of S^(u) is reduced in F^j's
    coordinates to columns with distinct lowest rows (`_lowest_rows`):
    S^(u) cap F^j_a is spanned by the columns whose lowest row is below a,
    and their images must vanish in the rows of (G^j)^-1 eta_u from
    i^j_a - a on. Both stored inverses are certified first.
    """
    problem = trace.problem
    r, m = problem.r, problem.n - problem.r
    for u, eta in enumerate(trace.etas):
        for j in range(problem.s):
            i_set = problem.index_sets[j].elements
            f_inv = trace.sub_flags[j]._certified_inverse()
            g_inv = trace.quot_flags[j]._certified_inverse()
            if f_inv is None or g_inv is None:
                kind = "sub" if f_inv is None else "quotient"
                return False, f"{kind} flag {j + 1}: stored inverse is not its inverse"
            if u:
                reduced = _lowest_rows(f_inv @ trace.steps[u - 1].basis_in_ambient)
                if reduced is None:
                    return False, f"eta_{u}: level {u} basis columns are dependent"
                lows, t = reduced
            else:  # S^(0) = V, and F^j's own columns are adapted to F^j
                lows, t = range(r), trace.sub_flags[j].matrix
            image = g_inv @ eta @ t
            for a in range(1, r + 1):
                level = min(i_set[a - 1] - a, m)
                inside = [k for k, low in enumerate(lows) if low < a]
                if any(row[k] for row in image.rows[level:] for k in inside):
                    return False, f"eta_{u}, condition {j + 1}, step {a}"
    return True, "ok"


def _eta_kernels(trace: FiltrationTrace) -> tuple[bool, str]:
    """Each comparison map kills exactly the next subspace."""
    for u, eta in enumerate(trace.etas):
        here_dim = trace.problem.r if u == 0 else trace.steps[u - 1].dim
        nxt = trace.steps[u] if u < len(trace.steps) else None
        if eta.ncols != here_dim:
            return False, f"eta_{u} domain dimension"
        if eta.ncols - eta.rank() != (0 if nxt is None else nxt.dim):
            return False, f"eta_{u} kernel dimension"
        basis = None if nxt is None else nxt.basis_in_parent
        if basis is not None and basis.ncols and not (eta @ basis).is_zero():
            return False, f"eta_{u} does not kill level {u + 1}"
    return True, "ok"


def _rank_formula(trace: FiltrationTrace) -> tuple[bool, str]:
    correction, hom, expected = trace.correction, trace.hom_dim, trace.expected_dim
    ok = hom == expected + correction
    return ok, f"hom {hom} {'=' if ok else '!='} expected {expected} + correction {correction}"


def _hom_lower_bound(trace: FiltrationTrace) -> tuple[bool, str]:
    hom, expected = trace.hom_dim, trace.expected_dim
    return hom >= max(0, expected), f"hom {hom} vs max(0, {expected})"


def _bounds(trace: FiltrationTrace) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """The tangent bound and the chain bound, with d = d_1."""
    if trace.h == 0:
        vacuous = (True, "no level-1 subspace; vacuous")
        return vacuous, vacuous
    problem, first = trace.problem, trace.steps[0]
    s = problem.s
    rel_terminal = _full_positions(s, first.dim, first.dim)
    for step in trace.steps[1:]:
        rel_terminal = tuple(
            falcon_compose(rel_terminal[j], step.rel_positions[j]) for j in range(s)
        )
    dim_s_in_v = dim_triple(first.amb_positions)
    dim_t_in_s = dim_triple(rel_terminal)
    dim_t_in_v = dim_triple(trace.terminal_positions)
    lhs = dim_s_in_v + rappel_delta(problem.index_sets, first.amb_positions)
    rhs = dim_t_in_v - dim_t_in_s + rappel_delta(problem.index_sets, trace.terminal_positions)
    return (
        (
            first.tangent_dim <= dim_s_in_v + dim_t_in_s - dim_t_in_v,
            f"tangent {first.tangent_dim} <= {dim_s_in_v} + {dim_t_in_s} - {dim_t_in_v}",
        ),
        (lhs <= rhs, f"{lhs} <= {rhs} (d taken as d_1)"),
    )


# The audit's checks in report order: the names each function reports, and
# the function, which returns one (passed, detail) per name.
_CHECKS = (
    (("shape_consistency",), _shape_consistency),
    (("strict_descent",), _strict_descent),
    (("terminal_dim_zero",), _terminal_dim_zero),
    (("positions_geometric",), _positions_geometric),
    (("position_chain",), _position_chain),
    (("containments",), _containments),
    (("eta_kernels",), _eta_kernels),
    (("rank_formula",), _rank_formula),
    (("hom_lower_bound",), _hom_lower_bound),
    (("tangent_bound", "chain_bound"), _bounds),
)


def verify_trace(trace: FiltrationTrace) -> TraceAudit:
    """Re-check every verifiable claim of a completed trace, exactly.

    Checks, in order: recorded shapes are coherent; dimensions strictly
    descend; the terminal level solves a rigid problem (dim_triple = 0);
    ambient bases compose, have full rank and sit in their recorded ambient
    positions; the position chain composes exactly, pinning each relative
    position K as falcon_compose(I, K) is injective in K; every comparison
    map eta_u satisfies all step containments and has the next subspace as
    its exact kernel; the rank identity hom = expected + correction holds;
    and the two inequality bounds (tangent bound and the chain bound with
    d = d_1) hold.

    Ranks, positions and containments are checked by certificate, with no
    row reduction and nothing shared with the run's `positions.cut`: each
    flag's stored inverse passes one product (`Flag._certified_inverse`),
    and each level basis, in each sub flag's coordinates, is brought to
    columns with distinct lowest rows by the audit's own elimination
    (`_lowest_rows`). Only the kernel dimension of eta_u is still a rank.

    The audit never raises: the arithmetic is exact, so an exception in a
    check is a malformed trace, and every name that check reports fails with
    the detail `malformed trace: <error>`.
    """
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}
    for names, check in _CHECKS:
        try:
            results = check(trace)
        except Exception as exc:
            results = ((False, f"malformed trace: {exc}"),) * len(names)
        else:
            if len(names) == 1:
                results = (results,)
        for name, (passed, detail) in zip(names, results):
            checks[name] = passed
            details[name] = detail
    return TraceAudit(checks, details)


def _entry_to_json(value, fld: Field):
    if fld.p:
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
        "note": STOP_RULE_NOTE,
    }
    if audit is not None:
        doc["audit"] = {
            "ok": audit.ok,
            "checks": dict(audit.checks),
            "details": dict(audit.details),
            "note": STOP_RULE_NOTE,
        }
    return doc
