"""Acceptance sweep: the eight headline checks at their full advertised ranges.

Every check runs at exact thresholds (no tolerances, no sampling shortcuts on
the exhaustive families) and reports one PASS/FAIL line through the
session-level summary.
"""

import itertools
import json
import random

import pytest

from conftest import rank_positions, uniform_flag, uniform_subspace
from fultoncheck import cli, sweeps
from fultoncheck.field import DEFAULT_PRIME, field_from_name
from fultoncheck.filtration import run_filtration_random, verify_trace
from fultoncheck.littlewood import lr_coefficient, lr_coefficient_pieri
from fultoncheck.partitions import (
    Partition,
    SchubertProblem,
    all_index_sets,
    partitions_with,
)
from fultoncheck.positions import (
    cut,
    dim_triple,
    falcon_compose,
    rappel_delta,
)
from fultoncheck.reports import strip_volatile
from fultoncheck.sweeps import (
    SweepConfig,
    cmd_crosscheck,
    cmd_fulton,
    cmd_saturation,
    cmd_semistable,
    enumerate_triples,
    rng_for,
)

MASTER_SEEDS = (101, 202, 303)
PF = field_from_name("prime")


def _record(criterion_lines, number: int, ok: bool, detail: str) -> bool:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    criterion_lines.append(line)
    print(line)
    return ok


def test_triple_family_matches_independent_count():
    """Brute-force recount of the smallest coefficient family (not a criterion)."""
    items = list(enumerate_triples(2, 4))
    brute = 0
    all_parts = [
        tuple(p.parts) for size in range(5) for p in partitions_with(size, 2)
    ]
    for mu in all_parts:
        for nu in all_parts:
            for lam in all_parts:
                if sum(mu) + sum(nu) == sum(lam) and sum(lam) <= 4:
                    brute += 1
    assert len(items) == brute == 71


def test_criterion_1_multiplicity_one_survives_scaling(criterion_lines):
    cfg = SweepConfig(r_max=3, size_max=12, n_list=(2, 3))
    rep = cmd_fulton(cfg)
    ok = (
        rep["ok"]
        and rep["counts"]["failures"] == 0
        and rep["counts"]["instances"] == 19855
    )
    detail = (
        f"{rep['counts']['instances']} triples with <=3 rows and total size <=12, "
        f"scalings {{2,3}}: {rep['counts']['failures']} failures"
    )
    assert _record(criterion_lines, 1, ok, detail)


def test_criterion_2_vanishing_survives_scaling(criterion_lines):
    cfg = SweepConfig(r_max=3, size_max=12, n_list=(2, 3))
    rep = cmd_saturation(cfg)
    ok = (
        rep["ok"]
        and rep["counts"]["failures"] == 0
        and rep["counts"]["instances"] == 19855
    )
    detail = (
        f"{rep['counts']['instances']} triples with <=3 rows and total size <=12, "
        f"scalings {{2,3}}: {rep['counts']['failures']} failures"
    )
    assert _record(criterion_lines, 2, ok, detail)


def test_criterion_3_central_coefficient_by_both_engines(criterion_lines):
    mu = Partition((2, 1))
    lam = Partition((3, 2, 1))
    got = {}
    ok = True
    for factor in (1, 2, 3, 4):
        a = lr_coefficient(mu.scale(factor), mu.scale(factor), lam.scale(factor))
        b = lr_coefficient_pieri(mu.scale(factor), mu.scale(factor), lam.scale(factor))
        got[factor] = (a, b)
        ok = ok and a == b == factor + 1
    detail = (
        "coefficient at (2,1),(2,1)->(3,2,1) scaled by N in {1,2,3,4} equals N+1 "
        f"in both engines: {got}"
    )
    assert _record(criterion_lines, 3, ok, detail)


def test_criterion_4_counts_match_generic_ranks_exhaustively(criterion_lines):
    assert DEFAULT_PRIME == 2**31 - 1
    total = 0
    mismatches = 0
    all_ok = True
    for seed in MASTER_SEEDS:
        cfg = SweepConfig(r_max=3, n_max=6, s_max=4, seed=seed, trials=3, field_name="prime")
        rep = cmd_crosscheck(cfg)
        total += rep["counts"]["instances"]
        mismatches += sum(
            1 for c in rep["counterexamples"] if c["kind"] == "count_rank_mismatch"
        )
        all_ok = all_ok and rep["ok"] and rep["counts"]["instances"] == 560
    ok = all_ok and mismatches == 0
    detail = (
        f"{total} problem instances (560 expected-dimension-zero problems x "
        f"seeds {MASTER_SEEDS}), prime 2^31-1, 3 trials: {mismatches} disagreements"
    )
    assert _record(criterion_lines, 4, ok, detail)


def test_criterion_5_filtration_traces_audit_green(criterion_lines):
    rng = random.Random(4242)
    total = 0
    negative = 0
    failures = []
    while total < 220:
        n = rng.randint(2, 7)
        r = rng.randint(1, min(3, n - 1))
        s = rng.randint(1, 4)
        sets = all_index_sets(n, r)
        problem = SchubertProblem(n, r, tuple(rng.choice(sets) for _ in range(s)))
        total += 1
        if problem.expected_dim() < 0:
            negative += 1
        trace = run_filtration_random(
            problem, rng_for(4242, f"c5:{total}:{problem.text()}"), PF, trials=3, seed=4242
        )
        audit = verify_trace(trace)
        core = (
            audit.checks["shape_consistency"]
            and audit.checks["strict_descent"]
            and audit.checks["rank_formula"]
        )
        if not (core and audit.ok):
            failures.append((problem.text(), [k for k, v in audit.checks.items() if not v]))
    fixture = run_filtration_random(
        SchubertProblem.parse("1,4@4;2,3@4"), rng_for(4242, "c5:fixture"), PF, trials=3
    )
    fixture_ok = (
        fixture.correction == 1
        and fixture.hom_dim == 1
        and tuple(k.elements for k in fixture.terminal_positions) == ((1,), (2,))
    )
    ok = total >= 200 and negative >= 30 and not failures and fixture_ok
    detail = (
        f"{total} sampled problems (r<=3, n<=7, {negative} with negative expected "
        f"dimension): {len(failures)} audit failures; worked fixture correction = "
        f"{fixture.correction}"
    )
    assert _record(criterion_lines, 5, ok, detail)


def test_criterion_6_chain_identities_hold_exactly(criterion_lines):
    rng = random.Random(606)
    checked = 0
    bad = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        d = rng.randint(1, r)
        s = rng.randint(1, 3)
        v = uniform_subspace(PF, n, r, rng)
        w_in_v = uniform_subspace(PF, r, d, rng)
        w = v @ w_in_v
        flags = [uniform_flag(PF, n, rng) for _ in range(s)]
        i_sets, inner, _, _ = cut(tuple(flags), v)
        ranked = tuple(rank_positions(v, e) for e in flags)
        k_sets = cut(inner, w_in_v)[0]
        direct = tuple(rank_positions(w, e) for e in flags)
        composed = tuple(falcon_compose(i, k) for i, k in zip(i_sets, k_sets))
        ledger = dim_triple(k_sets) - dim_triple(direct) == rappel_delta(i_sets, k_sets)
        checked += 1
        if i_sets != ranked or composed != direct or not ledger:
            bad += 1
    ok = checked == 1000 and bad == 0
    detail = f"{checked} random flagged chains: {bad} violations of position, composition or dimension ledger"
    assert _record(criterion_lines, 6, ok, detail)


def test_criterion_7_solvable_problems_are_semistable(criterion_lines):
    cfg = SweepConfig(r_max=3, n_max=6, s_max=4, seed=MASTER_SEEDS[0])
    rep = cmd_semistable(cfg)
    ok = (
        rep["ok"]
        and rep["counts"]["failures"] == 0
        and rep["counts"]["instances"] == 393
        and rep["extra"]["max_clincher"] is not None
        and rep["extra"]["max_clincher"] <= 0
    )
    detail = (
        f"{rep['counts']['instances']} solvable problems: weights semistable, "
        f"largest destabilization margin {rep['extra']['max_clincher']}"
    )
    assert _record(criterion_lines, 7, ok, detail)


def test_criterion_8_determinism_and_planted_corruption(
    criterion_lines, tmp_path, monkeypatch
):
    argv = [
        "crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3", "--seed", "31",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = cli.main(argv + ["--out", str(out_a)])
    code_b = cli.main(argv + ["--out", str(out_b)])
    rep_a = json.loads(out_a.read_text())
    rep_b = json.loads(out_b.read_text())
    deterministic = (
        code_a == code_b == 0 and strip_volatile(rep_a) == strip_volatile(rep_b)
    )

    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        value = real(mu, nu, lam)
        if (mu.parts, nu.parts, lam.parts) == (
            (2, 1), (2, 1), (3, 2, 1),
        ):
            return 1
        return value

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    out_c = tmp_path / "c.json"
    code_c = cli.main(
        ["fulton", "--r-max", "3", "--size-max", "6", "--n-list", "2",
         "--out", str(out_c)]
    )
    rep_c = json.loads(out_c.read_text())
    caught = (
        code_c == 1
        and rep_c["ok"] is False
        and rep_c["counts"]["failures"] >= 1
        and any(
            c["mu"] == "2,1" and c["nu"] == "2,1" and c["lam"] == "3,2,1"
            for c in rep_c["counterexamples"]
        )
    )
    ok = deterministic and caught
    detail = (
        f"repeated runs byte-identical modulo wall time: {deterministic}; "
        f"planted coefficient corruption exits 1 with serialized counterexample: {caught}"
    )
    assert _record(criterion_lines, 8, ok, detail)
