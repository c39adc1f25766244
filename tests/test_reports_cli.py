"""Report schema, sweep plumbing, and the command-line interface."""

import json
import os
import random
from itertools import combinations_with_replacement

import pytest

from fultoncheck import cli, sweeps
from fultoncheck.partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    all_index_sets,
    partitions_with,
)
from fultoncheck.reports import (
    make_report,
    strip_volatile,
    to_csv_str,
    to_json_str,
    write_text,
)
from fultoncheck.sweeps import (
    ConfigError,
    SweepConfig,
    cmd_crosscheck,
    cmd_fulton,
    derive_seed,
    enumerate_problems,
    enumerate_triples,
    rng_for,
)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _dummy_report(**overrides):
    kwargs = dict(
        command="fulton",
        config={"r_max": 2},
        field_name="prime",
        seed=1,
        seed_source="default",
        instances=10,
        failures=0,
        counterexamples=[],
        extra={"triples": 10},
        wall_time_s=0.5,
    )
    kwargs.update(overrides)
    return make_report(**kwargs)


def test_report_shape_and_counts():
    rep = _dummy_report()
    assert rep["schema_version"] == 1
    assert rep["tool"]["name"] == "fultoncheck"
    assert rep["counts"] == {"instances": 10, "passes": 10, "failures": 0}
    assert rep["ok"] is True
    assert rep["generator"] == "python-random:mt19937"


def test_report_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        _dummy_report(failures=1, counterexamples=[])
    with pytest.raises(ValueError):
        _dummy_report(failures=0, counterexamples=[{"kind": "x"}])
    with pytest.raises(ValueError):
        _dummy_report(failures=11)


def test_json_is_sorted_and_stable():
    rep = _dummy_report()
    text = to_json_str(rep)
    assert text.endswith("\n")
    assert json.loads(text) == rep
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_strip_volatile_removes_only_wall_time():
    rep = _dummy_report()
    bare = strip_volatile(rep)
    assert "wall_time_s" not in bare
    rep2 = dict(rep)
    rep2.pop("wall_time_s")
    assert bare == rep2


def test_csv_has_single_summary_row():
    rep = _dummy_report()
    lines = to_csv_str(rep).strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[:3] == ["command", "field", "seed"]
    assert lines[1].split(",")[0] == "fulton"


def test_write_text_is_atomic_replace(tmp_path):
    path = tmp_path / "out.json"
    write_text(str(path), "first\n")
    write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_write_text_mode_follows_umask(tmp_path, umask, mode):
    """Reports and checkpoints get the mode a plain `open` would give them."""
    path = tmp_path / "report.json"
    saved = os.umask(umask)
    try:
        write_text(str(path), "{}\n")
    finally:
        os.umask(saved)
    assert path.stat().st_mode & 0o777 == mode


# ---------------------------------------------------------------------------
# Sweep plumbing
# ---------------------------------------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    a = rng_for(9, "x").random()
    b = rng_for(9, "x").random()
    assert a == b


def test_triple_enumeration_count_and_order():
    items = list(enumerate_triples(2, 4))
    assert len(items) == 71
    sizes = [mu.size + nu.size for mu, nu, _ in items]
    assert sizes == sorted(sizes)
    for mu, nu, lam in items:
        assert lam.size == mu.size + nu.size


def test_triple_enumeration_matches_nested_generators_and_shares_partitions():
    nested = [
        (mu, nu, lam)
        for total in range(9)
        for mu_size in range(total + 1)
        for mu in partitions_with(mu_size, 3)
        for nu in partitions_with(total - mu_size, 3)
        for lam in partitions_with(total, 3)
    ]
    items = list(enumerate_triples(3, 8))
    assert items == nested
    shared: dict[Partition, Partition] = {}
    for triple in items:
        for part in triple:
            assert shared.setdefault(part, part) is part


def test_problem_enumeration_is_zero_expected_and_proper():
    probs = list(enumerate_problems(3, 6, 4))
    assert len(probs) == 560
    for p in probs:
        assert p.expected_dim() == 0
        assert 1 <= p.r < p.n


def test_problem_enumeration_order_matches_brute_force():
    brute = []
    for n in range(2, 8):
        for r in range(1, min(4, n - 1) + 1):
            sets = all_index_sets(n, r)
            for s in range(1, 5):
                for combo in combinations_with_replacement(sets, s):
                    if sum(ix.codim() for ix in combo) == r * (n - r):
                        brute.append(SchubertProblem(n, r, combo))
    assert len(brute) == 3021
    assert list(enumerate_problems(4, 7, 4)) == brute


def test_config_validation():
    SweepConfig().validate()
    with pytest.raises(ConfigError):
        SweepConfig(r_max=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(n_list=()).validate()
    with pytest.raises(ConfigError):
        SweepConfig(field_name="octonions").validate()
    with pytest.raises(ConfigError):
        SweepConfig(trials=0).validate()


def test_fulton_sweep_small_fixture():
    rep = cmd_fulton(SweepConfig(r_max=2, size_max=4, n_list=(2, 3)))
    assert rep["ok"] is True
    assert rep["counts"] == {"instances": 71, "passes": 71, "failures": 0}


def test_crosscheck_checkpoint_resume_is_byte_identical(tmp_path):
    ck = str(tmp_path / "ck.json")
    cfg = SweepConfig(r_max=2, n_max=4, s_max=2, seed=5, checkpoint=ck)
    first = cmd_crosscheck(cfg)
    assert os.path.exists(ck)
    resumed = cmd_crosscheck(cfg)
    assert strip_volatile(first) == strip_volatile(resumed)


def test_checkpoint_with_other_config_is_ignored(tmp_path):
    ck = str(tmp_path / "ck.json")
    cfg_a = SweepConfig(r_max=2, n_max=4, s_max=2, seed=5, checkpoint=ck)
    cmd_crosscheck(cfg_a)
    cfg_b = SweepConfig(r_max=2, n_max=5, s_max=2, seed=5, checkpoint=ck)
    rep_b = cmd_crosscheck(cfg_b)
    fresh = cmd_crosscheck(SweepConfig(r_max=2, n_max=5, s_max=2, seed=5))
    assert strip_volatile(rep_b) == strip_volatile(fresh)


def test_checkpoint_with_forged_next_index_is_ignored(tmp_path, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, size_max=4, checkpoint=str(ck))
    cmd_fulton(cfg)
    saved = json.loads(ck.read_text())

    def corrupted(mu, nu, lam):
        if (mu.trimmed().parts, nu.trimmed().parts, lam.trimmed().parts) == ((1,), (1,), (1, 1)):
            return 2
        return real(mu, nu, lam)

    # A forged checkpoint must not let a sweep pass with nothing checked.
    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    fresh = strip_volatile(cmd_fulton(SweepConfig(r_max=2, size_max=4)))
    assert fresh["ok"] is False
    for forged in (10**9, -1, "3"):
        ck.write_text(json.dumps({**saved, "next_index": forged}))
        assert strip_volatile(cmd_fulton(cfg)) == fresh


def test_checkpoint_for_other_instances_is_ignored(tmp_path, monkeypatch):
    ck = str(tmp_path / "ck.json")
    cfg = SweepConfig(r_max=2, n_max=4, s_max=2, seed=5, checkpoint=ck)
    problems = list(enumerate_problems(2, 4, 2))
    cmd_crosscheck(cfg)
    # Same configuration and length, different instances: the checkpoint
    # from the first list must not be resumed for the second.
    changed = [problems[-1]] * len(problems)
    monkeypatch.setattr(sweeps, "enumerate_problems", lambda *args: iter(changed))
    resumed = cmd_crosscheck(cfg)
    fresh = cmd_crosscheck(SweepConfig(r_max=2, n_max=4, s_max=2, seed=5))
    assert strip_volatile(resumed) == strip_volatile(fresh)


def test_checkpoint_fingerprint_covers_version_and_items(monkeypatch):
    import fultoncheck

    cfg = SweepConfig()
    items = list(enumerate_problems(2, 4, 2))
    base = sweeps._config_fingerprint("crosscheck", cfg, items)
    assert sweeps._config_fingerprint("crosscheck", cfg, items[::-1]) != base
    monkeypatch.setattr(fultoncheck, "__version__", "0.0.0-other")
    assert sweeps._config_fingerprint("crosscheck", cfg, items) != base


def test_planted_corruption_is_caught(monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        value = real(mu, nu, lam)
        key = (mu.trimmed().parts, nu.trimmed().parts, lam.trimmed().parts)
        if key == ((2,), (1, 1), (2, 1, 1)):
            return 0  # pretend a genuinely positive coefficient vanishes
        return value

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    rep = sweeps.cmd_saturation(SweepConfig(r_max=3, size_max=4, n_list=(2,)))
    assert rep["ok"] is False
    kinds = {c["kind"] for c in rep["counterexamples"]}
    assert kinds == {"vanishing_not_preserved"}
    hit = rep["counterexamples"][0]
    assert hit["mu"] == "2" and hit["nu"] == "1,1" and hit["lam"] == "2,1,1"


def test_positive_clinchers_are_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "clincher", lambda problem, positions: 1)
    out = tmp_path / "report.json"
    argv = ["semistable", "--r-max", "3", "--n-max", "5", "--s-max", "3", "--out", str(out)]
    assert cli.main(argv) == 1
    rep = json.loads(out.read_text())
    assert rep["ok"] is False
    assert rep["extra"]["max_clincher"] == 1
    positive = [c for c in rep["counterexamples"] if c["kind"] == "positive_clincher"]
    assert positive
    for rec in positive:
        assert rec["value"] == 1
        assert 1 <= rec["d"] < 3
        problem = SchubertProblem.parse(rec["problem"])
        assert len(rec["positions"]) == problem.s
        for text in rec["positions"]:
            ix = IndexSet.parse(text)
            assert (ix.text(), ix.n, ix.r) == (text, problem.r, rec["d"])
    kinds = {c["kind"] for c in rep["counterexamples"]}
    assert kinds == {"positive_clincher", "slope_clincher_disagreement"}
    disagreement = next(
        c for c in rep["counterexamples"] if c["kind"] == "slope_clincher_disagreement"
    )
    assert disagreement["semistable"] is True
    assert disagreement["all_clinchers_nonpositive"] is False


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_fulton_json(capsys):
    code, out = _run_cli(capsys, ["fulton", "--r-max", "2", "--size-max", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "fulton"
    assert rep["ok"] is True
    assert rep["seed_source"] == "default"


def test_cli_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("FULTONCHECK_SEED", "55")
    code, out = _run_cli(capsys, ["fulton", "--r-max", "1", "--size-max", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] == 55 and rep["seed_source"] == "env"
    code, out = _run_cli(
        capsys, ["fulton", "--r-max", "1", "--size-max", "2", "--seed", "7"]
    )
    rep = json.loads(out)
    assert rep["seed"] == 7 and rep["seed_source"] == "flag"


def test_cli_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FULTONCHECK_SEED", "not-a-number")
    code, _ = _run_cli(capsys, ["fulton", "--r-max", "1", "--size-max", "2"])
    assert code == 2


def test_cli_rejects_bad_flags(capsys):
    assert cli.main(["fulton", "--no-such-flag"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["fulton", "--r-max", "0"]) == 2


def test_cli_csv_output(capsys):
    code, out = _run_cli(
        capsys, ["fulton", "--r-max", "1", "--size-max", "2", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("command,field,seed")


def test_cli_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out = _run_cli(
        capsys,
        ["crosscheck", "--r-max", "2", "--n-max", "4", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    rep = json.loads(out_path.read_text())
    assert rep["command"] == "crosscheck"
    assert rep["ok"] is True


def test_cli_runs_are_deterministic_modulo_wall_time(capsys):
    argv = ["crosscheck", "--r-max", "2", "--n-max", "5", "--seed", "31"]
    code_a, out_a = _run_cli(capsys, argv)
    code_b, out_b = _run_cli(capsys, argv)
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert strip_volatile(a) == strip_volatile(b)


def test_cli_filtration_reports_trace(capsys):
    code, out = _run_cli(
        capsys, ["filtration", "--problem", "1,4@4;2,3@4", "--seed", "3"]
    )
    assert code == 0
    rep = json.loads(out)
    trace = rep["extra"]["trace"]
    assert trace["hom_dim"] == 1
    assert trace["correction"] == 1
    assert trace["audit"]["ok"] is True


def test_cli_filtration_rejects_malformed_problem(capsys):
    assert cli.main(["filtration", "--problem", "zebra"]) == 2


def test_cli_lr_dual_engine(capsys):
    code, out = _run_cli(
        capsys, ["lr", "--mu", "2,1", "--nu", "2,1", "--lam", "3,2,1"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["extra"]["coefficient"] == 2
    assert rep["extra"]["tableau_engine"] == rep["extra"]["pieri_engine"] == 2


def test_cli_corrupted_engine_exits_one(capsys, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        value = real(mu, nu, lam)
        key = (mu.trimmed().parts, nu.trimmed().parts, lam.trimmed().parts)
        if key == ((2, 1), (2, 1), (3, 2, 1)):
            return 1
        return value

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    code, out = _run_cli(
        capsys, ["fulton", "--r-max", "3", "--size-max", "6", "--n-list", "2"]
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["counterexamples"]
    hit = rep["counterexamples"][0]
    assert hit["mu"] == "2,1" and hit["lam"] == "3,2,1"
    assert hit["coefficient"] == 1 and hit["coefficient_scaled"] == 3


def test_cli_crosscheck_small_prime_reports_run_errors(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code = cli.main(
        ["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3",
         "--field", "prime:3", "--seed", "1", "--out", str(out_path)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    rep = json.loads(out_path.read_text())
    assert rep["ok"] is False
    assert rep["counts"]["instances"] == 69
    # Over F_3 some samples never stabilize (run_error); others settle on a
    # non-generic value, which the other checks report.
    errors = [c for c in rep["counterexamples"] if c["kind"] == "run_error"]
    assert all(set(c) == {"kind", "index", "problem", "error"} for c in errors)
    assert "2@4;3@4" in {c["problem"] for c in errors}
