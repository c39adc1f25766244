"""Report schema, sweep plumbing, and the command-line interface."""

import ast
import json
import os
import random
import stat
import subprocess
import sys
from itertools import combinations_with_replacement, islice
from pathlib import Path

import pytest

from fultoncheck import cli, cohomology, homspace, semistability, sweeps
from fultoncheck.cohomology import intersection_number, nonvanishing_positions
from fultoncheck.homspace import MAX_TOTAL_TRIALS
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
# Package exports
# ---------------------------------------------------------------------------


def test_package_exports_resolve_once():
    import fultoncheck

    assert len(fultoncheck.__all__) == len(set(fultoncheck.__all__))
    missing = [name for name in fultoncheck.__all__ if not hasattr(fultoncheck, name)]
    assert missing == []


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with these arguments, the package taken from its
    source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


# Every name is read twice, by `import *` and by attribute, in a new
# interpreter, where the package has loaded nothing before.
_LAZY_SURFACE = """
import json, sys
import fultoncheck
loaded = sorted(m for m in sys.modules if m.startswith("fultoncheck."))
star = {}
exec("from fultoncheck import *", star)
wrong = []
for name in fultoncheck.__all__:
    value = getattr(fultoncheck, name)
    home = "fultoncheck" if name == "__version__" else getattr(value, "__module__", None)
    home = sys.modules["fultoncheck.field" if name == "DEFAULT_PRIME" else home]
    if not (value is vars(home)[name] is star[name]):
        wrong.append(name)
print(json.dumps({"loaded_by_import": loaded, "wrong": wrong}))
"""


def test_package_names_resolve_on_first_use():
    done = _run_fresh("-c", _LAZY_SURFACE)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded_by_import": [], "wrong": []}


def test_package_dir_and_unknown_names():
    import fultoncheck

    assert set(fultoncheck.__all__) <= set(dir(fultoncheck))
    with pytest.raises(AttributeError, match="no_such_name"):
        fultoncheck.no_such_name
    with pytest.raises(ImportError):
        from fultoncheck import no_such_name  # noqa: F401


_LINALG_MODULES = {f"fultoncheck.{m}" for m in
                   ("filtration", "homspace", "linalg", "positions", "rowred")}
_SOLVING_MODULES = {*_LINALG_MODULES, "fultoncheck.cohomology", "fultoncheck.semistability"}
_TINY_SCALING = ("--r-max", "1", "--size-max", "2")
# No command loads OpenSSL (`_hashlib`); one that hashes nothing loads no BLAKE2
# (`_blake2`), and one that hashes loads it.
_HASHING = {"_hashlib", "_blake2"}


def _modules_loaded(route: str, argv: list[str]) -> set[str]:
    """The modules one command run imports, in a new interpreter: through
    `python -m fultoncheck.cli` (read off `-X importtime`) or through
    `fultoncheck.cli.main` (read off `sys.modules`)."""
    if route == "python -m":
        done = _run_fresh("-X", "importtime", "-m", "fultoncheck.cli", *argv)
        assert done.returncode == 0, done.stderr
        return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    code = ("import json, sys\n"
            "from fultoncheck.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)\n")
    done = _run_fresh("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr))


@pytest.mark.parametrize("route", ["python -m", "main"])
@pytest.mark.parametrize("argv, absent, present", [
    (["fulton", *_TINY_SCALING], {*_SOLVING_MODULES, *_HASHING}, set()),
    (["saturation", *_TINY_SCALING], {*_SOLVING_MODULES, *_HASHING}, set()),
    (["lr", "--mu", "1", "--nu", "1", "--lam", "2"], {*_SOLVING_MODULES, *_HASHING}, set()),
    (["semistable", "--r-max", "2", "--n-max", "3", "--s-max", "2"],
     {*_LINALG_MODULES, *_HASHING}, {"fultoncheck.cohomology", "fultoncheck.semistability"}),
    (["crosscheck", "--r-max", "1", "--n-max", "3", "--s-max", "2"],
     {"_hashlib"}, {*_LINALG_MODULES, "fultoncheck.cohomology", "_blake2"}),
    (["filtration", "--problem", "1,4@4;2,3@4"], {"_hashlib"}, {*_LINALG_MODULES, "_blake2"}),
    (["fulton", *_TINY_SCALING, "--checkpoint", "CHECKPOINT"],
     {*_SOLVING_MODULES, "_hashlib"}, {"_blake2"}),
], ids=["fulton", "saturation", "lr", "semistable", "crosscheck", "filtration",
        "fulton-checkpoint"])
def test_each_command_loads_only_the_layers_it_runs(route, argv, absent, present, tmp_path):
    argv = [str(tmp_path / "ck.json") if a == "CHECKPOINT" else a for a in argv]
    loaded = _modules_loaded(route, [*argv, "--out", str(tmp_path / "report.json")])
    assert "fultoncheck.sweeps" in loaded
    assert sorted(absent & loaded) == []
    assert sorted(present - loaded) == []


# Public names that nothing in the package calls, each kept for a reason.
_UNCALLED_KEPT = {
    "Matrix.from_rows": "fixture helper: tests build their matrices by rows",
    "Partition.trimmed": "the benchmark's planted fault (perfbench/child.py) calls it",
    "partitions.partition_to_index": "fixture helper: tests write index sets as partitions",
    "reports.strip_volatile": "fixture helper: tests and CI compare reports without wall time",
}


def test_no_public_name_only_tests_call():
    """Every public function and class of a module in the package, and every
    public method of a public class, is referenced by name somewhere in the
    package, apart from its own definition and the re-exports of
    `__init__.py`; the names in `_UNCALLED_KEPT` are the exceptions.

    The check goes by bare name, so a name that collides with another one
    in use (a method `scale` beside `Partition.scale`, a property `s` beside
    `SchubertProblem.s`) can still hide a method that only tests call.
    """
    package = Path(cli.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in used:
                uncalled.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                uncalled += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, defs)
                    and not item.name.startswith("_")
                    and item.name not in used
                ]
    assert sorted(set(uncalled) - set(_UNCALLED_KEPT)) == []
    # An exception that the package starts to call leaves the list.
    assert sorted(set(_UNCALLED_KEPT) - set(uncalled)) == []


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


def test_hashes_equal_the_hashlib_route():
    """Seeds, the source digest and the checkpoint fingerprint hash as
    `hashlib.blake2b` does, so reports and checkpoints do not depend on which
    module supplies BLAKE2; the literals were computed through `hashlib`."""
    import hashlib

    assert derive_seed(101, "hom:1,4@4;2,3@4") == 10561024361905499780
    assert derive_seed(101, "hom:1,4@4;2,3@4") == int.from_bytes(
        hashlib.blake2b(b"101:hom:1,4@4;2,3@4", digest_size=8).digest(), "big")
    # `_config_fingerprint` hashes with the helper's default digest size.
    assert sweeps._blake2b(b"x").hexdigest() == "442a44457137672b3218c1007dc8f76a"
    assert sweeps._blake2b(b"x").hexdigest() == hashlib.blake2b(b"x", digest_size=16).hexdigest()
    expected = hashlib.blake2b(digest_size=16)
    for path in sorted(Path(sweeps.__file__).resolve().parent.glob("*.py")):
        expected.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert sweeps._source_digest.__wrapped__() == expected.hexdigest()


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


def test_problem_enumeration_takes_more_conditions_than_the_recursion_limit():
    # On P^1 the only problem with s conditions is one point condition
    # followed by s - 1 trivial ones.
    probs = list(enumerate_problems(1, 2, 1500))
    assert len(probs) == 1500
    assert [len(p.index_sets) for p in probs] == list(range(1, 1501))


def test_every_core_precedes_its_padded_copies():
    # A resumed crosscheck recomputes the cores it needs; `cores_traced`
    # counts each traced core once because a core is enumerated before any
    # copy of it padded with codimension-0 conditions.
    for ranges in ((3, 6, 4), (3, 5, 4), (4, 7, 4)):
        seen = set()
        for problem in enumerate_problems(*ranges):
            seen.add(problem)
            assert problem.core() in seen, (ranges, problem.text())


def test_config_validation():
    # A config validates itself on construction: an invalid one never exists.
    SweepConfig()
    for bad in ({"r_max": 0}, {"n_list": ()}, {"field_name": "octonions"}, {"trials": 0}):
        with pytest.raises(ConfigError):
            SweepConfig(**bad)


def test_fulton_sweep_small_fixture():
    rep = cmd_fulton(SweepConfig(r_max=2, size_max=4, n_list=(2, 3)))
    assert rep["ok"] is True
    assert rep["counts"] == {"instances": 71, "passes": 71, "failures": 0}


def test_scaling_sweep_memory_is_bounded_by_one_size_class():
    """The sweep streams its triples and keeps `_lr` for one |lam| at a time,
    so its memory does not grow with the instance count.  At this range the
    traced peak was 3.13 MiB with the triples listed and every count kept,
    and is about 0.68 MiB streamed; the cache ends holding the counts of
    |lam| = 12 alone, 4,446 entries against 11,433 for the whole range."""
    import tracemalloc

    from fultoncheck.littlewood import _lr

    _lr.cache_clear()
    tracemalloc.start()
    try:
        rep = cmd_fulton(SweepConfig(r_max=3, size_max=12, n_list=(2, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"] is True and rep["counts"]["instances"] == 19855
    assert peak < 1.5 * 2**20, peak
    assert 0 < _lr.cache_info().currsize <= 4446


class _Stopped(Exception):
    """Raised right after a sweep writes its first mid-sweep checkpoint."""


def _stop_after_first_checkpoint(patch: pytest.MonkeyPatch, every: int) -> None:
    real_write = sweeps.write_text

    def write_then_stop(path, text):
        real_write(path, text)
        raise _Stopped

    patch.setattr(sweeps, "CHECKPOINT_EVERY", every)
    patch.setattr(sweeps, "write_text", write_then_stop)


def test_fulton_resumes_at_the_checkpointed_index(tmp_path):
    """A resumed scaling sweep checks exactly the triples from `next_index`
    on, in order, each through the module-global coefficient routine."""
    from fultoncheck.littlewood import lr_coefficient as real

    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, size_max=6, n_list=(2,), checkpoint=str(ck))
    uninterrupted = strip_volatile(cmd_fulton(SweepConfig(r_max=2, size_max=6, n_list=(2,))))
    with pytest.MonkeyPatch.context() as patch:
        _stop_after_first_checkpoint(patch, 40)
        with pytest.raises(_Stopped):
            cmd_fulton(cfg)
    assert json.loads(ck.read_text())["next_index"] == 40
    calls = []

    def recording(mu, nu, lam):
        calls.append((mu, nu, lam))
        return real(mu, nu, lam)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "lr_coefficient", recording)
        assert strip_volatile(cmd_fulton(cfg)) == uninterrupted
    items = list(enumerate_triples(2, 6))
    # One base and one scaled coefficient per instance, no call skipped.
    assert calls[::2] == items[40:]
    assert calls[1::2] == [tuple(part.scale(2) for part in item) for item in items[40:]]


@pytest.mark.parametrize("run, cfg, stream, count", [
    (cmd_crosscheck, SweepConfig(r_max=2, n_max=5, s_max=3), lambda: enumerate_problems(2, 5, 3),
     69),
    (sweeps.cmd_semistable, SweepConfig(r_max=2, n_max=5, s_max=3),
     lambda: enumerate_problems(2, 5, 3), 69),
    (cmd_fulton, SweepConfig(r_max=2, size_max=4), lambda: enumerate_triples(2, 4), 71),
], ids=["crosscheck", "semistable", "fulton"])
def test_a_swapped_run_sweep_sees_every_streamed_item(monkeypatch, run, cfg, stream, count):
    """A tracer swaps the module global `_run_sweep` for a wrapper of its
    `check` (as `perfbench/tracing.py` does); every command calls it through
    that global, with five arguments, and every streamed item reaches it."""
    real = sweeps._run_sweep
    seen = []

    def counting(command, cfg, items, check, state):
        def counted(index, item, st):
            seen.append((index, item))
            return check(index, item, st)

        return real(command, cfg, items, counted, state)

    monkeypatch.setattr(sweeps, "_run_sweep", counting)
    run(cfg)
    assert seen == list(enumerate(stream()))
    assert len(seen) == count


def test_semistable_checkpoint_resume_is_byte_identical(tmp_path):
    """`semistable` streams every problem in range and counts the solvable
    ones; a run stopped after a mid-sweep checkpoint resumes at the next
    enumerated problem, and its report is the uninterrupted one."""
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=3, n_max=6, s_max=4, seed=7, checkpoint=str(ck))
    uninterrupted = strip_volatile(sweeps.cmd_semistable(
        SweepConfig(r_max=3, n_max=6, s_max=4, seed=7)))
    assert uninterrupted["counts"]["instances"] == 393
    with pytest.MonkeyPatch.context() as patch:
        _stop_after_first_checkpoint(patch, 100)
        with pytest.raises(_Stopped):
            sweeps.cmd_semistable(cfg)
    saved = json.loads(ck.read_text())
    assert saved["next_index"] == 100 and saved["state"]["max_clincher"] is not None
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted
    # The finished checkpoint is resumed too.
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted


def test_checkpointed_semistable_computes_each_intersection_number_once(tmp_path, monkeypatch):
    """A checkpoint is fingerprinted from the configuration and the source, not
    from the instances, so a checkpointed run solves each core once, as a
    plain run does; its `next_index` counts enumerated problems, so resuming
    the finished checkpoint skips them all without solving any."""
    calls = []
    real = cohomology.intersection_number
    monkeypatch.setattr(cohomology, "intersection_number",
                        lambda problem: calls.append(problem) or real(problem))
    plain = SweepConfig(r_max=3, n_max=6, s_max=4, seed=7)
    checkpointed = SweepConfig(r_max=3, n_max=6, s_max=4, seed=7,
                               checkpoint=str(tmp_path / "ck.json"))
    counts = []
    for cfg in (plain, checkpointed, checkpointed):
        calls.clear()
        sweeps.cmd_semistable(cfg)
        counts.append(len(calls))
        assert len(set(calls)) == len(calls)
    # The third run resumes the finished checkpoint of the second.
    assert counts == [278, 278, 0]


def test_semistable_resumes_between_a_core_and_its_padded_copy(tmp_path):
    """A run stopped after the core `1@2` resumes at its padded copy
    `1@2;2@2`, which reads the core's check again, and its report is the
    uninterrupted one."""
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=3, n_max=6, s_max=4, seed=7, checkpoint=str(ck))
    first = list(islice(enumerate_problems(3, 6, 4), 2))
    assert [p.text() for p in first] == ["1@2", "1@2;2@2"]
    assert first[1].core() == first[0]
    uninterrupted = strip_volatile(sweeps.cmd_semistable(
        SweepConfig(r_max=3, n_max=6, s_max=4, seed=7)))
    with pytest.MonkeyPatch.context() as patch:
        _stop_after_first_checkpoint(patch, 1)
        with pytest.raises(_Stopped):
            sweeps.cmd_semistable(cfg)
    assert json.loads(ck.read_text())["next_index"] == 1
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted


def test_crosscheck_checkpoint_resume_is_byte_identical(tmp_path):
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, n_max=4, s_max=2, seed=5, checkpoint=str(ck))
    first = strip_volatile(cmd_crosscheck(cfg))
    assert ck.exists()
    assert strip_volatile(cmd_crosscheck(cfg)) == first
    # A mid-sweep checkpoint whose state counters are malformed is ignored.
    saved = json.loads(ck.read_text())
    restart = {**saved, "next_index": 3, "failures": 0, "counterexamples": []}
    for state in ({}, {**saved["state"], "with_maps": "x"}, {**saved["state"], "with_maps": None}):
        ck.write_text(json.dumps({**restart, "state": state}))
        assert strip_volatile(cmd_crosscheck(cfg)) == first, state
    # A restart between a core with maps and its first padded copy solves
    # the core again, and the report, `cores_traced` included, is unchanged.
    ck = tmp_path / "ck-cores.json"
    cfg = SweepConfig(r_max=2, n_max=5, s_max=3, seed=5, checkpoint=str(ck))
    items = list(enumerate_problems(2, 5, 3))
    restart_at = next(i for i, p in enumerate(items)
                      if p.core() != p and intersection_number(p.core()) == 0)
    padded = items[restart_at]
    assert (restart_at, padded.text()) == (28, "1,4@4;2,3@4;3,4@4")
    assert items.index(padded.core()) < restart_at
    uninterrupted = strip_volatile(cmd_crosscheck(SweepConfig(r_max=2, n_max=5, s_max=3, seed=5)))

    class Interrupted(Exception):
        pass

    real_core = SchubertProblem.core

    def interrupt_at_padded(self):
        if self == padded:
            raise Interrupted
        return real_core(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SchubertProblem, "core", interrupt_at_padded)
        patch.setattr(sweeps, "CHECKPOINT_EVERY", restart_at)
        with pytest.raises(Interrupted):
            cmd_crosscheck(cfg)
    saved = json.loads(ck.read_text())
    assert saved["next_index"] == restart_at
    assert saved["state"]["cores_traced"] == saved["state"]["with_maps"] > 0
    resumed = strip_volatile(cmd_crosscheck(cfg))
    assert resumed == uninterrupted
    assert resumed["extra"]["cores_traced"] == 6


def test_crosscheck_checkpoint_with_a_count_out_of_range_starts_over(tmp_path):
    """A state counter counts at most one per problem, so one past
    `next_index` or below 0 marks an edited checkpoint: the sweep starts
    over, and the report is the uninterrupted one, not the forged count."""
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, n_max=4, s_max=3, checkpoint=str(ck))
    uninterrupted = strip_volatile(cmd_crosscheck(SweepConfig(r_max=2, n_max=4, s_max=3)))
    assert strip_volatile(cmd_crosscheck(cfg)) == uninterrupted
    saved = json.loads(ck.read_text())
    assert saved["next_index"] == uninterrupted["extra"]["problems"] == 32
    for with_maps in (999, saved["next_index"] + 1, -1):
        ck.write_text(json.dumps({**saved, "state": {**saved["state"], "with_maps": with_maps}}))
        assert strip_volatile(cmd_crosscheck(cfg)) == uninterrupted, with_maps


def test_semistable_checkpoint_with_a_count_out_of_range_starts_over(tmp_path):
    """`problems` past `next_index` breaks the seal like any edit, and so does
    an edited `max_clincher`, a maximum with no range: the sweep starts over."""
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, n_max=4, s_max=3, checkpoint=str(ck))
    uninterrupted = strip_volatile(sweeps.cmd_semistable(SweepConfig(r_max=2, n_max=4, s_max=3)))
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted
    saved = json.loads(ck.read_text())
    assert (saved["next_index"], saved["state"]["problems"]) == (32, 30)
    ck.write_text(json.dumps({**saved, "state": {**saved["state"], "problems": 33}}))
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted
    assert json.loads(ck.read_text())["state"]["problems"] == 30
    ck.write_text(json.dumps({**saved, "state": {**saved["state"], "max_clincher": -10**6}}))
    assert strip_volatile(sweeps.cmd_semistable(cfg)) == uninterrupted


@pytest.mark.parametrize("run, edit", [
    (cmd_crosscheck, lambda saved: saved["state"].update(with_maps=saved["state"]["with_maps"] - 1)),
    (sweeps.cmd_semistable, lambda saved: saved["state"].update(max_clincher=-10**6)),
    (cmd_crosscheck, lambda saved: saved.update(failures=1, counterexamples=[{"kind": "planted"}])),
], ids=["crosscheck-with-maps", "semistable-max-clincher", "crosscheck-planted"])
def test_a_finished_checkpoint_edited_within_range_starts_over(tmp_path, run, edit):
    """Every field stays well formed and in range, but the edit breaks the
    checkpoint's seal, so the resume gives the uninterrupted report, not the
    edited one."""
    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, n_max=4, s_max=3, checkpoint=str(ck))
    uninterrupted = strip_volatile(run(SweepConfig(r_max=2, n_max=4, s_max=3)))
    assert uninterrupted["ok"] is True
    assert strip_volatile(run(cfg)) == uninterrupted
    saved = json.loads(ck.read_text())
    assert "digest" in saved and "fingerprint" not in saved
    edit(saved)
    ck.write_text(json.dumps(saved))
    assert strip_volatile(run(cfg)) == uninterrupted


def test_a_failing_checkpoint_resumes_after_reserialization(tmp_path, monkeypatch):
    """The seal hashes the canonical JSON of the fields, so a failing sweep's
    records (`samples` tuples, rendered traces) resume as saved, with no
    instance solved again, also after the file is re-serialized."""
    import dataclasses

    from fultoncheck import filtration

    real_dim, real_audit = homspace.generic_hom_dim, filtration.verify_trace

    def inflated(*args, **kwargs):
        result = real_dim(*args, **kwargs)
        return dataclasses.replace(result, dim=result.dim + 1)

    def failing(trace):
        audit = real_audit(trace)
        audit.checks["planted"] = False
        return audit

    ck = tmp_path / "ck.json"
    cfg = SweepConfig(r_max=2, n_max=5, s_max=3, seed=5, checkpoint=str(ck))
    with monkeypatch.context() as patch:
        patch.setattr(homspace, "generic_hom_dim", inflated)
        patch.setattr(filtration, "verify_trace", failing)
        first = strip_volatile(cmd_crosscheck(cfg))
    kinds = [record["kind"] for record in first["counterexamples"]]
    assert (kinds.count("count_rank_mismatch"), kinds.count("hom_dim_mismatch"),
            kinds.count("trace_audit_failed")) == (59, 69, 69)
    assert isinstance(first["counterexamples"][0]["samples"], tuple)
    calls = []
    monkeypatch.setattr(homspace, "generic_hom_dim", lambda *a, **k: calls.append(a))
    assert to_json_str(strip_volatile(cmd_crosscheck(cfg))) == to_json_str(first)
    ck.write_text(json.dumps(json.loads(ck.read_text()), indent=3))
    assert to_json_str(strip_volatile(cmd_crosscheck(cfg))) == to_json_str(first)
    assert calls == []


def test_crosscheck_over_q_and_over_f_p_agree_at_the_workload_range():
    """Q and F_p give the same counts and counters at the crosscheck
    workload's range and one seed."""
    want = {"problems": 560, "with_maps": 167, "traces_audited": 167,
            "intersection_positive": 393, "cores_traced": 75}
    over_q, over_p = (cmd_crosscheck(SweepConfig(r_max=3, n_max=6, s_max=4, seed=1,
                                                 field_name=name))
                      for name in ("rational", "prime"))
    assert over_q["ok"] is True
    assert over_q["counts"] == over_p["counts"]
    assert over_q["extra"] == over_p["extra"] == want


def test_crosscheck_solves_a_thousand_padded_copies_once(monkeypatch):
    """The 1,000 one-point problems on P^1 are padded copies of one core, so
    the map space is sampled once, not once per problem."""
    calls = []
    real = homspace.generic_hom_dim
    monkeypatch.setattr(homspace, "generic_hom_dim",
                        lambda problem, *a, **k: calls.append(problem) or real(problem, *a, **k))
    report = cmd_crosscheck(SweepConfig(r_max=1, n_max=2, s_max=1000))
    assert report["ok"] is True and report["counts"]["instances"] == 1000
    assert [problem.text() for problem in calls] == ["1@2"]


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
        if (mu.parts, nu.parts, lam.parts) == ((1,), (1,), (1, 1)):
            return 2
        return real(mu, nu, lam)

    # A forged checkpoint must not let a sweep pass with nothing checked,
    # skip an instance, or crash: each of these is ignored like a stale one.
    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    fresh = strip_volatile(cmd_fulton(SweepConfig(r_max=2, size_max=4)))
    assert fresh["ok"] is False
    planted = {"failures": 1, "counterexamples": [{"kind": "planted"}]}
    without_failures = {k: v for k, v in saved.items() if k != "failures"}
    forgeries = [
        {**saved, "next_index": saved["next_index"] + 1},
        {**saved, "next_index": 10**9},
        {**saved, "next_index": -1},
        {**saved, "next_index": "3"},
        {**saved, **planted, "next_index": True},
        [saved],
        without_failures,
        {**saved, "failures": "x"},
        {**saved, "failures": -1},
        {**saved, "failures": saved["next_index"] + 1},
        {**saved, "counterexamples": {}},
        {**saved, "counterexamples": [{"kind": "planted"}]},
        {**saved, "state": {"planted": 1}},
    ]
    for forged in forgeries:
        ck.write_text(json.dumps(forged))
        assert strip_volatile(cmd_fulton(cfg)) == fresh, forged
    ck.write_text("{not json")
    assert strip_volatile(cmd_fulton(cfg)) == fresh
    # Nested too deeply for the parser's recursion limit.
    for opener in ("[", '{"a": '):
        ck.write_text(opener * 200_000)
        assert strip_volatile(cmd_fulton(cfg)) == fresh


def test_checkpoint_fingerprint_covers_version_and_source(monkeypatch):
    import fultoncheck

    cfg = SweepConfig()
    base = sweeps._config_fingerprint("crosscheck", cfg)
    monkeypatch.setattr(fultoncheck, "__version__", "0.0.0-other")
    assert sweeps._config_fingerprint("crosscheck", cfg) != base
    monkeypatch.undo()
    assert sweeps._config_fingerprint("crosscheck", cfg) == base
    monkeypatch.setattr(sweeps, "_source_digest", lambda: "other-source")
    assert sweeps._config_fingerprint("crosscheck", cfg) != base


def test_checkpoint_from_other_source_is_recomputed(tmp_path, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    ck = str(tmp_path / "ck.json")
    cfg = SweepConfig(r_max=2, size_max=4, checkpoint=ck)
    fresh = strip_volatile(cmd_fulton(SweepConfig(r_max=2, size_max=4)))
    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "lr_coefficient", lambda mu, nu, lam: real(mu, nu, lam) + 1)
        stale = strip_volatile(cmd_fulton(cfg))
    assert fresh["ok"] is True and stale["ok"] is False
    # Same source: the finished checkpoint is resumed, so nothing is rechecked.
    assert strip_volatile(cmd_fulton(cfg)) == stale
    # Other source: every instance is checked again.
    monkeypatch.setattr(sweeps, "_source_digest", lambda: "other-source")
    assert strip_volatile(cmd_fulton(cfg)) == fresh


def test_planted_corruption_is_caught(monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        value = real(mu, nu, lam)
        key = (mu.parts, nu.parts, lam.parts)
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
    monkeypatch.setattr(
        semistability,
        "clinchers",
        lambda problem, d: [1] * len(nonvanishing_positions(d, problem.r, problem.s)),
    )
    out = tmp_path / "report.json"
    argv = ["semistable", "--r-max", "3", "--n-max", "5", "--s-max", "3", "--out", str(out)]
    assert cli.main(argv) == 1
    rep = json.loads(out.read_text())
    assert rep["ok"] is False
    assert rep["extra"]["max_clincher"] == 1
    positive = [c for c in rep["counterexamples"] if c["kind"] == "positive_clincher"]
    assert positive
    # Every solvable problem with a subspace position fails, a padded copy of
    # a failed core included.
    failing = {
        problem.text()
        for problem in enumerate_problems(3, 5, 3)
        if problem.r > 1 and intersection_number(problem) > 0
    }
    assert {rec["problem"] for rec in positive} == failing
    assert any(SchubertProblem.parse(text).core().text() != text for text in failing)
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


def test_semistable_record_index_counts_solvable_problems(monkeypatch):
    """`semistable` streams every problem in range, and a record's `index` is
    its problem's position among the solvable ones, in enumeration order."""
    monkeypatch.setattr(
        semistability,
        "clinchers",
        lambda problem, d: [1] * len(nonvanishing_positions(d, problem.r, problem.s)),
    )
    rep = sweeps.cmd_semistable(SweepConfig(r_max=3, n_max=5, s_max=3))
    solvable = [problem.text() for problem in enumerate_problems(3, 5, 3)
                if intersection_number(problem) > 0]
    assert rep["counts"]["instances"] == rep["extra"]["problems"] == len(solvable)
    assert rep["counterexamples"]
    for rec in rep["counterexamples"]:
        assert solvable[rec["index"]] == rec["problem"]


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


def test_cli_unwritable_paths_are_usage_errors(tmp_path, capsys, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    calls = []

    def counted(mu, nu, lam):
        calls.append((mu, nu, lam))
        return real(mu, nu, lam)

    monkeypatch.setattr(sweeps, "lr_coefficient", counted)
    blocker = tmp_path / "file"
    blocker.write_text("")
    missing = tmp_path / "missing"
    sweep = ["fulton", "--r-max", "1", "--size-max", "2"]
    for extra in (
        ["--out", str(tmp_path)],
        ["--out", str(blocker / "rep.json")],
        ["--out", str(missing / "rep.json")],
        ["--checkpoint", str(tmp_path)],
        ["--checkpoint", str(blocker / "ck.json")],
        ["--checkpoint", str(missing / "ck.json")],
    ):
        assert cli.main(sweep + extra) == 2, extra
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == [], extra  # refused before the first instance ran
        assert not missing.exists(), extra
    for target in (tmp_path, missing / "rep.json"):
        argv = ["filtration", "--problem", "1,4@4;2,3@4", "--out", str(target)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()
    # The same sweep with a writable target runs and consults the engine.
    assert cli.main(sweep + ["--out", str(tmp_path / "rep.json")]) == 0
    assert calls


def test_cli_refuses_a_fifo_target(tmp_path, capsys):
    for flag in ("--out", "--checkpoint"):
        fifo = tmp_path / f"pipe{flag}"
        os.mkfifo(fifo)
        assert cli.main(["fulton", "--r-max", "1", "--size-max", "2", flag, str(fifo)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_cli_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert cli.main(["fulton", "--r-max", "1", "--size-max", "2", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["command"] == "fulton"
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


def test_cli_refuses_a_report_path_that_is_the_checkpoint(tmp_path, capsys, monkeypatch):
    """An --out naming the checkpoint, directly or through a symlink, would
    overwrite the resume state with the report; it is refused before any
    instance runs, and the checkpoint is left as it was."""
    sweep = ["fulton", "--r-max", "2", "--size-max", "4"]
    ck = tmp_path / "same.json"
    assert cli.main(sweep + ["--checkpoint", str(ck), "--out", str(tmp_path / "rep.json")]) == 0
    saved = ck.read_text()
    link = tmp_path / "link.json"
    link.symlink_to(ck)
    calls = []
    monkeypatch.setattr(sweeps, "lr_coefficient", lambda *a: calls.append(a))
    for out in (ck, link):
        assert cli.main(sweep + ["--out", str(out), "--checkpoint", str(ck)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert calls == [], out
        assert ck.read_text() == saved
    assert link.is_symlink()


@pytest.mark.parametrize("modulus", ["318665857834031151167461", "3317044064679887385961981"])
def test_cli_refuses_a_strong_pseudoprime_modulus(modulus, tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    argv = ["crosscheck", "--r-max", "2", "--n-max", "4", "--s-max", "3",
            "--field", f"prime:{modulus}", "--seed", "1", "--out", str(out_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("modulus", ["0", "1", "4", "-7"])
@pytest.mark.parametrize("command", [
    ["crosscheck", "--r-max", "2", "--n-max", "4", "--s-max", "3"],
    ["filtration", "--problem", "2,3@4"],
])
def test_cli_refuses_a_modulus_that_is_not_prime(modulus, command, tmp_path, capsys):
    # Q is the field of p = 0, but `prime:0` must not reach it.
    out_path = tmp_path / "rep.json"
    assert cli.main([*command, "--field", f"prime:{modulus}", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: modulus {modulus} is not prime\n"
    assert not out_path.exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize(
    "problem", ["1,4@4;1,4@4", "2,4@4;2,4@4;2,4@4;2,4@4", "1,4@4;2,3@4"]
)
def test_cli_filtration_validates_its_config(problem, trials, tmp_path, capsys):
    # The first two problems have no maps, so the sampler never reads
    # `trials`; the setting is refused before the run all the same.
    out = tmp_path / "rep.json"
    argv = ["filtration", "--problem", problem, "--trials", trials, "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: trials must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["crosscheck", "--r-max", "2", "--n-max", "4", "--s-max", "3"],
     ["filtration", "--problem", "1,4@4;2,3@4"]],
    ids=["crosscheck", "filtration"],
)
def test_cli_caps_trials_at_the_samples_per_value(argv, tmp_path, capsys):
    # More agreeing samples than `stabilized_min` ever draws could only end
    # in a false `run_error`, so such a setting is refused up front.
    out = tmp_path / "rep.json"
    assert MAX_TOTAL_TRIALS == 10
    assert cli.main([*argv, "--trials", "11", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: trials must be at most 10, the cap on samples per generic value\n"
    )
    assert not out.exists()
    assert cli.main([*argv, "--trials", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True


# Every (command, flag) pair the command never reads: each is refused.
_UNREAD_FLAGS = {
    "fulton": ("--n-max", "--s-max", "--trials", "--field"),
    "saturation": ("--n-max", "--s-max", "--trials", "--field"),
    "crosscheck": ("--size-max", "--n-list"),
    "semistable": ("--size-max", "--n-list", "--trials", "--field"),
    "filtration": ("--r-max", "--size-max", "--n-list", "--n-max", "--s-max", "--checkpoint"),
    "lr": ("--r-max", "--size-max", "--n-list", "--n-max", "--s-max", "--trials", "--field",
           "--checkpoint"),
}
_REQUIRED = {
    "filtration": ["--problem", "1,4@4;2,3@4"],
    "lr": ["--mu", "1", "--nu", "1", "--lam", "2"],
}
_FLAG_VALUES = {
    "--r-max": "2", "--size-max": "3", "--n-list": "2", "--n-max": "4", "--s-max": "2",
    "--trials": "3", "--field": "prime", "--checkpoint": "ck.json",
}


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags],
)
def test_cli_refuses_flags_the_command_does_not_read(command, flag, tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [command, *_REQUIRED.get(command, []), flag, _FLAG_VALUES[flag]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # The usage line is the subcommand's, which lists the flags it does take.
    assert err.startswith(f"usage: fultoncheck {command} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["fulton", "saturation", "crosscheck", "semistable"])
def test_cli_sweep_defaults_are_sweep_config_defaults(command, capsys, monkeypatch):
    """With no flags, a sweep runs and records exactly `SweepConfig()`'s settings."""
    monkeypatch.delenv("FULTONCHECK_SEED", raising=False)
    code, out = _run_cli(capsys, [command])
    assert code == 0
    rep = json.loads(out)
    assert rep["config"] == SweepConfig(seed=sweeps.DEFAULT_SEED).as_dict()
    assert rep["field"] == SweepConfig().field_name


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


def test_cli_lr_refuses_a_lam_too_long_for_the_recursion(capsys):
    """Both engines recurse per row of lam: 1,200 rows is a usage error (exit
    2, one line naming the row count), not a traceback, and 600 rows, like the
    40-row triple 1^40 * 1^40 -> 2^40, still runs in both engines."""
    def ones(rows, part="1"):
        return ",".join([part] * rows)

    assert cli.main(["lr", "--mu", "1", "--nu", ones(1199), "--lam", ones(1200)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lam has 1200 rows, too many for the LR engines\n"
    for argv in (["lr", "--mu", "1", "--nu", ones(599), "--lam", ones(600)],
                 ["lr", "--mu", ones(40), "--nu", ones(40), "--lam", ones(40, "2")]):
        code, out = _run_cli(capsys, argv)
        assert code == 0
        extra = json.loads(out)["extra"]
        assert extra["tableau_engine"] == extra["pieri_engine"] == 1


def test_cli_corrupted_engine_exits_one(capsys, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        value = real(mu, nu, lam)
        key = (mu.parts, nu.parts, lam.parts)
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


@pytest.mark.parametrize("command", ["fulton", "saturation"])
def test_scaling_sweeps_catch_a_fault_above_one(capsys, monkeypatch, command):
    # c + 1 for every c >= 2 keeps "c == 1" and "c == 0" unchanged at every
    # scaling, so only the Pieri re-check of the base coefficient sees it.
    from fultoncheck.littlewood import lr_coefficient as real
    from fultoncheck.littlewood import lr_coefficient_pieri

    def corrupted(mu, nu, lam):
        c = real(mu, nu, lam)
        return c + 1 if c >= 2 else c

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    code, out = _run_cli(capsys, [command, "--r-max", "3", "--size-max", "8"])
    assert code == 1
    rep = json.loads(out)
    assert rep["counts"]["failures"] == len(rep["counterexamples"]) > 0
    for hit in rep["counterexamples"]:
        assert hit["kind"] == "engine_mismatch"
        mu, nu, lam = (Partition.parse(hit[key]) for key in ("mu", "nu", "lam"))
        assert hit["pieri_engine"] == lr_coefficient_pieri(mu, nu, lam) >= 2
        assert hit["tableau_engine"] == hit["pieri_engine"] + 1


@pytest.mark.parametrize(
    "command, planted, kind",
    [("fulton", 1, "multiplicity_one_not_preserved"), ("saturation", 0, "vanishing_not_preserved")],
)
def test_scaling_sweeps_catch_a_fault_in_a_scaled_coefficient(
    capsys, monkeypatch, command, planted, kind
):
    # c = 3 at (4,2), (4,2), (6,4,2), the doubling of (2,1), (2,1), (3,2,1)
    # with c = 2; only the scaled coefficient is wrong, so the fault is seen
    # only if scaled coefficients go through `sweeps.lr_coefficient` too.
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        if (mu.parts, nu.parts, lam.parts) == ((4, 2), (4, 2), (6, 4, 2)):
            return planted
        return real(mu, nu, lam)

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    argv = [command, "--r-max", "3", "--size-max", "6", "--n-list", "2,3"]
    code, out = _run_cli(capsys, argv)
    assert code == 1
    rep = json.loads(out)
    assert len(rep["counterexamples"]) == 1
    hit = rep["counterexamples"][0]
    assert hit["kind"] == kind
    assert (hit["mu"], hit["nu"], hit["lam"]) == ("2,1", "2,1", "3,2,1")
    assert hit["scaling"] == 2
    assert hit["coefficient"] == 2 and hit["coefficient_scaled"] == planted


def test_benchmark_planted_fault_is_caught_without_a_crash(tmp_path):
    # The benchmark's fault gate accepts any failed verdict, so a fault child
    # that crashes (say on a renamed `Partition` method) would pass it too.
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "fault", "--",
         "fulton", "--r-max", "3", "--size-max", "6", "--n-list", "2", "--out", str(out)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    rep = json.loads(out.read_text())
    assert rep["counts"]["failures"] == 1
    (hit,) = rep["counterexamples"]
    assert hit["kind"] == "multiplicity_one_not_preserved"
    assert (hit["mu"], hit["nu"], hit["lam"], hit["scaling"]) == ("2,1", "2,1", "3,2,1", 2)


def test_cli_lr_catches_a_planted_tableau_fault(capsys, monkeypatch):
    from fultoncheck.littlewood import lr_coefficient as real

    def corrupted(mu, nu, lam):
        key = (mu.parts, nu.parts, lam.parts)
        return 1 if key == ((2, 1), (2, 1), (3, 2, 1)) else real(mu, nu, lam)

    monkeypatch.setattr(sweeps, "lr_coefficient", corrupted)
    code, out = _run_cli(capsys, ["lr", "--mu", "2,1", "--nu", "2,1", "--lam", "3,2,1"])
    assert code == 1
    rep = json.loads(out)
    assert rep["counterexamples"] == [{"kind": "engine_mismatch", "mu": "2,1", "nu": "2,1",
                                       "lam": "3,2,1", "tableau_engine": 1, "pieri_engine": 2}]


def test_cli_crosscheck_refuses_a_field_too_small_for_its_range(tmp_path, capsys):
    # Over this range rho = max r(n - r) = 6, so a sample misses the generic
    # rank with probability at most 12/p; 12/p <= 10^-6 needs p >= 12,000,000.
    argv = ["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3", "--seed", "7"]
    for small in ("3", "11999989"):
        out_path = tmp_path / f"small-{small}.json"
        code = cli.main([*argv, "--field", f"prime:{small}", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: field prime:{small} is too small for this range")
        assert f"12/{small}" in err
        assert "smallest prime accepted is prime:12000017" in err
        assert not out_path.exists()

    reports = {}
    for field in ("prime:12000017", "prime"):
        out_path = tmp_path / f"{field}.json"
        assert cli.main([*argv, "--field", field, "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        reports[field] = json.loads(out_path.read_text())
    for rep in reports.values():
        assert rep["ok"] is True
        assert rep["counts"] == {"instances": 69, "passes": 69, "failures": 0}
    assert reports["prime:12000017"]["extra"] == reports["prime"]["extra"]


def test_cli_filtration_refuses_a_field_too_small_for_its_problem(tmp_path, capsys):
    # rho = r(n - r) = 4 here, so the chart bound 8/p <= 10^-6 needs
    # p >= 8,000,000.  Over prime:13 seeds 6 and 8 used to report
    # `trace_audit_failed` on this correct filtration.
    argv = ["filtration", "--problem", "1,4@4;2,3@4;3,4@4"]
    for seed in ("6", "8"):
        out_path = tmp_path / f"small-{seed}.json"
        code = cli.main([*argv, "--field", "prime:13", "--seed", seed, "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: field prime:13 is too small")
        assert "8/13" in err and "smallest prime accepted is prime:8000009" in err
        assert not out_path.exists()
    for field in ("prime:8000009", "prime", "rational"):
        out_path = tmp_path / f"{field}.json"
        assert cli.main([*argv, "--field", field, "--seed", "6", "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out_path.read_text())["ok"] is True


def _plant_kernel_fault(monkeypatch):
    """Add 1 to one entry in the first row of every nonempty kernel basis."""
    from fultoncheck.linalg import Matrix

    real = Matrix.kernel_basis

    def faulty(self):
        ker = real(self)
        if ker.nrows == 0 or ker.ncols == 0:
            return ker
        first = (ker.field.reduce(ker.rows[0][0] + 1), *ker.rows[0][1:])
        return Matrix(ker.field, ker.nrows, ker.ncols, (first, *ker.rows[1:]))

    monkeypatch.setattr(Matrix, "kernel_basis", faulty)


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--r-max", "2", "--n-max", "4", "--s-max", "3"],
    ["filtration", "--problem", "1,4@4;2,3@4"],
])
def test_cli_failed_system_audit_is_a_counterexample(argv, tmp_path, capsys, monkeypatch):
    _plant_kernel_fault(monkeypatch)
    out_path = tmp_path / "rep.json"
    code = cli.main([*argv, "--seed", "5", "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    rep = json.loads(out_path.read_text())
    assert rep["ok"] is False
    assert any(c["kind"] == "run_error" and "solved map violates" in c["error"]
               for c in rep["counterexamples"])


def _plant_dependent_kernel(monkeypatch):
    """Make the last column of every kernel basis with two or more columns a
    copy of the first: the basis is then dependent."""
    from fultoncheck.linalg import Matrix

    real = Matrix.kernel_basis

    def faulty(self):
        ker = real(self)
        if ker.ncols < 2:
            return ker
        rows = tuple((*row[:-1], row[0]) for row in ker.rows)
        return Matrix(ker.field, ker.nrows, ker.ncols, rows)

    monkeypatch.setattr(Matrix, "kernel_basis", faulty)


def test_solver_faults_are_the_four_solver_exceptions():
    from fultoncheck.field import SolverFault
    from fultoncheck.filtration import FiltrationError
    from fultoncheck.homspace import GenericityError, HomAuditError
    from fultoncheck.linalg import LinAlgError

    for fault in (GenericityError, FiltrationError, HomAuditError, LinAlgError):
        assert issubclass(fault, SolverFault), fault
    assert issubclass(LinAlgError, ValueError)


@pytest.mark.parametrize("argv", [
    ["crosscheck", "--r-max", "3", "--n-max", "5", "--s-max", "2"],
    ["filtration", "--problem", "1,2,5@5;2,3,5@5"],
])
def test_cli_solver_fault_is_a_run_error_not_a_usage_error(argv, tmp_path, capsys,
                                                           monkeypatch):
    _plant_dependent_kernel(monkeypatch)
    out_path = tmp_path / "rep.json"
    code = cli.main([*argv, "--seed", "101", "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ""  # no usage error, no traceback
    rep = json.loads(out_path.read_text())
    assert rep["ok"] is False
    errors = [c for c in rep["counterexamples"] if c["kind"] == "run_error"]
    assert errors
    assert all(c["error"] == "subspace basis columns are dependent" for c in errors)


def test_crosscheck_rejects_an_inflated_positive_dimension(tmp_path, monkeypatch):
    import dataclasses

    real = homspace.generic_hom_dim

    def inflated(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, dim=result.dim + 1) if result.dim else result

    monkeypatch.setattr(homspace, "generic_hom_dim", inflated)
    out_path = tmp_path / "rep.json"
    code = cli.main(["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3",
                     "--seed", "5", "--out", str(out_path)])
    assert code == 1
    rep = json.loads(out_path.read_text())
    kinds = {c["kind"] for c in rep["counterexamples"]}
    assert kinds == {"hom_dim_mismatch"}
    for c in rep["counterexamples"]:
        assert c["generic_hom_dim"] == c["trace_hom_dim"] + 1
    assert len(rep["counterexamples"]) == rep["extra"]["traces_audited"]


@pytest.mark.parametrize("fault", ["sampling_error", "inflated_dim"])
def test_crosscheck_reports_a_shared_core_fault_for_every_copy(fault, monkeypatch):
    import dataclasses

    target = SchubertProblem.parse("1@3")
    real = homspace.generic_hom_dim

    def faulty(problem, *args, **kwargs):
        result = real(problem, *args, **kwargs)
        if problem != target:
            return result
        if fault == "sampling_error":
            raise homspace.GenericityError("planted sampler fault")
        return dataclasses.replace(result, dim=result.dim + 1)

    monkeypatch.setattr(homspace, "generic_hom_dim", faulty)
    items = list(enumerate_problems(2, 5, 3))
    sharing = {i: p.text() for i, p in enumerate(items) if p.core() == target}
    assert sorted(sharing.values()) == ["1@3", "1@3;3@3", "1@3;3@3;3@3"]
    rep = cmd_crosscheck(SweepConfig(r_max=2, n_max=5, s_max=3, seed=5))
    assert rep["counts"]["failures"] == len(sharing)
    kinds = {"sampling_error": {"run_error"},
             "inflated_dim": {"count_rank_mismatch", "hom_dim_mismatch"}}[fault]
    for index, text in sharing.items():
        records = [c for c in rep["counterexamples"] if c["index"] == index]
        assert {c["kind"] for c in records} == kinds
        assert all(c["problem"] == text for c in records)
    assert {c["index"] for c in rep["counterexamples"]} == set(sharing)


def test_crosscheck_solves_a_shared_core_once(monkeypatch):
    # On P^1 every problem is one point condition padded with trivial ones.
    calls = {"generic_hom_dim": 0, "intersection_number": 0}
    # `cmd_crosscheck` imports both when it runs, from their own modules.
    for module, name in ((homspace, "generic_hom_dim"), (cohomology, "intersection_number")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rep = cmd_crosscheck(SweepConfig(r_max=1, n_max=2, s_max=300))
    assert rep["ok"] is True
    assert rep["counts"]["instances"] == rep["extra"]["intersection_positive"] == 300
    assert calls == {"generic_hom_dim": 1, "intersection_number": 1}
