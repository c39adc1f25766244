"""Sweep benchmark: time to a verified `fultoncheck` report, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N | --held-out [--seed N]]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The package is imported from `src/` through
PYTHONPATH, so nothing has to be installed.  NAME is one of the workloads
below, or `all` to run each in turn.

Untraced runs (`--trace 0`, the default) repeat, until `--seconds` have
passed, a pair of fresh processes: one that imports `fultoncheck.cli` and
selects the row-reduction backend (`setup_s`), and one `fultoncheck SWEEP ...
--out FILE` exactly as a user runs it (`sweep_s`, `peak_rss_mb`).  Every
repetition is a new interpreter because the `_lr` and `nonvanishing_positions`
caches live for the life of a process.  The loop is closed: one client, one
process at a time, no threads.  Times are medians over the repetitions.

Every report passes a verdict gate: exit code 0, `ok`, `counts` and the
seed-independent `extra` counters must equal the workload's expected values.
A repetition that fails the gate counts in `failed` and posts no time.  On
`scaling` a child with a deliberately wrong `sweeps.lr_coefficient` runs
first and must be rejected by the same gate.  If the compiled backend is
importable, one report from the pure backend must equal the compiled one.

Traced runs (`--trace 1`) alternate untraced and traced repetitions (at least
two of each).  The traced child (`perfbench/child.py`) wraps the package's
public functions and reports per-layer counts and self times; see
`perfbench/tracing.py`.  Counts must repeat exactly between traced
repetitions, and traced reports must pass the same verdict gate.  The tracing
overhead is the traced minus the untraced median `sweep_s`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the same
numbers for reading, with the run's metadata.  Seed 101 is the development
seed; `--held-out` marks a re-check on a seed not used while writing a change
(202 unless `--seed` names another), and refuses the development seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")

DEV_SEED = 101
HELD_OUT_SEEDS = (202, 303)
MIN_REPS = 3
MIN_TRACED_REPS = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
DEADLINE_MARGIN_S = 20.0  # no new repetition starts this close to the deadline

CLI_LAUNCHER = "import sys; from fultoncheck.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import json, os, fultoncheck, fultoncheck.cli, fultoncheck.rowred as r; "
    "print(json.dumps({'backend': r.BACKEND, 'package': os.path.dirname(fultoncheck.__file__)}))"
)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    seeded: bool
    counts: dict
    extra: dict

    def argv(self, seed: int) -> list[str]:
        return [*self.args, *(["--seed", str(seed)] if self.seeded else [])]


def _counts(instances: int) -> dict:
    return {"instances": instances, "passes": instances, "failures": 0}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scaling",
            ("fulton", "--r-max", "3", "--size-max", "12", "--n-list", "2,3"),
            False,
            _counts(19855),
            {"triples": 19855, "scalings": [2, 3]},
        ),
        Workload(
            "crosscheck",
            ("crosscheck", "--r-max", "3", "--n-max", "6", "--s-max", "4", "--trials", "3"),
            True,
            _counts(560),
            {"problems": 560, "with_maps": 167, "traces_audited": 167,
             "intersection_positive": 393},
        ),
        Workload(
            "semistable",
            ("semistable", "--r-max", "4", "--n-max", "7", "--s-max", "4"),
            True,
            _counts(1776),
            {"problems": 1776, "max_clincher": 0},
        ),
        Workload(
            "crosscheck-rational",
            ("crosscheck", "--r-max", "3", "--n-max", "5", "--s-max", "4",
             "--field", "rational"),
            True,
            _counts(176),
            {"problems": 176, "with_maps": 29, "traces_audited": 29,
             "intersection_positive": 147},
        ),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or the package fails to import)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts one child at a time and reaps it, with a deadline for the whole run."""

    def __init__(self, work_dir: str, deadline: float) -> None:
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
        self._seq = 0

    def run(self, argv: list[str], env: dict | None = None) -> ChildResult:
        self._seq += 1
        out_path = os.path.join(self.work_dir, f"child{self._seq}.out")
        err_path = os.path.join(self.work_dir, f"child{self._seq}.err")
        timeout = max(1, int(self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env or self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)

    def keep_going(self, start: float, seconds: float, minimum_met: bool) -> bool:
        """Repeat until `seconds` have passed and the minimum is met, within the deadline."""
        now = time.monotonic()
        if now > self.deadline - DEADLINE_MARGIN_S:
            return False
        return now - start < seconds or not minimum_met

    def setup_probe(self) -> tuple[ChildResult, dict]:
        res = self.run([sys.executable, "-c", SETUP_PROBE])
        if res.code != 0:
            raise BenchError(f"importing fultoncheck.cli failed:\n{res.stderr.strip()}")
        info = json.loads(res.stdout.strip().splitlines()[-1])
        if os.path.realpath(info["package"]) != os.path.realpath(os.path.join(SRC, "fultoncheck")):
            raise BenchError(f"fultoncheck imported from {info['package']}, not from {SRC}")
        return res, info

    def sweep(self, wl: Workload, seed: int, report_path: str, prefix: list[str] | None = None,
              env: dict | None = None) -> tuple[ChildResult, list[str]]:
        """One fresh `fultoncheck` process; returns its result and gate errors."""
        if os.path.exists(report_path):
            os.unlink(report_path)
        head = prefix or [sys.executable, "-c", CLI_LAUNCHER]
        res = self.run([*head, *wl.argv(seed), "--out", report_path], env=env)
        return res, verdict_errors(res, report_path, wl, seed)


def verdict_errors(res: ChildResult, report_path: str, wl: Workload, seed: int) -> list[str]:
    """Differences between one report and the workload's expected verdicts."""
    if res.code != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {res.code} {tail[0]}".rstrip()]
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    errors = []
    if report.get("command") != wl.args[0]:
        errors.append(f"command {report.get('command')!r} != {wl.args[0]!r}")
    if report.get("ok") is not True:
        errors.append(f"ok is {report.get('ok')!r}")
    if report.get("counts") != wl.counts:
        errors.append(f"counts {report.get('counts')} != {wl.counts}")
    extra = report.get("extra") or {}
    for key, want in wl.extra.items():
        if extra.get(key) != want:
            errors.append(f"extra.{key} {extra.get(key)!r} != {want!r}")
    if wl.seeded and report.get("seed") != seed:
        errors.append(f"seed {report.get('seed')!r} != {seed}")
    return errors


def stripped_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("wall_time_s", None)
    return report


# ---------------------------------------------------------------------------
# Statistics and metadata
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def metadata(seed: int, held_out: bool, backend: str) -> dict:
    return {
        "git_sha": git_sha(),
        "rowred_backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "FULTONCHECK_PURE": os.environ.get("FULTONCHECK_PURE", ""),
        "seed": seed,
        "seed_role": "held-out" if held_out else ("development" if seed == DEV_SEED else "other"),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)


def _gate_checks(runner: Runner, wl: Workload, seed: int, backend: str, work: str,
                 say) -> bool:
    """Untimed checks that the gate rejects a planted fault and backends agree."""
    ok = True
    if wl.args[0] in ("fulton", "saturation"):  # the sweeps that call the faulted name
        fault = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "fault", "--"]
        _, errors = runner.sweep(wl, seed, os.path.join(work, "fault.json"), prefix=fault)
        if errors:
            say(f"planted fault: rejected by the verdict gate ({errors[0]})")
        else:
            say("planted fault: NOT rejected; the verdict gate is broken")
            ok = False
    if backend == "compiled":
        compiled_path = os.path.join(work, "compiled.json")
        pure_path = os.path.join(work, "pure.json")
        _, err_c = runner.sweep(wl, seed, compiled_path)
        _, err_p = runner.sweep(wl, seed, pure_path, env=dict(runner.env, FULTONCHECK_PURE="1"))
        same = not err_c and not err_p and (
            stripped_report(compiled_path) == stripped_report(pure_path)
        )
        say(f"backend parity (compiled vs pure report): {'equal' if same else 'DIFFERENT'}")
        ok = ok and same
    return ok


def run_untraced(runner: Runner, wl: Workload, seed: int, seconds: float, work: str,
                 say) -> tuple[int, int, dict]:
    setup, sweep, rss = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while runner.keep_going(start, seconds, attempted >= MIN_REPS):
        probe, _ = runner.setup_probe()
        setup.append(probe.wall_s)
        res, errors = runner.sweep(wl, seed, os.path.join(work, "report.json"))
        attempted += 1
        if errors:
            failed += 1
            say(f"rep {attempted}: FAILED {'; '.join(errors)}")
            continue
        sweep.append(res.wall_s)
        rss.append(res.peak_rss_mb)
    samples = {"setup_s": setup, "sweep_s": sweep, "peak_rss_mb": rss}
    return attempted, failed, samples


def run_traced(runner: Runner, wl: Workload, seed: int, seconds: float, work: str,
               say) -> tuple[int, int, dict, list[dict], bool]:
    trace_root = os.path.join(OUT_DIR, f"trace-{wl.name}")
    shutil.rmtree(trace_root, ignore_errors=True)
    untraced, traced, summaries = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while runner.keep_going(start, seconds, failed > 0 or min(len(traced), len(untraced))
                            >= MIN_TRACED_REPS):
        is_traced = attempted % 2 == 1
        attempted += 1
        if is_traced:
            rep_dir = os.path.join(trace_root, f"rep{len(summaries) + 1}")
            os.makedirs(rep_dir)
            prefix = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "trace", rep_dir, "--"]
            res, errors = runner.sweep(wl, seed, os.path.join(rep_dir, "report.json"), prefix)
        else:
            res, errors = runner.sweep(wl, seed, os.path.join(work, "report.json"))
        if errors:
            failed += 1
            say(f"rep {attempted} ({'traced' if is_traced else 'untraced'}): FAILED "
                f"{'; '.join(errors)}")
            continue
        if is_traced:
            traced.append(res.wall_s)
            with open(os.path.join(rep_dir, "summary.json"), encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        else:
            untraced.append(res.wall_s)
    repeat_ok = True
    for summary in summaries[1:]:
        first = summaries[0]["metrics"]
        for name, value in summary["metrics"].items():
            if _is_count(name) and value != first[name]:
                say(f"trace count {name} did not repeat: {first[name]} vs {value}")
                repeat_ok = False
        if summary["rowred_shapes"] != summaries[0]["rowred_shapes"]:
            say("trace rowred shape histogram did not repeat")
            repeat_ok = False
    samples = {"untraced_sweep_s": untraced, "traced_sweep_s": traced}
    return attempted, failed, samples, summaries, repeat_ok


def _is_count(metric: str) -> bool:
    """Whether a traced metric must repeat exactly at one seed.

    Times do not, and neither does `reports.bytes`: the report's wall time is
    written with all its digits.
    """
    return not (metric.endswith("_s") or ".instance_ms." in metric
                or metric == "reports.bytes")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, held_out: bool,
                 say) -> Outcome:
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
        _, info = runner.setup_probe()  # also writes the bytecode caches
        meta = metadata(seed, held_out, info["backend"])
        say(f"meta {json.dumps(meta, sort_keys=True)}")
        say(f"workload {wl.name}: fultoncheck {' '.join(wl.argv(seed))}")
        gates_ok = _gate_checks(runner, wl, seed, info["backend"], work, say)
        if trace:
            attempted, failed, samples, summaries, repeat_ok = run_traced(
                runner, wl, seed, seconds, work, say)
            return _traced_outcome(wl, attempted, failed, samples, summaries,
                                   gates_ok and repeat_ok, say)
        attempted, failed, samples = run_untraced(runner, wl, seed, seconds, work, say)
        return _untraced_outcome(wl, attempted, failed, samples, gates_ok, say)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced_outcome(wl, attempted, failed, samples, gates_ok, say) -> Outcome:
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        if values:
            value = statistics.median(values)
            metrics[name] = (value, unit)
            say(f"metric {wl.name} {name} = {value:.4f} {unit}  ({spread(values)})")
            say(f"samples {wl.name} {name} {json.dumps([round(v, 4) for v in values])}")
    say(f"metric {wl.name} failed_frac = {failed / attempted:.4f}  ({failed}/{attempted} runs)")
    correct = gates_ok and failed == 0 and len(metrics) == len(END_TO_END_UNITS)
    return Outcome(correct, attempted, failed, metrics)


def _traced_outcome(wl, attempted, failed, samples, summaries, checks_ok, say) -> Outcome:
    untraced, traced = samples["untraced_sweep_s"], samples["traced_sweep_s"]
    say(f"trace {wl.name}: untraced sweep_s {spread(untraced)}; traced sweep_s {spread(traced)}")
    metrics = {}
    if summaries:
        first = summaries[0]["metrics"]
        for name in first:
            if _is_count(name):
                value = first[name]
            else:
                value = statistics.median([s["metrics"][name] for s in summaries])
            metrics[name] = (value, _unit(name))
        shapes = sorted(summaries[0]["rowred_shapes"].items(), key=lambda kv: (-kv[1], kv[0]))
        say(f"trace {wl.name}: {summaries[0]['spans']} spans kept per traced run; rowred shapes "
            + (", ".join(f"{k}: {v}" for k, v in shapes) or "none"))
        layers = {
            layer: statistics.median([s["layers_self_s"][layer] for s in summaries])
            for layer in summaries[0]["layers_self_s"]
        }
        total = sum(layers.values()) or 1.0
        say(f"trace {wl.name}: self time by module " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / total:.0f}%)"
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1]) if v > 0))
    if untraced and traced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        say(f"metric {wl.name} {name} = {value} {unit}")
    say(f"metric {wl.name} failed_frac = {failed / attempted:.4f}  ({failed}/{attempted} runs)")
    correct = checks_ok and failed == 0 and bool(summaries) and "trace.overhead_s" in metrics
    return Outcome(correct, attempted, failed, metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".instance_ms." in name:
        return "ms"
    if name.endswith("ratio") or name.endswith("per_problem"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time fultoncheck sweeps to a verified report.",
        epilog="workloads: " + "; ".join(
            f"{w.name}: fultoncheck {' '.join(w.args)}" for w in WORKLOADS.values()),
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed of the seeded sweeps (default {DEV_SEED}; "
                             "scaling ignores it)")
    parser.add_argument("--held-out", action="store_true",
                        help=f"re-check on a held-out seed (default {HELD_OUT_SEEDS[0]}); "
                             f"refuses the development seed {DEV_SEED}")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long to repeat timed runs (at least 3 are made)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = HELD_OUT_SEEDS[0] if args.held_out else DEV_SEED
    if args.held_out and args.seed == DEV_SEED:
        parser.error(f"--held-out needs a seed other than the development seed {DEV_SEED}")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fultoncheck", "cli.py")):
        print(f"error: no fultoncheck sources under {SRC}", file=sys.stderr)
        return 2

    def say(line: str) -> None:
        print(line, flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.held_out, say)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, outcome in outcomes.items():
        for metric, (value, unit) in outcome.metrics.items():
            key = metric if len(outcomes) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    result = {
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
