"""Command-line interface.

Subcommands:
  fulton       sweep: a coefficient equals one iff all its scalings equal one
  saturation   sweep: a coefficient vanishes iff all its scalings vanish
  crosscheck   sweep: intersection numbers vs generic map-space dimensions
  semistable   sweep: natural parabolic weights on solvable problems
  filtration   run and audit the kernel filtration for one problem
  lr           one coefficient through both enumeration engines

Exit codes: 0 all checks passed, 1 a counterexample or failed audit was
found, 2 usage or configuration error (including a report or checkpoint
path that cannot be written).  The master seed comes from --seed,
else the FULTONCHECK_SEED environment variable, else a fixed default; the
report echoes which source was used.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .field import field_from_name
from .filtration import (
    FiltrationError,
    run_filtration_random,
    trace_to_dict,
    verify_trace,
)
from .homspace import GenericityError
from .linalg import SamplingError
from .littlewood import lr_coefficient, lr_coefficient_pieri
from .partitions import Partition, SchubertProblem
from .reports import make_report, to_csv_str, to_json_str, write_text
from .sweeps import (
    DEFAULT_SEED,
    ConfigError,
    SweepConfig,
    cmd_crosscheck,
    cmd_fulton,
    cmd_saturation,
    cmd_semistable,
    rng_for,
)

_SWEEPS = {
    "fulton": cmd_fulton,
    "saturation": cmd_saturation,
    "crosscheck": cmd_crosscheck,
    "semistable": cmd_semistable,
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r-max", type=int, default=2, dest="r_max",
                        help="largest subspace dimension / partition length")
    parser.add_argument("--size-max", type=int, default=6, dest="size_max",
                        help="largest total partition size for coefficient sweeps")
    parser.add_argument("--n-list", type=_parse_int_list, default=(2,), dest="n_list",
                        help="comma-separated scaling factors, e.g. 2,3")
    parser.add_argument("--n-max", type=int, default=5, dest="n_max",
                        help="largest ambient dimension for intersection sweeps")
    parser.add_argument("--s-max", type=int, default=3, dest="s_max",
                        help="largest number of conditions per problem")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (falls back to FULTONCHECK_SEED, then default)")
    parser.add_argument("--trials", type=int, default=3,
                        help="consecutive agreeing samples required for generic values")
    parser.add_argument("--field", default="prime",
                        help="coefficient field: prime, prime:P, or rational")
    parser.add_argument("--out", default=None,
                        help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt",
                        help="report format")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint file for resumable sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fultoncheck",
        description="Exact verification sweeps for Schubert-calculus identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("fulton", "check that multiplicity one is preserved under scaling"),
        ("saturation", "check that vanishing is preserved under scaling"),
        ("crosscheck", "compare intersection numbers with generic map-space ranks"),
        ("semistable", "check parabolic semistability on solvable problems"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("filtration", help="run and audit the kernel filtration for one problem")
    _add_common(p)
    p.add_argument("--problem", required=True,
                   help='problem text, e.g. "1,4@4;2,3@4" for two conditions in C^4')

    p = sub.add_parser("lr", help="compute one coefficient with both engines")
    _add_common(p)
    p.add_argument("--mu", type=Partition.parse, required=True, help='first factor, e.g. "2,1"')
    p.add_argument("--nu", type=Partition.parse, required=True, help='second factor, e.g. "2,1"')
    p.add_argument("--lam", type=Partition.parse, required=True, help='target shape, e.g. "3,2,1"')

    return parser


def _resolve_seed(args: argparse.Namespace) -> tuple[int, str]:
    if args.seed is not None:
        return args.seed, "flag"
    env = os.environ.get("FULTONCHECK_SEED")
    if env is not None:
        try:
            return int(env), "env"
        except ValueError as exc:
            raise ConfigError(f"FULTONCHECK_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED, "default"


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = to_json_str(report) if args.fmt == "json" else to_csv_str(report)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _run_filtration(args: argparse.Namespace, seed: int, seed_source: str) -> int:
    started = time.perf_counter()
    problem = SchubertProblem.parse(args.problem)
    fld = field_from_name(args.field)
    config = {
        "problem": problem.text(),
        "trials": args.trials,
        "field": args.field,
    }
    try:
        trace = run_filtration_random(
            problem,
            rng_for(seed, f"filtration:{problem.text()}"),
            fld,
            trials=args.trials,
            seed=seed,
        )
        audit = verify_trace(trace)
    except (GenericityError, FiltrationError, SamplingError) as exc:
        report = make_report(
            command="filtration",
            config=config,
            field_name=args.field,
            seed=seed,
            seed_source=seed_source,
            instances=1,
            failures=1,
            counterexamples=[{"kind": "run_error", "problem": problem.text(),
                              "error": str(exc)}],
            extra=None,
            wall_time_s=time.perf_counter() - started,
        )
        _emit(report, args)
        return 1
    counterexamples = []
    if not audit.ok:
        counterexamples.append(
            {
                "kind": "trace_audit_failed",
                "problem": problem.text(),
                "failed_checks": [k for k, v in audit.checks.items() if not v],
            }
        )
    report = make_report(
        command="filtration",
        config=config,
        field_name=args.field,
        seed=seed,
        seed_source=seed_source,
        instances=1,
        failures=0 if audit.ok else 1,
        counterexamples=counterexamples,
        extra={"trace": trace_to_dict(trace, audit)},
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report, args)
    return 0 if audit.ok else 1


def _run_lr(args: argparse.Namespace, seed: int, seed_source: str) -> int:
    started = time.perf_counter()
    mu, nu, lam = args.mu, args.nu, args.lam
    by_tableau = lr_coefficient(mu, nu, lam)
    by_pieri = lr_coefficient_pieri(mu, nu, lam)
    ok = by_tableau == by_pieri
    counterexamples = []
    if not ok:
        counterexamples.append(
            {
                "kind": "engine_mismatch",
                "mu": mu.text(),
                "nu": nu.text(),
                "lam": lam.text(),
                "tableau_engine": by_tableau,
                "pieri_engine": by_pieri,
            }
        )
    report = make_report(
        command="lr",
        config={"mu": mu.text(), "nu": nu.text(), "lam": lam.text()},
        field_name=args.field,
        seed=seed,
        seed_source=seed_source,
        instances=1,
        failures=0 if ok else 1,
        counterexamples=counterexamples,
        extra={"coefficient": by_tableau, "tableau_engine": by_tableau,
               "pieri_engine": by_pieri},
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report, args)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        seed, seed_source = _resolve_seed(args)

        if args.command in _SWEEPS:
            cfg = SweepConfig(
                r_max=args.r_max,
                size_max=args.size_max,
                n_list=tuple(args.n_list),
                n_max=args.n_max,
                s_max=args.s_max,
                seed=seed,
                trials=args.trials,
                field_name=args.field,
                checkpoint=args.checkpoint,
            )
            report = _SWEEPS[args.command](cfg, seed_source=seed_source)
            _emit(report, args)
            return 0 if report["ok"] else 1

        if args.command == "filtration":
            return _run_filtration(args, seed, seed_source)

        if args.command == "lr":
            return _run_lr(args, seed, seed_source)
    except (ConfigError, ValueError, OSError) as exc:
        # OSError: a report or checkpoint path that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    raise AssertionError(f"unhandled command: {args.command}")


if __name__ == "__main__":
    sys.exit(main())
