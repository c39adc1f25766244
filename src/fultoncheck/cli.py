"""Command-line interface: flag parsing and dispatch.

Subcommands, each run by one `sweeps.cmd_*` function:
  fulton       sweep: a coefficient equals one iff all its scalings equal one
  saturation   sweep: a coefficient vanishes iff all its scalings vanish
  crosscheck   sweep: intersection numbers vs generic map-space dimensions
  semistable   sweep: natural parabolic weights on solvable problems
  filtration   run and audit the kernel filtration for one problem
  lr           one coefficient through both enumeration engines

`COMMANDS` names the flags each subcommand reads, and it takes no others;
every subcommand also takes --seed, --out and --format.  Defaults come from
`SweepConfig()`, and a report records the settings its command does not read
at those defaults.  The master seed comes from --seed, else the
FULTONCHECK_SEED environment variable, else a fixed default; the report
echoes which source was used.

Exit codes: 0 all checks passed, 1 a counterexample or failed audit was
found, 2 usage or configuration error.  An --out or --checkpoint path naming
an existing non-regular file (a directory, FIFO or device), or whose parent
directory does not exist, is refused before any instance runs.  A symbolic
link is written through: the file it names gets the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, NamedTuple

from .field import MAX_TOTAL_TRIALS
from .partitions import Partition, SchubertProblem
from .reports import to_csv_str, to_json_str, write_text
from .sweeps import (
    DEFAULT_SEED,
    ConfigError,
    SweepConfig,
    cmd_crosscheck,
    cmd_filtration,
    cmd_fulton,
    cmd_lr,
    cmd_saturation,
    cmd_semistable,
)

_DEFAULTS = SweepConfig()
# Flags whose destination is a `SweepConfig` field; the seed is resolved apart.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SweepConfig)} - {"seed"}


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


_FLAGS = {
    "--r-max": dict(type=int, default=_DEFAULTS.r_max,
                    help="largest subspace dimension / partition length"),
    "--size-max": dict(type=int, default=_DEFAULTS.size_max,
                       help="largest total partition size for coefficient sweeps"),
    "--n-list": dict(type=_parse_int_list, default=_DEFAULTS.n_list,
                     help="comma-separated scaling factors, e.g. 2,3"),
    "--n-max": dict(type=int, default=_DEFAULTS.n_max,
                    help="largest ambient dimension for intersection sweeps"),
    "--s-max": dict(type=int, default=_DEFAULTS.s_max,
                    help="largest number of conditions per problem"),
    "--trials": dict(type=int, default=_DEFAULTS.trials,
                     help="consecutive agreeing samples required for a generic value "
                          "that no sample certifies at its proven floor "
                          f"(at most {MAX_TOTAL_TRIALS}, the samples drawn per value)"),
    "--field": dict(default=_DEFAULTS.field_name, dest="field_name",
                    help="coefficient field: prime, prime:P, or rational"),
    "--checkpoint": dict(default=_DEFAULTS.checkpoint,
                         help="checkpoint file for resumable sweeps"),
    "--problem": dict(required=True,
                      help='problem text, e.g. "1,4@4;2,3@4" for two conditions in C^4'),
    "--mu": dict(type=Partition.parse, required=True, help='first factor, e.g. "2,1"'),
    "--nu": dict(type=Partition.parse, required=True, help='second factor, e.g. "2,1"'),
    "--lam": dict(type=Partition.parse, required=True, help='target shape, e.g. "3,2,1"'),
    # Every subcommand takes these: every report records its seed, and any
    # report can be written to a file in either format.
    "--seed": dict(type=int, default=None,
                   help="master seed (falls back to FULTONCHECK_SEED, then default)"),
    "--out": dict(default=None, help="write the report to this path instead of stdout"),
    "--format": dict(choices=["json", "csv"], default="json", dest="fmt",
                     help="report format"),
}
_REPORT_FLAGS = ("--seed", "--out", "--format")


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]
    run: Callable[[argparse.Namespace, SweepConfig, str], dict]


_SCALING_FLAGS = ("--r-max", "--size-max", "--n-list", "--checkpoint")

# Every entry looks its `cmd_*` up when it runs, so a wrapper installed on
# this module (as `perfbench/tracing.py` installs one) is the one called.
COMMANDS = {
    "fulton": Command("check that multiplicity one is preserved under scaling",
                      _SCALING_FLAGS,
                      lambda args, cfg, src: cmd_fulton(cfg, seed_source=src)),
    "saturation": Command("check that vanishing is preserved under scaling",
                          _SCALING_FLAGS,
                          lambda args, cfg, src: cmd_saturation(cfg, seed_source=src)),
    "crosscheck": Command("compare intersection numbers with generic map-space ranks",
                          ("--r-max", "--n-max", "--s-max", "--trials", "--field",
                           "--checkpoint"),
                          lambda args, cfg, src: cmd_crosscheck(cfg, seed_source=src)),
    "semistable": Command("check parabolic semistability on solvable problems",
                          ("--r-max", "--n-max", "--s-max", "--checkpoint"),
                          lambda args, cfg, src: cmd_semistable(cfg, seed_source=src)),
    "filtration": Command("run and audit the kernel filtration for one problem",
                          ("--problem", "--trials", "--field"),
                          lambda args, cfg, src: cmd_filtration(
                              cfg, SchubertProblem.parse(args.problem), seed_source=src)),
    "lr": Command("compute one coefficient with both engines",
                  ("--mu", "--nu", "--lam"),
                  lambda args, cfg, src: cmd_lr(cfg, args.mu, args.nu, args.lam,
                                                seed_source=src)),
}


class _SubcommandParser(argparse.ArgumentParser):
    """Refuses flags its subcommand does not take, under its own usage line.

    A plain subparser hands leftover arguments to the top-level parser, whose
    error would print the top-level usage instead of the subcommand's flags.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fultoncheck",
        description="Exact verification sweeps for Schubert-calculus identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in (*command.flags, *_REPORT_FLAGS):
            p.add_argument(flag, **_FLAGS[flag])
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


def _check_target(flag: str, path: str | None) -> None:
    """Refuse a report or checkpoint path that cannot be written, before any work."""
    if not path:
        return
    if os.path.exists(path) and not os.path.isfile(path):  # the rename would replace it
        raise ConfigError(f"{flag} {path} is not a regular file")
    parent = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path}: {parent} is not an existing directory")


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = to_json_str(report) if args.fmt == "json" else to_csv_str(report)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _check_target("--out", args.out)
        _check_target("--checkpoint", getattr(args, "checkpoint", None))
        seed, seed_source = _resolve_seed(args)
        given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
        cfg = SweepConfig(**given, seed=seed)
        report = COMMANDS[args.command].run(args, cfg, seed_source)
        _emit(report, args)
    except (ConfigError, ValueError, OSError) as exc:
        # OSError: a report or checkpoint path that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
