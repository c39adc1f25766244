"""Verification sweeps over families of coefficient and intersection problems.

Each sweep enumerates a deterministic list of instances, checks one property
per instance, and assembles a report.  Randomness is derived per instance from
the master seed via a keyed hash, so sweeps can be checkpointed and resumed
with byte-identical results: restarting at instance k draws exactly the same
random streams as an uninterrupted run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .cohomology import intersection_number, nonvanishing_positions
from .field import Field, field_from_name
from .filtration import FiltrationError, run_filtration_random, trace_to_dict, verify_trace
from .homspace import DEFAULT_TRIALS, GenericityError, generic_hom_dim
from .linalg import SamplingError
from .littlewood import lr_coefficient as _lr_tableau
from .partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    all_index_sets,
    partitions_with,
)
from .reports import make_report, write_text
from .semistability import ParabolicWeights, clincher, find_violations

# Module-level reference so tests can substitute a deliberately corrupted
# coefficient routine and watch the sweep catch it.
lr_coefficient = _lr_tableau

DEFAULT_SEED = 1
CHECKPOINT_EVERY = 10_000


class ConfigError(ValueError):
    """A sweep configuration failed validation."""


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for every sweep command."""

    r_max: int = 2
    size_max: int = 6
    n_list: tuple[int, ...] = (2,)
    n_max: int = 5
    s_max: int = 3
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    field_name: str = "prime"
    checkpoint: str | None = None

    def validate(self) -> None:
        if self.r_max < 1:
            raise ConfigError("r_max must be at least 1")
        if self.size_max < 0:
            raise ConfigError("size_max must be nonnegative")
        if not self.n_list:
            raise ConfigError("n_list must not be empty")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("every scaling factor in n_list must be at least 1")
        if self.n_max < 2:
            raise ConfigError("n_max must be at least 2")
        if self.s_max < 1:
            raise ConfigError("s_max must be at least 1")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        try:
            field_from_name(self.field_name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        return {
            "r_max": self.r_max,
            "size_max": self.size_max,
            "n_list": list(self.n_list),
            "n_max": self.n_max,
            "s_max": self.s_max,
            "seed": self.seed,
            "trials": self.trials,
            "field": self.field_name,
        }

    def field(self) -> Field:
        return field_from_name(self.field_name)


def derive_seed(master: int, part: str) -> int:
    """Derive an independent 64-bit seed for one named part of a sweep."""
    digest = hashlib.blake2b(f"{master}:{part}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rng_for(master: int, part: str) -> random.Random:
    """A fresh generator seeded deterministically from (master, part)."""
    return random.Random(derive_seed(master, part))


# ---------------------------------------------------------------------------
# Instance enumeration
# ---------------------------------------------------------------------------


def enumerate_triples(
    r_max: int, size_max: int
) -> Iterator[tuple[Partition, Partition, Partition]]:
    """All (mu, nu, lam) with at most r_max rows, |mu|+|nu| = |lam| <= size_max.

    Ordered by total size, then |mu|, then the descending-lex order of the
    individual partitions, so the sequence is stable across runs.  The
    partitions of each size are built once and shared: equal partitions in
    different triples are the same object.
    """
    by_size = [tuple(partitions_with(size, r_max)) for size in range(size_max + 1)]
    for total in range(size_max + 1):
        for mu_size in range(total + 1):
            for mu in by_size[mu_size]:
                for nu in by_size[total - mu_size]:
                    for lam in by_size[total]:
                        yield (mu, nu, lam)


def enumerate_problems(
    r_max: int, n_max: int, s_max: int
) -> Iterator[SchubertProblem]:
    """All expected-dimension-zero problems in the given ranges.

    Requires 1 <= r < n (both the subspace and the quotient are nonzero) and
    total codimension exactly r*(n-r).  Condition lists are enumerated as
    multisets: the quantities checked downstream are invariant under
    permuting the conditions.

    The multisets are nondecreasing index tuples into the lexicographic list
    of index sets, found by a depth-first search that computes each set's
    codimension once per (n, r) and prunes any branch whose codimension
    already exceeds r*(n-r).  The order is that of
    `itertools.combinations_with_replacement` filtered by total codimension,
    which fixes the instance indices and the checkpoint digest.
    """
    for n in range(2, n_max + 1):
        for r in range(1, min(r_max, n - 1) + 1):
            sets = all_index_sets(n, r)
            codims = [ix.codim() for ix in sets]
            target = r * (n - r)
            for s in range(1, s_max + 1):
                for combo in _multisets_with_sum(codims, s, target):
                    yield SchubertProblem(n, r, tuple(sets[i] for i in combo))


def _multisets_with_sum(
    weights: list[int], size: int, total: int, start: int = 0
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing `size`-tuples of indices >= `start` into the nonnegative
    `weights` whose weights sum to `total`, in lexicographic order."""
    if size == 1:
        for i in range(start, len(weights)):
            if weights[i] == total:
                yield (i,)
        return
    for i in range(start, len(weights)):
        w = weights[i]
        if w <= total:
            for rest in _multisets_with_sum(weights, size - 1, total - w, i):
                yield (i, *rest)


# ---------------------------------------------------------------------------
# Checkpointed sweep driver
# ---------------------------------------------------------------------------


def _instance_text(item) -> str:
    """Canonical text of one sweep instance: a problem or a partition triple."""
    if isinstance(item, tuple):
        return " ".join(part.text() for part in item)
    return item.text()


def _config_fingerprint(command: str, cfg: SweepConfig, items: list) -> str:
    """Digest of everything a checkpoint's partial results depend on.

    Besides the command and configuration this covers the tool version and
    the exact instance list, so a resume never lands on a different instance
    after the enumeration order changes.
    """
    from . import __version__

    items_digest = hashlib.blake2b(digest_size=16)
    for item in items:
        items_digest.update(_instance_text(item).encode() + b"\n")
    payload = {
        "command": command,
        "version": __version__,
        "items": items_digest.hexdigest(),
        **cfg.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _write_checkpoint(path: str, data: dict) -> None:
    write_text(path, json.dumps(data, sort_keys=True) + "\n")


def _run_sweep(
    command: str,
    cfg: SweepConfig,
    items: list,
    check: Callable[[int, object, dict], list[dict]],
    state: dict,
) -> tuple[int, int, list[dict], dict]:
    """Run `check` over `items` with optional checkpoint/resume.

    `check(index, item, state)` returns the counterexample records for that
    instance (empty when it passes) and may update `state` (JSON-plain
    counters that the report's `extra` section is built from).  Returns
    (instances, failures, counterexamples, state).
    """
    fingerprint = _config_fingerprint(command, cfg, items) if cfg.checkpoint else None
    start_index = 0
    failures = 0
    counterexamples: list[dict] = []

    if cfg.checkpoint and os.path.exists(cfg.checkpoint):
        with open(cfg.checkpoint, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        next_index = saved.get("next_index")
        if (
            saved.get("fingerprint") == fingerprint
            and isinstance(next_index, int)
            and 0 <= next_index <= len(items)
        ):
            start_index = next_index
            failures = saved["failures"]
            counterexamples = saved["counterexamples"]
            state = saved["state"]

    for index in range(start_index, len(items)):
        records = check(index, items[index], state)
        if records:
            failures += 1
            counterexamples.extend(records)
        done = index + 1
        if cfg.checkpoint and done % CHECKPOINT_EVERY == 0:
            _write_checkpoint(
                cfg.checkpoint,
                {
                    "fingerprint": fingerprint,
                    "command": command,
                    "next_index": done,
                    "failures": failures,
                    "counterexamples": counterexamples,
                    "state": state,
                },
            )

    if cfg.checkpoint:
        _write_checkpoint(
            cfg.checkpoint,
            {
                "fingerprint": fingerprint,
                "command": command,
                "next_index": len(items),
                "failures": failures,
                "counterexamples": counterexamples,
                "state": state,
            },
        )

    return len(items), failures, counterexamples, state


def _finish(
    command: str,
    cfg: SweepConfig,
    seed_source: str,
    instances: int,
    failures: int,
    counterexamples: list[dict],
    extra: dict,
    started: float,
) -> dict:
    return make_report(
        command=command,
        config=cfg.as_dict(),
        field_name=cfg.field_name,
        seed=cfg.seed,
        seed_source=seed_source,
        instances=instances,
        failures=failures,
        counterexamples=counterexamples,
        extra=extra,
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Sweep commands
# ---------------------------------------------------------------------------


def _scaling_sweep(
    cfg: SweepConfig,
    command: str,
    predicate: Callable[[int], bool],
    kind: str,
    seed_source: str,
) -> dict:
    """Check that `predicate` holds for a coefficient iff it holds for each scaling.

    The coefficient routine is the module global `lr_coefficient`, looked up
    at call time, so a substituted routine is the one under test, for the
    scaled coefficients too.  Each distinct partition is scaled once per
    factor, through a cache that lives for one call.
    """
    cfg.validate()
    started = time.perf_counter()
    items = list(enumerate_triples(cfg.r_max, cfg.size_max))
    scale = functools.cache(Partition.scale)

    def check(index: int, item, state: dict) -> list[dict]:
        mu, nu, lam = item
        c = lr_coefficient(mu, nu, lam)
        records = []
        for factor in cfg.n_list:
            scaled = lr_coefficient(scale(mu, factor), scale(nu, factor), scale(lam, factor))
            if predicate(c) != predicate(scaled):
                records.append(
                    {
                        "kind": kind,
                        "index": index,
                        "mu": mu.text(),
                        "nu": nu.text(),
                        "lam": lam.text(),
                        "scaling": factor,
                        "coefficient": c,
                        "coefficient_scaled": scaled,
                    }
                )
        return records

    instances, failures, cxs, state = _run_sweep(command, cfg, items, check, {})
    extra = {"triples": instances, "scalings": list(cfg.n_list)}
    return _finish(command, cfg, seed_source, instances, failures, cxs, extra, started)


def cmd_fulton(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Check that a coefficient equals one iff all its scalings equal one."""
    return _scaling_sweep(
        cfg, "fulton", lambda c: c == 1, "multiplicity_one_not_preserved", seed_source
    )


def cmd_saturation(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Check that a coefficient vanishes iff all its scalings vanish."""
    return _scaling_sweep(
        cfg, "saturation", lambda c: c == 0, "vanishing_not_preserved", seed_source
    )


def cmd_crosscheck(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Cross-validate combinatorial counts against generic linear algebra.

    For every expected-dimension-zero problem in range: the intersection
    number is positive iff the generic map-space dimension is zero.  Whenever
    the map space is nonzero, additionally run the kernel filtration and audit
    the resulting trace.
    """
    cfg.validate()
    started = time.perf_counter()
    fld = cfg.field()
    items = list(enumerate_problems(cfg.r_max, cfg.n_max, cfg.s_max))
    state = {"with_maps": 0, "traces_audited": 0, "intersection_positive": 0}

    def check(index: int, problem: SchubertProblem, state: dict) -> list[dict]:
        records = []
        number = intersection_number(problem)
        if number > 0:
            state["intersection_positive"] += 1
        try:
            result = generic_hom_dim(
                problem,
                rng_for(cfg.seed, f"hom:{problem.text()}"),
                fld,
                trials=cfg.trials,
            )
            if (number > 0) != (result.dim == 0):
                records.append(
                    {
                        "kind": "count_rank_mismatch",
                        "index": index,
                        "problem": problem.text(),
                        "intersection_number": number,
                        "generic_hom_dim": result.dim,
                        "samples": result.samples,
                    }
                )
            if result.dim > 0:
                state["with_maps"] += 1
                trace = run_filtration_random(
                    problem,
                    rng_for(cfg.seed, f"trace:{problem.text()}"),
                    fld,
                    trials=cfg.trials,
                    seed=cfg.seed,
                )
                audit = verify_trace(trace)
                state["traces_audited"] += 1
                if not audit.ok:
                    records.append(
                        {
                            "kind": "trace_audit_failed",
                            "index": index,
                            "problem": problem.text(),
                            "failed_checks": [k for k, v in audit.checks.items() if not v],
                            "trace": trace_to_dict(trace, audit),
                        }
                    )
        except (GenericityError, FiltrationError, SamplingError) as exc:
            # A field too small for genericity fails the instance, not the sweep.
            records.append(
                {
                    "kind": "run_error",
                    "index": index,
                    "problem": problem.text(),
                    "error": str(exc),
                }
            )
        return records

    instances, failures, cxs, state = _run_sweep(command := "crosscheck", cfg, items, check, state)
    extra = {"problems": instances, **state}
    return _finish(command, cfg, seed_source, instances, failures, cxs, extra, started)


def cmd_semistable(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Check semistability of the natural weights on solvable problems.

    For every expected-dimension-zero problem in range with positive
    intersection number: the parabolic weights read off from the conditions
    are generically semistable, every candidate subspace position has
    nonpositive clincher value, and the two statements agree with each other.
    """
    cfg.validate()
    started = time.perf_counter()
    items = [
        problem
        for problem in enumerate_problems(cfg.r_max, cfg.n_max, cfg.s_max)
        if intersection_number(problem) > 0
    ]
    state = {"max_clincher": None}

    def check(index: int, problem: SchubertProblem, state: dict) -> list[dict]:
        records = []
        weights = ParabolicWeights.from_problem(problem)
        violations = find_violations(weights)
        values: list[tuple[int, tuple[IndexSet, ...], int]] = []
        for d in range(1, problem.r - 1 + 1):
            for positions in nonvanishing_positions(d, problem.r, problem.s):
                values.append((d, positions, clincher(problem, positions)))
        if values:
            worst = max(v for _, _, v in values)
            if state["max_clincher"] is None or worst > state["max_clincher"]:
                state["max_clincher"] = worst
        if violations:
            v = violations[0]
            records.append(
                {
                    "kind": "not_semistable",
                    "index": index,
                    "problem": problem.text(),
                    "d": v.d,
                    "positions": [k.text() for k in v.positions],
                    "slope_sub": str(v.slope_sub),
                    "slope_total": str(v.slope_total),
                }
            )
        for d, positions, value in values:
            if value > 0:
                records.append(
                    {
                        "kind": "positive_clincher",
                        "index": index,
                        "problem": problem.text(),
                        "d": d,
                        "positions": [k.text() for k in positions],
                        "value": value,
                    }
                )
        clinchers_ok = all(v <= 0 for _, _, v in values)
        if clinchers_ok != (not violations):
            records.append(
                {
                    "kind": "slope_clincher_disagreement",
                    "index": index,
                    "problem": problem.text(),
                    "semistable": not violations,
                    "all_clinchers_nonpositive": clinchers_ok,
                }
            )
        return records

    instances, failures, cxs, state = _run_sweep(command := "semistable", cfg, items, check, state)
    extra = {"problems": instances, **state}
    return _finish(command, cfg, seed_source, instances, failures, cxs, extra, started)
