"""The command layer: each subcommand, from a validated config to its report.

Each sweep streams a deterministic sequence of instances, checks one property
per instance, and assembles a report; `semistable` streams every problem and
counts the solvable ones as instances, and `filtration` and `lr` check one.
Randomness is derived per instance from the master seed via a keyed hash, so
sweeps can be checkpointed and resumed with byte-identical results: resuming
at item k of the stream draws the same random streams as an uninterrupted run.
A solver fault (`field.SolverFault`) fails its instance, not the run; a field
too small to sample is refused (`_refuse_small_field`); and `_finish`
assembles every report.

At import this module loads only the layers every command uses (partitions,
the LR engines, fields and reports).  A command body imports the rest when it
runs: `semistable` the cohomology and semistability layers, `crosscheck` and
`filtration` also the linear algebra; `_blake2b` loads BLAKE2 to hash.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from .field import (DEFAULT_TRIALS, MAX_TOTAL_TRIALS, Field, SolverFault, field_from_name,
                    least_prime_from)
from .littlewood import _lr
from .littlewood import lr_coefficient as _lr_tableau
from .littlewood import lr_coefficient_pieri
from .partitions import (
    IndexSet,
    Partition,
    SchubertProblem,
    all_index_sets,
    partitions_with,
)
from .reports import make_report, write_text

if TYPE_CHECKING:
    from .filtration import FiltrationTrace, TraceAudit

# Module-level reference so tests can substitute a deliberately corrupted
# coefficient routine and watch the sweeps and `lr` catch it.
lr_coefficient = _lr_tableau


DEFAULT_SEED = 1
CHECKPOINT_EVERY = 10_000
_UNSOLVABLE = (None, [])  # `cmd_semistable`'s verdict on a core with intersection number 0

T = TypeVar("T")


class ConfigError(ValueError):
    """A sweep configuration failed validation."""


@dataclass(frozen=True)
class SweepConfig:
    """Shared knobs for every command; an invalid setting raises `ConfigError`
    on construction."""

    r_max: int = 2
    size_max: int = 6
    n_list: tuple[int, ...] = (2,)
    n_max: int = 5
    s_max: int = 3
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    field_name: str = "prime"
    checkpoint: str | None = None

    def __post_init__(self) -> None:
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
        if self.trials > MAX_TOTAL_TRIALS:
            raise ConfigError(
                f"trials must be at most {MAX_TOTAL_TRIALS}, the cap on samples per generic value"
            )
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


def _blake2b(data: bytes = b"", digest_size: int = 16):
    """BLAKE2b from CPython's `_blake2`, the `blake2b` that `hashlib` returns,
    imported at the first hash: `import hashlib` would also load OpenSSL."""
    from _blake2 import blake2b
    return blake2b(data, digest_size=digest_size)


def derive_seed(master: int, part: str) -> int:
    """Derive an independent 64-bit seed for one named part of a sweep."""
    digest = _blake2b(f"{master}:{part}".encode(), digest_size=8).digest()
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
    which fixes the instance indices that a checkpoint resumes at.
    """
    for n in range(2, n_max + 1):
        for r in range(1, min(r_max, n - 1) + 1):
            sets = all_index_sets(n, r)
            codims = [ix.codim() for ix in sets]
            target = r * (n - r)
            for s in range(1, s_max + 1):
                for combo in _multisets_with_sum(codims, s, target):
                    yield SchubertProblem(n, r, tuple(sets[i] for i in combo))


def _multisets_with_sum(weights: list[int], size: int, total: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing `size`-tuples (size >= 1) of indices into the nonnegative
    `weights` whose weights sum to `total`, in lexicographic order.

    A depth-first search with an explicit stack, so that `size` is not bounded
    by the recursion limit and each tuple costs O(size) to yield."""
    n = len(weights)
    combo = [0] * size  # combo[k]: the next index to try at position k
    left = [total] * size  # left[k]: `total` minus the weights of combo[:k]
    k = 0
    while k >= 0:
        i, need, last = combo[k], left[k], k == size - 1
        while i < n and (weights[i] != need if last else weights[i] > need):
            i += 1
        if i == n:  # position k is exhausted: advance the one before it
            k -= 1
            if k >= 0:
                combo[k] += 1
        elif last:
            combo[k] = i
            yield tuple(combo)
            combo[k] = i + 1
        else:
            combo[k] = combo[k + 1] = i
            left[k + 1] = need - weights[i]
            k += 1


# ---------------------------------------------------------------------------
# Checkpointed sweep driver
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """Digest of the package's own `*.py` files, by name and bytes."""
    digest = _blake2b()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _config_fingerprint(command: str, cfg: SweepConfig) -> str:
    """Digest of everything a checkpoint's partial results depend on.

    Besides the command and configuration this covers the tool version and
    the package's source.  A sweep's instances are a function of the source
    and the configuration, so a resume never lands on a different instance
    after the enumeration order changes, and never takes results from other
    code as checked.
    """
    from . import __version__

    payload = {"command": command, "version": __version__, "source": _source_digest(),
               **cfg.as_dict()}
    return _blake2b(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _load_checkpoint(
    path: str, fingerprint: str, fresh_state: dict
) -> tuple[int, int, list[dict], dict] | None:
    """The (next_index, failures, counterexamples, state) saved at `path`.

    A missing file, a file that is not JSON or is nested too deeply to parse,
    another fingerprint, or any field of the wrong type or out of range gives
    None, and the sweep starts over:
    a checkpoint never makes a sweep skip instances it has not checked.  The
    state must have the keys of `fresh_state`, each holding an int or a value
    of its fresh type (the sweeps' counters are ints, or None before a first
    value).  A key that is 0 in `fresh_state` is a count of items, at most
    one per item, so it must lie in [0, next_index]; a key that starts as
    None (`semistable`'s `max_clincher`, a maximum) has no range.  A
    `next_index` past the stream's end is caught by `_run_sweep`, whose stream
    then ends before it.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except (ValueError, RecursionError):
        return None
    if not isinstance(saved, dict) or saved.get("fingerprint") != fingerprint:
        return None
    next_index = saved.get("next_index")
    failures = saved.get("failures")
    counterexamples = saved.get("counterexamples")
    state = saved.get("state")
    if (
        type(next_index) is int
        and 0 <= next_index
        and type(failures) is int
        and 0 <= failures <= next_index
        and isinstance(counterexamples, list)
        and (failures == 0) == (not counterexamples)
        and isinstance(state, dict)
        and state.keys() == fresh_state.keys()
        and all(
            type(state[k]) in (int, type(v)) and (v is None or 0 <= state[k] <= next_index)
            for k, v in fresh_state.items()
        )
    ):
        return next_index, failures, counterexamples, state
    return None


def _run_sweep(
    command: str,
    cfg: SweepConfig,
    items: Callable[[], Iterable],
    check: Callable[[int, object, dict], list[dict]],
    state: dict,
) -> tuple[int, int, list[dict], dict]:
    """Run `check` over the items `items()` yields, with optional
    checkpoint/resume.

    The items are streamed once: a resume skips the first `next_index`
    unchecked, and only a checkpoint whose `next_index` lies past the end of
    the stream makes the sweep start over on a fresh `items()`.  `check(index,
    item, state)` returns the counterexample records for that item (empty when
    it passes) and may update `state` (JSON-plain counters that the report's
    `extra` section is built from).  Returns (the stream's length, failures,
    counterexamples, state); `semistable` counts its instances in `state`.
    """
    fingerprint = None
    start_index = 0
    failures = 0
    counterexamples: list[dict] = []
    stream = iter(items())
    if cfg.checkpoint:
        fingerprint = _config_fingerprint(command, cfg)
        saved = _load_checkpoint(cfg.checkpoint, fingerprint, state)
        if saved is not None:
            next_index = saved[0]
            if sum(1 for _ in islice(stream, next_index)) == next_index:
                start_index, failures, counterexamples, state = saved
            else:  # a forged index past the last instance
                stream = iter(items())

    def save(next_index: int) -> None:
        data = {
            "fingerprint": fingerprint,
            "command": command,
            "next_index": next_index,
            "failures": failures,
            "counterexamples": counterexamples,
            "state": state,
        }
        write_text(cfg.checkpoint, json.dumps(data, sort_keys=True) + "\n")

    done = start_index
    for index, item in enumerate(stream, start_index):
        records = check(index, item, state)
        if records:
            failures += 1
            counterexamples.extend(records)
        done = index + 1
        if cfg.checkpoint and done % CHECKPOINT_EVERY == 0:
            save(done)

    if cfg.checkpoint:
        save(done)

    return done, failures, counterexamples, state


def _finish(command: str, config: dict, cfg: SweepConfig, seed_source: str, instances: int,
            failures: int, counterexamples: list[dict], extra: dict | None,
            started: float) -> dict:
    """The report of one command run; `config` holds the settings it read."""
    return make_report(
        command=command,
        config=config,
        field_name=cfg.field_name,
        seed=cfg.seed,
        seed_source=seed_source,
        instances=instances,
        failures=failures,
        counterexamples=counterexamples,
        extra=extra,
        wall_time_s=time.perf_counter() - started,
    )


def _refuse_small_field(fld: Field, rho: int) -> None:
    """Raise `ConfigError` when one chart sample of rank up to `rho` may miss
    the generic rank with probability above `MAX_MISS_BOUND` (the bound is
    2 rho / p, `homspace.miss_bound`): it could report a false counterexample."""
    from .homspace import MAX_MISS_BOUND, miss_bound

    if miss_bound(rho, fld) > MAX_MISS_BOUND:
        raise ConfigError(
            f"field {fld.name} is too small for this range: one sample misses the "
            f"generic rank with probability up to 2*rho/p = {2 * rho}/{fld.sample_size} "
            f"(rho = {rho}), above {float(MAX_MISS_BOUND):g}; the smallest prime "
            f"accepted is prime:{least_prime_from(math.ceil(2 * rho / MAX_MISS_BOUND))}"
        )


def _audited_trace(
    cfg: SweepConfig, fld: Field, problem: SchubertProblem, stream: str
) -> tuple[FiltrationTrace, TraceAudit]:
    """The kernel filtration at flags drawn from the named random stream, and its audit."""
    from .filtration import run_filtration_random, verify_trace

    rng = rng_for(cfg.seed, f"{stream}:{problem.text()}")
    trace = run_filtration_random(problem, rng, fld, trials=cfg.trials, seed=cfg.seed)
    return trace, verify_trace(trace)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _engine_mismatch(mu: Partition, nu: Partition, lam: Partition, by_tableau: int,
                     by_pieri: int) -> dict:
    """The record of a coefficient on which the tableau and Pieri engines disagree."""
    return {"kind": "engine_mismatch", "mu": mu.text(), "nu": nu.text(), "lam": lam.text(),
            "tableau_engine": by_tableau, "pieri_engine": by_pieri}


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
    scaled coefficients too.  Each partition in range is scaled once per
    factor, before the sweep, into a table from its parts to its scaled
    copies in the order of `n_list`.  Triples come in order of |lam|, and the
    `_lr` cache is cleared whenever |lam| changes, so it holds one size class.

    Neither predicate tells one coefficient c >= 2 from another, so a fault
    that turns one such value into another would pass them; every base
    coefficient c >= 2 is therefore re-derived by the Pieri engine, as `lr`
    does, and a disagreement is an `engine_mismatch` record.
    """
    started = time.perf_counter()
    scaled_copies = {
        part.parts: tuple(part.scale(factor) for factor in cfg.n_list)
        for size in range(cfg.size_max + 1)
        for part in partitions_with(size, cfg.r_max)
    }
    lam_size = None

    def check(index: int, item, state: dict) -> list[dict]:
        nonlocal lam_size
        mu, nu, lam = item
        if lam.size != lam_size:
            lam_size = lam.size
            _lr.cache_clear()
        c = lr_coefficient(mu, nu, lam)
        records = []
        if c >= 2:
            by_pieri = lr_coefficient_pieri(mu, nu, lam)
            if by_pieri != c:
                records.append({**_engine_mismatch(mu, nu, lam, c, by_pieri), "index": index})
        holds = predicate(c)
        for factor, mu_n, nu_n, lam_n in zip(
            cfg.n_list, scaled_copies[mu.parts], scaled_copies[nu.parts], scaled_copies[lam.parts]
        ):
            scaled = lr_coefficient(mu_n, nu_n, lam_n)
            if holds != predicate(scaled):
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

    items = functools.partial(enumerate_triples, cfg.r_max, cfg.size_max)
    instances, failures, cxs, state = _run_sweep(command, cfg, items, check, {})
    extra = {"triples": instances, "scalings": list(cfg.n_list)}
    return _finish(command, cfg.as_dict(), cfg, seed_source, instances, failures, cxs, extra,
                   started)


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


def _per_core(solve: Callable[[SchubertProblem], T]) -> Callable[[SchubertProblem], T]:
    """`solve` computed once per core (`SchubertProblem.core`) in a problem
    stream: the returned function takes a core and looks its value up.

    A core has its padded copies' n and r, and `enumerate_problems` runs
    through one (n, r) at a time, so the values of one (n, r) are dropped
    when a core of the next is asked for: the table holds one (n, r), not the
    range.
    """
    values: dict[tuple[IndexSet, ...], T] = {}  # one (n, r): keyed by the sets alone
    shape = None

    def of_core(core: SchubertProblem) -> T:
        nonlocal shape
        if (core.n, core.r) != shape:
            shape = core.n, core.r
            values.clear()
        key = core.index_sets
        if key not in values:
            values[key] = solve(core)
        return values[key]

    return of_core


def cmd_crosscheck(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Cross-validate combinatorial counts against generic linear algebra.

    For every expected-dimension-zero problem in range: the intersection
    number is positive iff the generic map-space dimension is zero.  Whenever
    the map space is nonzero, additionally run the kernel filtration, audit
    the resulting trace, and require the trace's exact map-space dimension to
    equal the generic one.

    Each check runs once per core (`_per_core`): a codimension-0 condition
    changes neither the intersection number nor the constraint matrix, so a
    problem padded with such conditions reads its core's verdicts, and its
    records carry its own `index` and `problem`.  The core names the random
    streams, so a resumed sweep recomputes a core solved before its
    checkpoint exactly.  `traces_audited` counts the problems covered by an
    audited trace; `cores_traced` counts the problems with maps that are their
    own core, that is, the traces an uninterrupted run computes.

    A field too small for the range (`_refuse_small_field`, rho the largest
    r(n - r) over the (n, r) in range) is refused before any instance runs.
    """
    from .cohomology import intersection_number
    from .filtration import trace_to_dict
    from .homspace import generic_hom_dim

    started = time.perf_counter()
    fld = cfg.field()
    _refuse_small_field(fld, max(r * (n - r) for n in range(2, cfg.n_max + 1)
                                 for r in range(1, min(cfg.r_max, n - 1) + 1)))
    state = {"with_maps": 0, "traces_audited": 0, "intersection_positive": 0, "cores_traced": 0}

    @_per_core
    def solve(core: SchubertProblem) -> tuple[dict[str, int], list[dict]]:
        """The counters a core adds and its records less `index` and
        `problem`.  No `FiltrationTrace` is kept; a trace is rendered into a
        record only when its audit failed."""
        number = intersection_number(core)
        counts = {"intersection_positive": int(number > 0), "with_maps": 0, "traces_audited": 0}
        records = []
        try:
            result = generic_hom_dim(
                core,
                rng_for(cfg.seed, f"hom:{core.text()}"),
                fld,
                trials=cfg.trials,
            )
            if (number > 0) != (result.dim == 0):
                records.append(
                    {
                        "kind": "count_rank_mismatch",
                        "intersection_number": number,
                        "generic_hom_dim": result.dim,
                        "samples": result.samples,
                    }
                )
            if result.dim > 0:
                counts["with_maps"] = 1
                trace, audit = _audited_trace(cfg, fld, core, "trace")
                counts["traces_audited"] = 1
                if trace.hom_dim != result.dim:
                    records.append({"kind": "hom_dim_mismatch", "generic_hom_dim": result.dim,
                                    "trace_hom_dim": trace.hom_dim})
                if not audit.ok:
                    records.append(
                        {
                            "kind": "trace_audit_failed",
                            "failed_checks": audit.failed_checks(),
                            "trace": trace_to_dict(trace, audit),
                        }
                    )
        except SolverFault as exc:
            records.append({"kind": "run_error", "error": str(exc)})
        return counts, records

    def check(index: int, problem: SchubertProblem, state: dict) -> list[dict]:
        core = problem.core()
        counts, records = solve(core)
        for key, count in counts.items():
            state[key] += count
        if counts["with_maps"] and core == problem:
            state["cores_traced"] += 1
        return [{**record, "index": index, "problem": problem.text()} for record in records]

    items = functools.partial(enumerate_problems, cfg.r_max, cfg.n_max, cfg.s_max)
    instances, failures, cxs, state = _run_sweep(command := "crosscheck", cfg, items, check, state)
    extra = {"problems": instances, **state}
    return _finish(command, cfg.as_dict(), cfg, seed_source, instances, failures, cxs, extra,
                   started)


def cmd_semistable(cfg: SweepConfig, seed_source: str = "flag") -> dict:
    """Check semistability of the natural weights on solvable problems.

    For every expected-dimension-zero problem in range with positive
    intersection number: the parabolic weights read off from the conditions
    are generically semistable, every candidate subspace position has
    nonpositive clincher value, and the two statements agree with each other.

    The intersection number and the check run once per core (`_per_core`) of
    every problem in range; `state["solvable"]` numbers the solvable ones.  A
    codimension-0 condition has a zero weight row, and its position slot can
    take the codimension-0 set, so a padded problem has its core's clincher
    values and its core's slope violations, if any.  A padded problem whose
    core passed adds the core's largest clincher and passes; one whose core
    failed is checked itself, so each record names positions of its own
    problem.
    """
    from .cohomology import intersection_number, nonvanishing_positions
    from .semistability import ParabolicWeights, clinchers, find_violations

    started = time.perf_counter()
    state = {"solvable": 0, "max_clincher": None}

    def examine(problem: SchubertProblem) -> tuple[int | None, list[dict]]:
        """The largest clincher value (None when there is no position) and
        the records, less `index` and `problem`."""
        records = []
        violations = find_violations(ParabolicWeights.from_problem(problem))
        margins = {d: clinchers(problem, d) for d in range(1, problem.r)}
        worst = max((max(values) for values in margins.values() if values), default=None)
        if violations:
            v = violations[0]
            records.append(
                {
                    "kind": "not_semistable",
                    "d": v.d,
                    "positions": [k.text() for k in v.positions],
                    "slope_sub": str(v.slope_sub),
                    "slope_total": str(v.slope_total),
                }
            )
        clinchers_ok = worst is None or worst <= 0
        if not clinchers_ok:  # position tuples are spelled out only here
            for d, values in margins.items():
                tuples = nonvanishing_positions(d, problem.r, problem.s)
                records.extend(
                    {
                        "kind": "positive_clincher",
                        "d": d,
                        "positions": [k.text() for k in positions],
                        "value": value,
                    }
                    for positions, value in zip(tuples, values)
                    if value > 0
                )
        if clinchers_ok != (not violations):
            records.append(
                {
                    "kind": "slope_clincher_disagreement",
                    "semistable": not violations,
                    "all_clinchers_nonpositive": clinchers_ok,
                }
            )
        return worst, records

    examine_core = _per_core(
        lambda core: examine(core) if intersection_number(core) > 0 else _UNSOLVABLE)

    def check(index: int, problem: SchubertProblem, state: dict) -> list[dict]:
        core = problem.core()
        verdict = examine_core(core)
        if verdict is _UNSOLVABLE:
            return []
        worst, records = verdict
        if records and core != problem:
            worst, records = examine(problem)
        if worst is not None and (state["max_clincher"] is None or worst > state["max_clincher"]):
            state["max_clincher"] = worst
        index = state["solvable"]  # the problem's position among the solvable ones
        state["solvable"] += 1
        return [{**record, "index": index, "problem": problem.text()} for record in records]

    items = functools.partial(enumerate_problems, cfg.r_max, cfg.n_max, cfg.s_max)
    _, failures, cxs, state = _run_sweep(command := "semistable", cfg, items, check, state)
    instances = state.pop("solvable")
    extra = {"problems": instances, **state}
    return _finish(command, cfg.as_dict(), cfg, seed_source, instances, failures, cxs, extra,
                   started)


def cmd_filtration(cfg: SweepConfig, problem: SchubertProblem, seed_source: str = "flag") -> dict:
    """Run the kernel filtration for one problem at random flags and audit it.

    The field is refused as in `crosscheck`, with rho = r(n - r): the chart
    bound for one rank sample, applied to the filtration as a necessary
    condition.  The filtration has no proven bound of its own.
    """
    from .filtration import trace_to_dict

    started = time.perf_counter()
    fld = cfg.field()
    _refuse_small_field(fld, problem.r * (problem.n - problem.r))
    extra = None
    try:
        trace, audit = _audited_trace(cfg, fld, problem, "filtration")
    except SolverFault as exc:
        cxs = [{"kind": "run_error", "problem": problem.text(), "error": str(exc)}]
    else:
        extra = {"trace": trace_to_dict(trace, audit)}
        cxs = [] if audit.ok else [{"kind": "trace_audit_failed", "problem": problem.text(),
                                    "failed_checks": audit.failed_checks()}]
    config = {"problem": problem.text(), "trials": cfg.trials, "field": cfg.field_name}
    return _finish("filtration", config, cfg, seed_source, 1, len(cxs), cxs, extra, started)


def cmd_lr(
    cfg: SweepConfig, mu: Partition, nu: Partition, lam: Partition, seed_source: str = "flag"
) -> dict:
    """Compute one coefficient with the tableau engine (the module global
    `lr_coefficient`) and the Pieri engine, and require them to agree."""
    started = time.perf_counter()
    by_tableau = lr_coefficient(mu, nu, lam)
    by_pieri = lr_coefficient_pieri(mu, nu, lam)
    cxs = [] if by_tableau == by_pieri else [_engine_mismatch(mu, nu, lam, by_tableau, by_pieri)]
    config = {"mu": mu.text(), "nu": nu.text(), "lam": lam.text()}
    extra = {"coefficient": by_tableau, "tableau_engine": by_tableau, "pieri_engine": by_pieri}
    return _finish("lr", config, cfg, seed_source, 1, len(cxs), cxs, extra, started)
