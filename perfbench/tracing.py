"""In-process tracer for one traced `fultoncheck` run.

`install()` wraps the public functions of every fultoncheck module, and the
public methods of the classes they define, without editing the package: each
wrapper replaces the original wherever a module binds it by name (for example
`sweeps.intersection_number` or `linalg.rref_mod`), so calls through an
imported name are traced too.

Every wrapped call is a frame on one stack.  Its self time is its duration
minus the durations of the wrapped calls it contains.  Calls that cross a
layer boundary are also kept as spans (name, parent span, instance index,
start, end) in compact in-memory arrays and written out once at the end.
Small value-type methods (`partitions`, `field`, `__post_init__`) and
generator steps are only counted and timed, because they run millions of
times and a span each would dominate the run.  Spans made inside one sweep
instance carry that instance's index; all others carry -1.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import types
from array import array
from time import perf_counter

LAYERS = (
    "cli",
    "cohomology",
    "field",
    "filtration",
    "homspace",
    "linalg",
    "littlewood",
    "partitions",
    "positions",
    "reports",
    "rowred",
    "semistability",
    "sweeps",
)
# Modules whose class methods are counted and timed but not kept as spans.
_UNSPANNED_CLASS_LAYERS = {"partitions", "field"}
_LAYER_ALIASES = {"_rowred_py": "rowred"}


def _layer_of(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return _LAYER_ALIASES.get(short, short)


class Tracer:
    """Frame stack, per-name counters and the span arrays of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.items: list[int] = []  # values yielded, for generator functions
        # Span columns, one entry per kept span.
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_inst = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        # Frame: [span index for children, time spent in wrapped children].
        self.stack: list[list] = [[-1, 0.0]]
        self.instance = -1
        self.probes: dict[str, dict] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.items.append(0)
        return nid

    def timed(self, fn, name: str, keep: bool, probe=None):
        """A wrapper of `fn` that records one frame (and span if `keep`) per call."""
        nid = self.name_id(name)
        stack, calls, self_s, total_s = self.stack, self.calls, self.self_s, self.total_s
        sp_name, sp_parent, sp_inst = self.sp_name, self.sp_parent, self.sp_inst
        sp_t0, sp_t1 = self.sp_t0, self.sp_t1
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep:
                idx = len(sp_t0)
                sp_name.append(nid)
                sp_parent.append(parent[0])
                sp_inst.append(tracer.instance)
                sp_t0.append(0.0)
                sp_t1.append(0.0)
            else:
                idx = parent[0]
            frame = [idx, 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if keep:
                    sp_t0[idx] = t0
                    sp_t1[idx] = t1
                if probe is not None:
                    probe(args, kwargs, result)

        return wrapper

    def timed_generator(self, fn, name: str):
        """A wrapper of a generator function; each step is one counted frame."""
        nid = self.name_id(name)
        step = self.timed(next, name, keep=False)
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    value = step(gen)
                except StopIteration:
                    return
                items[nid] += 1
                yield value

        return wrapper

    def write_spans(self, path: str) -> None:
        """Span columns as raw arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.sp_t0),
            "columns": ["name:i32", "parent:i32", "instance:i32", "t0:f64", "t1:f64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.sp_name, self.sp_parent, self.sp_inst, self.sp_t0, self.sp_t1):
                col.tofile(fh)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _is_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def install(tracer: Tracer) -> dict:
    """Wrap the package in place; returns the caches `summarize` reads."""
    import importlib

    modules = {layer: importlib.import_module(f"fultoncheck.{layer}") for layer in LAYERS}
    package = importlib.import_module("fultoncheck")
    probes = _make_probes(tracer)
    caches = {
        "lr_cache": modules["littlewood"]._lr,
        "positions_cache": modules["cohomology"].nonvanishing_positions,
    }

    # Module-level functions: one wrapper per original object, keyed by id.
    wrappers: dict[int, object] = {}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or id(obj) in wrappers:
                continue
            if not (isinstance(obj, types.FunctionType) or _is_cached(obj)):
                continue
            owner = getattr(obj, "__module__", "") or ""
            if not owner.startswith("fultoncheck"):
                continue
            name = f"{_layer_of(owner)}.{obj.__name__}"
            if inspect.isgeneratorfunction(obj):
                wrappers[id(obj)] = tracer.timed_generator(obj, name)
            else:
                wrappers[id(obj)] = tracer.timed(obj, name, keep=True, probe=probes.get(name))
    for mod in (*modules.values(), package):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                # Dispatch tables such as `cli._SWEEPS` hold functions too.
                for key, value in obj.items():
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]

    # Public methods of public classes, wrapped on the class itself.
    for layer, mod in modules.items():
        for cls_name, cls in vars(mod).items():
            if cls_name.startswith("_") or not isinstance(cls, type):
                continue
            if cls.__module__ != mod.__name__:
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                keep = layer not in _UNSPANNED_CLASS_LAYERS and attr != "__post_init__"
                if isinstance(raw, (classmethod, staticmethod)):
                    inner = tracer.timed(raw.__func__, name, keep=keep, probe=probes.get(name))
                    setattr(cls, attr, type(raw)(inner))
                elif isinstance(raw, types.FunctionType):
                    setattr(cls, attr, tracer.timed(raw, name, keep=keep, probe=probes.get(name)))

    # The sweep loop `_run_sweep`: every instance becomes one kept span with its index.
    sweeps = modules["sweeps"]
    run_sweep = sweeps._run_sweep
    instance_name = "sweeps.instance"

    def traced_run_sweep(command, cfg, items, check, state):
        timed_check = tracer.timed(check, instance_name, keep=True)

        def check_with_index(index, item, st):
            tracer.instance = index
            try:
                return timed_check(index, item, st)
            finally:
                tracer.instance = -1

        return run_sweep(command, cfg, items, check_with_index, state)

    sweeps._run_sweep = traced_run_sweep
    tracer.name_id(instance_name)

    return caches


def _make_probes(tracer: Tracer) -> dict:
    """Per-name hooks that read counts off arguments and results."""
    p = tracer.probes
    p["rowred"] = {"cells": 0, "shapes": {}}
    p["homspace"] = {"constraint_rows": 0, "samples": 0, "retries": 0, "problem_samples": 0}
    p["filtration"] = {"levels": 0, "audits_ok": 0}
    p["reports"] = {"bytes": 0}

    def rref(args, kwargs, result):
        matrix = args[0]
        rows, cols = len(matrix), len(matrix[0]) if matrix else 0
        p["rowred"]["cells"] += rows * cols
        key = f"{rows}x{cols}"
        p["rowred"]["shapes"][key] = p["rowred"]["shapes"].get(key, 0) + 1

    def build_system(args, kwargs, result):
        if result is not None:
            p["homspace"]["constraint_rows"] += result.matrix.nrows

    def stabilized(args, kwargs, result):
        if result is not None:
            trials = args[1] if len(args) > 1 else kwargs["trials"]
            p["homspace"]["samples"] += len(result.samples)
            p["homspace"]["retries"] += max(0, len(result.samples) - trials)

    def generic(args, kwargs, result):
        if result is not None:
            p["homspace"]["problem_samples"] += len(result.samples)

    def filtration(args, kwargs, result):
        if result is not None:
            p["filtration"]["levels"] += len(result.steps)

    def audit(args, kwargs, result):
        if result is not None and result.ok:
            p["filtration"]["audits_ok"] += 1

    def write(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        p["reports"]["bytes"] += len(text.encode())

    return {
        "rowred.rref_mod": rref,
        "rowred.rref_frac": rref,
        "homspace.build_system": build_system,
        "homspace.stabilized_min": stabilized,
        "homspace.generic_hom_dim": generic,
        "filtration.run_filtration": filtration,
        "filtration.verify_trace": audit,
        "reports.write_text": write,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(tracer: Tracer, caches: dict, cache_before: dict) -> dict:
    """The per-layer metrics of one traced run (counts exact, times in seconds)."""
    ids = tracer._ids

    def calls(name: str) -> int:
        nid = ids.get(name)
        return tracer.calls[nid] if nid is not None else 0

    def self_of(pred) -> float:
        return sum(s for n, s in zip(tracer.names, tracer.self_s) if pred(n))

    def layer_self(layer: str) -> float:
        return self_of(lambda n: n.split(".", 1)[0] == layer)

    def layer_calls(layer: str) -> int:
        return sum(c for n, c in zip(tracer.names, tracer.calls) if n.split(".", 1)[0] == layer)

    def total(name: str) -> float:
        nid = ids.get(name)
        return tracer.total_s[nid] if nid is not None else 0.0

    def items(name: str) -> int:
        nid = ids.get(name)
        return tracer.items[nid] if nid is not None else 0

    def cache_delta(key: str) -> tuple[int, int]:
        info = caches[key].cache_info()
        hits0, misses0 = cache_before[key]
        return info.hits - hits0, info.misses - misses0

    probes = tracer.probes
    lr_hits, lr_misses = cache_delta("lr_cache")
    pos_hits, pos_misses = cache_delta("positions_cache")

    inst_id = ids["sweeps.instance"]
    instance_ms = [
        (t1 - t0) * 1e3
        for nid, t0, t1 in zip(tracer.sp_name, tracer.sp_t0, tracer.sp_t1)
        if nid == inst_id
    ]
    enumerators = ("sweeps.enumerate_triples", "sweeps.enumerate_problems")
    gen_calls = calls("homspace.generic_hom_dim")
    audits = calls("filtration.verify_trace")
    rref_calls = calls("rowred.rref_mod") + calls("rowred.rref_frac")
    shapes = probes["rowred"]["shapes"]

    metrics = {
        "rowred.calls": rref_calls,
        "rowred.cells": probes["rowred"]["cells"],
        "rowred.self_s": layer_self("rowred"),
        "rowred.shapes": len(shapes),
        "field.calls": layer_calls("field"),
        "field.self_s": layer_self("field"),
        "linalg.matrices": calls("linalg.Matrix.__post_init__"),
        "linalg.random_flag.calls": calls("linalg.random_flag"),
        "linalg.random_flag.accept_ratio": _ratio(
            calls("linalg.random_flag"), calls("linalg.random_matrix")
        ),
        "linalg.self_s": layer_self("linalg"),
        "homspace.build_system.calls": calls("homspace.build_system"),
        "homspace.constraint_rows": probes["homspace"]["constraint_rows"],
        "homspace.samples": probes["homspace"]["samples"],
        "homspace.samples_per_problem": _ratio(probes["homspace"]["problem_samples"], gen_calls),
        "homspace.retries": probes["homspace"]["retries"],
        "homspace.self_s": layer_self("homspace"),
        "filtration.runs": calls("filtration.run_filtration"),
        "filtration.levels": probes["filtration"]["levels"],
        "filtration.run.self_s": self_of(
            lambda n: n in ("filtration.run_filtration", "filtration.run_filtration_random")
        ),
        "filtration.audit.self_s": self_of(lambda n: n == "filtration.verify_trace"),
        "filtration.audit.ok_ratio": _ratio(probes["filtration"]["audits_ok"], audits),
        "positions.calls": layer_calls("positions"),
        "positions.self_s": layer_self("positions"),
        "littlewood.lr.calls": calls("littlewood.lr_coefficient"),
        "littlewood.lr.early_exit": calls("littlewood.lr_coefficient") - (lr_hits + lr_misses),
        "littlewood.lr.cache_hit_ratio": _ratio(lr_hits, lr_hits + lr_misses),
        "littlewood.self_s": layer_self("littlewood"),
        "partitions.objects": sum(
            calls(f"partitions.{cls}.__post_init__")
            for cls in ("Partition", "IndexSet", "SchubertProblem")
        ),
        "partitions.self_s": layer_self("partitions"),
        "cohomology.intersection_number.calls": calls("cohomology.intersection_number"),
        "cohomology.class_product.calls": calls("cohomology.class_product"),
        "cohomology.nonvanishing_positions.hit_ratio": _ratio(pos_hits, pos_hits + pos_misses),
        "cohomology.self_s": layer_self("cohomology"),
        "semistability.find_violations.calls": calls("semistability.find_violations"),
        "semistability.clincher.calls": calls("semistability.clincher"),
        "semistability.self_s": layer_self("semistability"),
        "sweeps.items_enumerated": sum(items(n) for n in enumerators),
        "sweeps.enumerate_s": sum(total(n) for n in enumerators),
        "sweeps.instance_ms.p50": _quantile(instance_ms, 50),
        "sweeps.instance_ms.p99": _quantile(instance_ms, 99),
        "sweeps.self_s": layer_self("sweeps"),
        "reports.bytes": probes["reports"]["bytes"],
        "reports.write_s": total("reports.write_text"),
    }
    return {
        "metrics": metrics,
        "rowred_shapes": dict(sorted(shapes.items(), key=lambda kv: (-kv[1], kv[0]))),
        "spans": len(tracer.sp_t0),
        "instances": len(instance_ms),
        "layers_self_s": {layer: layer_self(layer) for layer in LAYERS},
    }


def cache_snapshot(caches: dict) -> dict:
    out = {}
    for key, cached in caches.items():
        info = cached.cache_info()
        out[key] = (info.hits, info.misses)
    return out


def run_traced(cli_args: list[str], out_dir: str) -> int:
    """Trace one CLI invocation; writes `summary.json` and `spans.bin` to out_dir."""
    from fultoncheck import cli

    tracer = Tracer()
    caches = install(tracer)
    before = cache_snapshot(caches)
    code = cli.main(cli_args)
    summary = summarize(tracer, caches, before)
    summary["exit_code"] = code
    tracer.write_spans(os.path.join(out_dir, "spans.bin"))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True)
    return code
