"""Deterministic report documents: JSON canonicalization, CSV summary, files.

A report is a plain dict. Serialization sorts keys and uses fixed separators,
so two runs with the same configuration and seed produce byte-identical
documents except for the wall-time field, which `strip_volatile` removes for
comparisons. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import copy
import io
import json
import os
import tempfile

SCHEMA_VERSION = 1
GENERATOR = "python-random:mt19937"


def make_report(
    command: str,
    config: dict,
    field_name: str,
    seed: int,
    seed_source: str,
    instances: int,
    failures: int,
    counterexamples: list[dict],
    extra: dict | None = None,
    wall_time_s: float = 0.0,
) -> dict:
    """Assemble the canonical report dict.

    `failures` counts failing instances; one instance may contribute several
    counterexample records, but the two are zero together or nonzero together.
    """
    from . import __version__

    passes = instances - failures
    if passes < 0:
        raise ValueError("more failures than instances")
    if (failures == 0) != (not counterexamples):
        raise ValueError("failure count and counterexample list disagree")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "fultoncheck", "version": __version__},
        "command": command,
        "config": dict(config),
        "field": field_name,
        "seed": seed,
        "seed_source": seed_source,
        "generator": GENERATOR,
        "counts": {
            "instances": instances,
            "passes": passes,
            "failures": failures,
        },
        "counterexamples": list(counterexamples),
        "ok": failures == 0,
        "wall_time_s": wall_time_s,
    }
    if extra:
        doc["extra"] = dict(extra)
    return doc


def to_json_str(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def strip_volatile(doc: dict) -> dict:
    """A deep copy with the wall-time field removed, for equality checks."""
    out = copy.deepcopy(doc)
    out.pop("wall_time_s", None)
    return out


def to_csv_str(doc: dict) -> str:
    """One-row summary with the scalar report fields."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["command", "field", "seed", "instances", "passes", "failures", "ok", "wall_time_s"]
    )
    counts = doc.get("counts", {})
    writer.writerow(
        [
            doc.get("command", ""),
            doc.get("field", ""),
            doc.get("seed", ""),
            counts.get("instances", ""),
            counts.get("passes", ""),
            counts.get("failures", ""),
            doc.get("ok", ""),
            doc.get("wall_time_s", ""),
        ]
    )
    return buf.getvalue()


def _umask() -> int:
    """The process umask; reading it means setting it, so it is set back at once."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_text(path: str, text: str) -> None:
    """Atomic write: the target never holds a partial document.

    The file gets the mode a plain `open` would give it (0o666 less the
    umask), not the 0o600 of the temporary file it is written through.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fultoncheck-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
