"""Machine-readable benchmark results.

Every ``bench_*`` script routes its timed operation through
:func:`timed`, which runs it once under pytest-benchmark, extracts
whatever counters the operation's return value carries, and upserts
one row ::

    {"schema": 3, "created": "2026-08-06T00:00:00Z",
     "bench": ..., "params": {...}, "counters": {...}, "env": {...}}

into ``BENCH_join.json`` at the repository root (override the path with
the ``REPRO_BENCH_OUT`` environment variable).  The file is a sorted
JSON array upserted on the key ``(bench, canonical params)`` — where
"canonical params" normalizes numbers first (``128`` and ``128.0``
collide onto one key) and then serializes with sorted keys, so two
parameter dicts that differ only in key order or int-vs-float spelling
collide onto one row.  Re-running a bench replaces its row (refreshing
``created``, ``counters`` and ``env``), so the committed file stays a
stable snapshot of the whole suite.

``schema`` versions the row shape itself; bump it when adding or
renaming row fields.  Schema 2 added ``env`` — the environment
fingerprint (python, platform, kernel backend, git sha), provenance
for whoever reads the row.  Schema 3 dropped the wall-clock field: a
row holds what the bench *counted*; wall time is measured by ``perf/``.

Rows loaded from an existing file are validated: a parseable file that
contains rows missing ``schema``/``created``/``bench``, or rows of an
older schema, is rejected with a :class:`ValueError` instead of being
silently rewritten (an unparseable file is still treated as absent —
half-written scratch files must not wedge a bench run).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Row-shape version; bump when adding or renaming row fields.
SCHEMA_VERSION = 3

#: Fields every row must carry (validated on load and emit).
REQUIRED_FIELDS = ("schema", "created", "bench", "params", "counters")

#: Default output file, next to the repository's README.
_DEFAULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_join.json")


def bench_path() -> str:
    """Where rows go: ``REPRO_BENCH_OUT`` or ``BENCH_join.json``."""
    return os.environ.get("REPRO_BENCH_OUT", _DEFAULT_PATH)


def canonical_params(params: Any) -> Any:
    """Normalized copy of a params structure for keying and storage.

    Floats that carry an integral value collapse to ints (``128.0`` ==
    ``128``), recursively through dicts and lists; bools and strings
    pass through untouched.  Two bench runs that spell a knob as int in
    one script and float in another therefore upsert the same row.
    """
    if isinstance(params, bool):
        return params
    if isinstance(params, float) and params.is_integer():
        return int(params)
    if isinstance(params, dict):
        return {key: canonical_params(value)
                for key, value in params.items()}
    if isinstance(params, (list, tuple)):
        return [canonical_params(value) for value in params]
    return params


def row_key(bench: str, params: Dict[str, Any]) -> tuple:
    """The upsert identity of a row: ``(bench, canonical params)``."""
    return (bench, json.dumps(canonical_params(params), sort_keys=True))


def validate_row(row: Any) -> Optional[str]:
    """One row's schema problem as a string, or None when it is fine."""
    if not isinstance(row, dict):
        return f"row is not an object: {row!r}"
    missing = [field for field in REQUIRED_FIELDS if field not in row]
    if missing:
        return (f"row for bench {row.get('bench')!r} is missing "
                f"{', '.join(missing)}")
    if row["schema"] != SCHEMA_VERSION:
        return (f"row for bench {row.get('bench')!r} has schema "
                f"{row['schema']!r}, expected {SCHEMA_VERSION} — "
                f"delete the file and regenerate it with "
                f"`repro bench run --update-baseline`")
    if not isinstance(row.get("bench"), str) or not row["bench"]:
        return f"row has a non-string bench name: {row.get('bench')!r}"
    if not isinstance(row.get("params"), dict):
        return (f"row {row['bench']!r} params must be an object "
                f"({row.get('params')!r})")
    return None


def load_rows(path: str) -> List[Dict[str, Any]]:
    """Load and validate a bench-row file.

    Raises :class:`ValueError` when the file parses but holds malformed
    rows — rows missing ``schema``/``created`` must be fixed (or the
    file regenerated), not silently rewritten.
    """
    with open(path) as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    for row in rows:
        problem = validate_row(row)
        if problem is not None:
            raise ValueError(f"{path}: {problem}")
    return rows


def environment_fingerprint() -> Dict[str, Any]:
    """The env fingerprint stamped onto every emitted row (see
    :func:`repro.bench.envinfo.environment_fingerprint`)."""
    from repro.bench.envinfo import environment_fingerprint as _fp
    return _fp()


def write_rows(path: str, rows: Iterable[Dict[str, Any]]) -> None:
    """Write *rows* to *path* in the file's one layout: sorted on the
    upsert key, indented, keys sorted."""
    ordered = sorted(rows, key=lambda r: row_key(r.get("bench", ""),
                                                 r.get("params", {})))
    with open(path, "w") as handle:
        json.dump(ordered, handle, indent=2, sort_keys=True)
        handle.write("\n")


def emit(bench: str, params: Dict[str, Any],
         counters: Dict[str, Any]) -> Dict[str, Any]:
    """Upsert one result row keyed on ``(bench, canonical params)``."""
    created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    row = {"schema": SCHEMA_VERSION, "created": created,
           "bench": bench, "params": canonical_params(params),
           "counters": counters,
           "env": environment_fingerprint()}
    path = bench_path()
    rows: List[Dict[str, Any]] = []
    if os.path.exists(path):
        try:
            rows = load_rows(path)
        except (json.JSONDecodeError, OSError):
            # A half-written scratch file is treated as absent; rows
            # that parse but are malformed raise out of load_rows.
            rows = []
    key = row_key(bench, params)
    rows = [r for r in rows
            if row_key(r.get("bench"), r.get("params", {})) != key]
    rows.append(row)
    write_rows(path, rows)
    return row


def counters_of(result: Any) -> Dict[str, Any]:
    """Best-effort counter extraction from a timed op's return value.

    A plain dict of numbers passes through verbatim — the escape hatch
    for benches whose natural return value (a prediction, a dataset, a
    raw pair list) carries no ``stats``: they return the counters they
    want on the row.  Join results carry the paper's two counters plus
    the output size; query results carry their I/O statistics; trees
    report their shape; anything else contributes no counters.
    """
    if isinstance(result, dict):
        return {key: value for key, value in result.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}
    stats = getattr(result, "stats", None)
    if stats is not None and hasattr(stats, "disk_accesses"):
        return {"disk_accesses": stats.disk_accesses,
                "comparisons": stats.comparisons.total,
                "pairs": stats.pairs_output}
    io = getattr(result, "io", None)
    if io is not None and hasattr(io, "disk_reads"):
        counters = {"disk_accesses": io.disk_reads}
        comparisons = getattr(result, "comparisons", None)
        if comparisons is not None:
            counters["comparisons"] = comparisons.total
        return counters
    if hasattr(result, "height") and hasattr(result, "params"):
        return {"height": result.height}
    if isinstance(result, (int, float)) and not isinstance(result, bool):
        return {"value": result}
    return {}


def timed(benchmark, fn: Callable[[], Any], bench: str,
          **params: Any) -> Any:
    """Run *fn* once under pytest-benchmark and emit its row."""
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    emit(bench, params, counters_of(result))
    return result
