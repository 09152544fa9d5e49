"""The bench-row file: one row's shape, its key, and the upsert.

``repro bench run`` writes — and ``BENCH_join.json`` at the repository
root holds — a sorted JSON array of rows ``{"schema", "bench",
"params", "counters"}``, upserted on the key ``(bench, canonical
params)`` so that re-emitting a row replaces it and the committed file
stays a stable snapshot of the whole matrix (docs/benchmarking.md walks
through a row and the schema history).  A row holds nothing that
differs between two runs of the same code — when and where it was
computed is in the git history of the file — so refreshing the file on
unchanged code rewrites it byte for byte.

Rows loaded from an existing file are validated: a parseable file that
contains rows missing ``schema``/``bench``, or rows of an older schema,
is rejected with a :class:`ValueError` instead of being silently
rewritten (an unparseable file is still treated as absent —
half-written scratch files must not wedge a bench run).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Row-shape version; bump when adding or renaming row fields.
SCHEMA_VERSION = 4

#: Fields every row must carry (validated on load).
REQUIRED_FIELDS = ("schema", "bench", "params", "counters")


def canonical_params(params: Any) -> Any:
    """Normalized copy of a params structure for keying and storage.

    Floats that carry an integral value collapse to ints (``128.0`` ==
    ``128``), recursively through dicts and lists; bools and strings
    pass through untouched.  Two rows that spell a knob as int in one
    place and float in another therefore upsert the same row.
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


def row_key(row: Dict[str, Any]) -> Tuple[str, str]:
    """The upsert identity of a row: ``(bench, canonical params)``."""
    return (row.get("bench", ""),
            json.dumps(canonical_params(row.get("params", {})),
                       sort_keys=True))


def new_row(bench: str, params: Dict[str, Any],
            counters: Dict[str, Any]) -> Dict[str, Any]:
    """One row, stamped with the schema."""
    return {"schema": SCHEMA_VERSION, "bench": bench,
            "params": canonical_params(params), "counters": counters}


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
    rows — rows missing ``schema`` must be fixed (or the file
    regenerated), not silently rewritten.
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


def write_rows(path: str, rows: Iterable[Dict[str, Any]]) -> None:
    """Write *rows* to *path* in the file's one layout: sorted on the
    upsert key, indented, keys sorted."""
    with open(path, "w") as handle:
        json.dump(sorted(rows, key=row_key), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def upsert_rows(path: str, rows: Iterable[Dict[str, Any]]) -> None:
    """Replace-or-add *rows* in the file at *path* by their key."""
    existing: List[Dict[str, Any]] = []
    if os.path.exists(path):
        try:
            existing = load_rows(path)
        except (json.JSONDecodeError, OSError):
            # A half-written scratch file is treated as absent; rows
            # that parse but are malformed raise out of load_rows.
            existing = []
    by_key = {row_key(row): row for row in existing}
    for row in rows:
        by_key[row_key(row)] = row
    write_rows(path, by_key.values())
