"""On-disk caches for the benchmark harness.

Two caches keep repeated benchmark runs fast without affecting results:

* **tree cache** — R*-trees built by insertion are deterministic in
  (test, side, scale, page size, variant); built once, pickled, reused.
* **join cache** — join *statistics* (not pairs) are deterministic in
  the full join configuration; memoized as small pickles.

Both live under ``.bench_cache/`` next to the repository root (override
with ``REPRO_CACHE_DIR``; disable entirely with ``REPRO_NO_CACHE=1``).
The memo is keyed by configuration, not by code, so it serves the
exhibits only: a gate row that reuses exhibit code does so inside
:func:`bypassed` and recomputes everything.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Optional

_CACHE_ENV = "REPRO_CACHE_DIR"
_DISABLE_ENV = "REPRO_NO_CACHE"
#: Bump to invalidate caches whenever counter semantics change.
CACHE_VERSION = 4

_BYPASSED = contextvars.ContextVar("bench_cache_bypassed", default=False)


@contextlib.contextmanager
def bypassed():
    """Inside the block (on this thread) :func:`cached` neither reads
    nor writes the directory: every value is built by the code under
    test."""
    token = _BYPASSED.set(True)
    try:
        yield
    finally:
        _BYPASSED.reset(token)


def cache_dir() -> Optional[Path]:
    """The cache directory, or ``None`` when caching is disabled."""
    if _BYPASSED.get() \
            or os.environ.get(_DISABLE_ENV, "") not in ("", "0"):
        return None
    root = os.environ.get(_CACHE_ENV)
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / ".bench_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached(kind: str, key: str, build: Callable[[], Any]) -> Any:
    """Fetch ``(kind, key)`` from the cache or build and store it."""
    directory = cache_dir()
    if directory is None:
        return build()
    safe_key = key.replace("/", "_").replace(" ", "_")
    path = directory / f"v{CACHE_VERSION}-{kind}-{safe_key}.pkl"
    if path.exists():
        try:
            with open(path, "rb") as f:
                return pickle.load(f)
        except Exception:
            path.unlink(missing_ok=True)
    value = build()
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return value
