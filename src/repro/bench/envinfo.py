"""Environment fingerprints for benchmark-row provenance.

Every row :func:`repro.bench.rows.new_row` stamps carries the
fingerprint of the process that produced it — python, platform, kernel
backend (numpy vs stdlib ``array``), git sha.  It is provenance only:
the counters ``repro bench gate`` compares are identical on both
backends and on every platform, so no verdict reads it.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from functools import lru_cache
from typing import Any, Dict, Optional


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _backend() -> str:
    from ..rtree.columns import use_numpy
    return "numpy" if use_numpy() else "stdlib"


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


@lru_cache(maxsize=1)
def _cached_fingerprint() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "backend": _backend(),
        "numpy": _numpy_version(),
        "git_sha": _git_sha(),
    }


def environment_fingerprint() -> Dict[str, Any]:
    """This process's fingerprint (fresh dict; safe to mutate)."""
    return dict(_cached_fingerprint())


def describe(env: Optional[Dict[str, Any]]) -> str:
    """One-line human rendering of a fingerprint."""
    if not env:
        return "(no env fingerprint)"
    bits = [str(env.get(field)) for field in
            ("platform", "machine", "backend")]
    python = env.get("python")
    if python:
        bits.append(f"py{python}")
    sha = env.get("git_sha")
    if sha:
        bits.append(f"@{sha}")
    return " ".join(bits)
