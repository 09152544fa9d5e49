"""Shared plumbing of the benchmark harness: paths, the scratch
directory, process accounting, the machine-speed probe, order
statistics and the samplers.

Everything the harness writes goes under ``<checkout>/.perf_work`` and
is removed when the run ends, so a run leaves the checkout as it found
it (the driver's checkout is all the benchmark may touch).
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perf_work"

#: A tail percentile is only reported with this many samples beyond it.
MIN_BEYOND = 10


def require_repo() -> None:
    """Put ``src`` on ``sys.path``; exit nonzero when the program under
    test is not in this checkout (the benchmark never measures an
    installed copy from somewhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perf: no program to measure: {SRC}/repro "
                         f"is missing\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory inside the checkout, removed on exit.
    ``TMPDIR`` points into it meanwhile so neither this process nor the
    servers it starts write anywhere else."""
    WORK_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                 dir=WORK_PARENT))
    saved = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = None
    try:
        yield path
    finally:
        if saved is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()          # only when no other run is live


def child_env() -> Dict[str, str]:
    """Environment of a server subprocess: this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Process accounting (Linux /proc)
# ----------------------------------------------------------------------

def _proc_field(path: str, key: str) -> Optional[int]:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a process in MB (``VmHWM``)."""
    kb = _proc_field(f"/proc/{pid or os.getpid()}/status", "VmHWM:")
    if kb is None:
        raise RuntimeError(f"cannot read VmHWM of pid {pid}")
    return kb / 1024.0


def write_bytes(pid: Optional[int] = None) -> int:
    """Bytes the process caused to be sent to storage so far."""
    value = _proc_field(f"/proc/{pid or os.getpid()}/io", "write_bytes:")
    return value or 0


def env_info(seed: int) -> Dict[str, object]:
    """What a result file records about where it was measured."""
    import numpy

    from repro.rtree import kernel_layout
    from repro.rtree.columns import use_numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": (f"{kernel_layout()}/"
                               f"{'numpy' if use_numpy() else 'stdlib'}"),
            "git_sha": sha}


# ----------------------------------------------------------------------
# Machine speed: the reference probe
# ----------------------------------------------------------------------
#
# This sandbox is a few cores of a shared host whose speed moves between
# regimes that last from seconds to many minutes (the same join takes
# 51 ms in one and 85 ms in another), so a wall time by itself says as
# much about the neighbours as about the program.  Every timed part of
# a run is therefore bracketed by a fixed reference computation that
# never changes with the program, and times are reported at *reference
# speed*: measured time / (probe time / REFERENCE_PROBE_MS).

#: What one probe repetition takes on this sandbox when the host is
#: quiet.  It only fixes the scale of the reported numbers (so they
#: read like ones measured on a quiet machine); any constant would
#: compare runs equally well.
REFERENCE_PROBE_MS = 15.0
PROBE_REPS = 7

_probe_state: Optional[tuple] = None


def _probe_once() -> None:
    """One repetition: the kinds of work the program is made of, in
    about equal shares — interpreter (dicts, tuples, sorting), small
    numpy calls, a pass over arrays larger than the caches, and
    system calls through a pipe."""
    import numpy as np
    global _probe_state
    if _probe_state is None:
        _probe_state = (np.arange(100, dtype=np.float64),
                        np.random.default_rng(1).random(250_000),
                        *os.pipe())
    small, big, rfd, wfd = _probe_state
    acc = 0
    for _ in range(1800):
        table = {j: (j, acc) for j in range(16)}
        acc += len(sorted(table, key=table.get))
    for i in range(1400):
        kept = small[small > (i % 100)]
        if len(kept):
            acc += int(np.argsort(kept)[0])
    acc += float(np.sort(big)[7]) + float((big * big).sum())
    payload = b"x" * 64
    for _ in range(4000):
        os.write(wfd, payload)
        os.read(rfd, 64)


def speed_probe(reps: int = PROBE_REPS) -> float:
    """Median wall ms of *reps* repetitions of the reference kernel."""
    walls = []
    for _ in range(reps):
        started = time.perf_counter()
        _probe_once()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls) * 1e3


def slowness(probes_ms: Sequence[float]) -> float:
    """How much slower than reference speed the machine ran around
    *probes_ms* (1.0 = reference speed, 1.3 = everything takes 30%
    longer).  The median, because slow spells of a second or two are
    frequent: one that catches a probe but not the work next to it (or
    the reverse) must not pass for a change of regime."""
    return statistics.median(probes_ms) / REFERENCE_PROBE_MS


@dataclass
class Part:
    """One probe-bracketed part of a timed section."""
    latencies: List[float]                 # seconds, successful ops
    completed: int
    wall: float                            # seconds, as measured
    slowness: float


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------

def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1) of *values*."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be inside (0, 1), got {q}")
    return sorted(values)[math.ceil(q * len(values)) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """:func:`nearest_rank`, refused (``ValueError``) when fewer than
    :data:`MIN_BEYOND` samples lie beyond the returned rank: a p95
    over 60 samples is the third largest value, which is an anecdote,
    not a percentile."""
    n = len(values)
    beyond = n - math.ceil(q * n)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond "
            f"it; need {MIN_BEYOND}")
    return nearest_rank(values, q)


def paced_percentile(parts: Sequence["Part"], q: float) -> float:
    """Percentile ``q`` of the per-op latencies at reference speed: the
    median over the parts of each part's own percentile divided by that
    part's slowness.  A slow spell that inflates one or two parts moves
    their percentiles, not the median of the five.  The pooled samples
    must still support the percentile (:func:`percentile`'s rule), or
    this refuses like it does."""
    percentile([value for part in parts for value in part.latencies], q)
    return statistics.median(nearest_rank(part.latencies, q) / part.slowness
                             for part in parts if part.latencies)


def paced_rate(parts: Sequence["Part"]) -> float:
    """Completed ops per second of reference-speed time, whole section."""
    return (sum(part.completed for part in parts)
            / sum(part.wall / part.slowness for part in parts))


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty class (the op never ran)."""
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Samplers (pure functions of the generator they are handed)
# ----------------------------------------------------------------------

def zipf_cdf(n: int, s: float):
    """Cumulative distribution of Zipf(s) over ranks ``0..n-1``."""
    import numpy as np
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def zipf_ranks(rng, cdf, size: int):
    """*size* ranks drawn from a :func:`zipf_cdf` table."""
    import numpy as np
    return np.minimum(np.searchsorted(cdf, rng.random(size)),
                      len(cdf) - 1)


def log_uniform(rng, low: float, high: float, size: int):
    """*size* values whose logarithm is uniform on [log low, log high]."""
    import numpy as np
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def interquartile_share(values: List[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver accepts a metric by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, statistics.median(values))
