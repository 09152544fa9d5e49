"""Run, compare and gate the experiment matrix.

The three verbs behind ``repro bench``:

* :func:`run_experiments` — compute the selected registry entries'
  rows in this process (the CLI writes them to a scratch file;
  :func:`merge_into_baseline` upserts that into the committed
  baseline).
* :func:`compare_rows` — diff a fresh row file against the committed
  ``BENCH_join.json`` baseline, producing one :class:`Delta` per
  matched row.
* gate exit code — nonzero when any counter differs from (or is absent
  on either side of) the baseline, a selected row went missing, a row
  names a bench the registry does not, or a row computation failed.

The gate judges *counts*, never milliseconds: every counter in a row is
identical on every run of the same code over the same seeds, on either
kernel backend, so the comparison is plain equality of the two
``counters`` dicts.  Wall time is measured by ``perf/`` (see
``perf/README.md``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..rtree.columns import use_numpy
from . import runner
from .registry import BY_BENCH, Experiment
from .rows import load_rows, new_row, row_key, upsert_rows

_OK_STATUSES = ("ok", "new")


def default_baseline_path() -> str:
    """The committed baseline: ``BENCH_join.json`` in the current
    directory, else at the root of this source tree."""
    if os.path.exists("BENCH_join.json"):
        return os.path.abspath("BENCH_join.json")
    return str(Path(__file__).resolve().parents[3] / "BENCH_join.json")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

@dataclass
class RunOutcome:
    """One experiment's row computation."""

    experiment: Experiment
    seconds: float
    rows: List[Dict[str, Any]]
    #: Why the computation failed ("" when it did not).
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and bool(self.rows)


def run_experiments(experiments: Sequence[Experiment],
                    log: Callable[[str], None] = lambda s: None
                    ) -> List[RunOutcome]:
    """Compute every experiment's row(s) in this process.

    A row computation that raises (its own sanity asserts included)
    or returns a row with nothing to compare is reported, not raised —
    the gate turns it into a failure.  The runner's memo is emptied
    before each experiment, so every row builds its own trees.
    """
    outcomes: List[RunOutcome] = []
    for experiment in experiments:
        start = time.perf_counter()
        rows: List[Dict[str, Any]] = []
        error = ""
        runner.forget()
        try:
            rows = [new_row(experiment.bench, params, counters)
                    for params, counters in experiment.row()]
        except Exception as exc:  # noqa: BLE001 — reported per row
            error = f"{type(exc).__name__}: {exc}"
            log(traceback.format_exc())
        if not all(row["counters"] for row in rows):
            error = "a row without counters gates nothing"
        outcome = RunOutcome(experiment, time.perf_counter() - start,
                             rows, error)
        outcomes.append(outcome)
        log(f"  {experiment.bench:<28} {outcome.seconds:7.1f}s  "
            f"{len(rows)} row(s)  "
            f"{'ok' if outcome.ok else 'FAILED ' + error}")
        for row in rows:
            log(f"    {json.dumps(row['params'], sort_keys=True)} "
                f"{json.dumps(row['counters'], sort_keys=True)}")
    return outcomes


def merge_into_baseline(fresh_path: str, baseline_path: str) -> int:
    """Upsert every fresh row into the baseline file (the documented
    way to refresh the committed snapshot after a gated run); returns
    the number of rows upserted."""
    fresh = load_rows(fresh_path)
    upsert_rows(baseline_path, fresh)
    return len(fresh)


# ----------------------------------------------------------------------
# compare / gate
# ----------------------------------------------------------------------

@dataclass
class Delta:
    """One baseline-vs-fresh row comparison."""

    bench: str
    params: str                      # canonical params JSON
    status: str          # ok|counter-drift|missing|new|unregistered
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status not in _OK_STATUSES


@dataclass
class Comparison:
    """The full diff: one delta per compared, missing or new row."""

    deltas: List[Delta]

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if d.failed]

    @property
    def ok(self) -> bool:
        return not self.failures


def compare_rows(baseline: Sequence[Dict[str, Any]],
                 fresh: Sequence[Dict[str, Any]],
                 benches: Optional[Sequence[str]] = None) -> Comparison:
    """Diff fresh rows against the baseline.

    Only rows whose bench appears in *fresh* (or in *benches*, when
    given) are considered — the baseline holds the full matrix while a
    smoke run refreshes a subset.  Each matched row gets an exact
    comparison of its whole ``counters`` dict; a fresh row of a bench
    the registry does not declare (a stale or hand-edited file) fails.
    """
    scope = set(benches) if benches is not None else \
        {row.get("bench") for row in fresh}
    base_by_key = {row_key(row): row for row in baseline
                   if row.get("bench") in scope}
    fresh_by_key = {row_key(row): row for row in fresh
                    if row.get("bench") in scope}

    deltas: List[Delta] = []
    for key, fresh_row in fresh_by_key.items():
        base_row = base_by_key.get(key)
        if key[0] not in BY_BENCH:
            deltas.append(Delta(
                key[0], key[1], "unregistered",
                detail=f"{key[0]!r} is not a bench of "
                       f"repro.bench.registry.EXPERIMENTS"))
        elif base_row is None:
            deltas.append(Delta(key[0], key[1], "new",
                                detail="no baseline row yet"))
        else:
            deltas.append(_delta_of(key, base_row, fresh_row))
    for key in set(base_by_key) - set(fresh_by_key):
        deltas.append(Delta(key[0], key[1], "missing",
                            detail="baseline row not re-emitted"))
    deltas.sort(key=lambda d: (d.failed is False, d.bench, d.params))
    return Comparison(deltas)


def _delta_of(key: Tuple[str, str], base: Dict[str, Any],
              fresh: Dict[str, Any]) -> Delta:
    bench, params = key
    base_counters = base.get("counters") or {}
    fresh_counters = fresh.get("counters") or {}
    drifted = []
    # A counter absent from one side is drift too: renaming, dropping
    # or adding a counter must show up in the committed file.
    for name in sorted(set(base_counters) | set(fresh_counters)):
        if name not in base_counters:
            drifted.append(f"{name} missing from the baseline row")
        elif name not in fresh_counters:
            drifted.append(f"{name} missing from the fresh row")
        elif base_counters[name] != fresh_counters[name]:
            drifted.append(f"{name} {base_counters[name]} -> "
                           f"{fresh_counters[name]}")
    if drifted:
        return Delta(bench, params, "counter-drift", "; ".join(drifted))
    return Delta(bench, params, "ok")


def render_delta_table(comparison: Comparison) -> str:
    """The human delta table the gate prints (and CI uploads)."""
    lines = [f"{'bench':<28} {'status':<14} params",
             "-" * 80]
    for d in comparison.deltas:
        lines.append(f"{d.bench:<28} {d.status:<14} {d.params}")
        if d.detail and d.status != "ok":
            lines.append(f"    {d.detail}")
    lines.append(f"{len(comparison.deltas)} row(s) compared counter "
                 f"for counter; "
                 f"{len(comparison.failures)} failure(s)")
    return "\n".join(lines)


def comparison_to_json(comparison: Comparison) -> Dict[str, Any]:
    return {
        "failures": len(comparison.failures),
        "deltas": [{
            "bench": d.bench, "params": json.loads(d.params)
            if d.params else {},
            "status": d.status, "detail": d.detail,
        } for d in comparison.deltas],
    }


def current_environment_line() -> str:
    """What ``bench run`` logs about this process (never written to a
    row: the counters are the same on every platform and backend)."""
    return (f"environment: {sys.platform} {platform.machine()} "
            f"{'numpy' if use_numpy() else 'stdlib'} "
            f"py{platform.python_version()}")
