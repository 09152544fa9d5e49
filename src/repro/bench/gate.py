"""Run, compare, gate, and rank the experiment matrix.

The four verbs behind ``repro bench``:

* :func:`run_experiments` — compute the selected registry entries'
  rows in this process (the CLI writes them to a scratch file;
  :func:`merge_into_baseline` upserts that into the committed
  baseline).
* :func:`compare_rows` — diff a fresh row file against the committed
  ``BENCH_join.json`` baseline, producing one :class:`Delta` per
  matched row.
* gate exit code — nonzero when a declared deterministic counter
  differs from (or is absent on either side of) the baseline, a
  selected row went missing, or a row computation failed.
* :func:`rank_components` — the component-impact report: every
  :data:`~repro.bench.registry.COMPONENTS` contrast found in the
  committed rows, ranked by measured impact factor.

The gate judges *counts*, never milliseconds: a deterministic counter
is identical on every run of the same code over the same seeds, on
either kernel backend, so the comparison is plain equality.
Wall time is measured by ``perf/`` (see ``perf/README.md``).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .envinfo import describe, environment_fingerprint
from .registry import BY_BENCH, COMPONENTS, Component, Experiment
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

    A row computation that raises (its own sanity asserts included) is
    reported, not raised — the gate turns it into a failure.
    """
    outcomes: List[RunOutcome] = []
    for experiment in experiments:
        start = time.perf_counter()
        rows: List[Dict[str, Any]] = []
        error = ""
        try:
            rows = [new_row(experiment.bench, params, counters)
                    for params, counters in experiment.row()]
        except Exception as exc:  # noqa: BLE001 — reported per row
            error = f"{type(exc).__name__}: {exc}"
            log(traceback.format_exc())
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
    status: str                      # ok|counter-drift|missing|new
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
    comparison of its experiment's declared deterministic counters.
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
        if base_row is None:
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
    experiment = BY_BENCH.get(bench)
    base_counters = base.get("counters") or {}
    fresh_counters = fresh.get("counters") or {}
    drifted = []
    # An absent declared counter is drift too: renaming or dropping a
    # counter must not silently un-gate it.
    for name in experiment.deterministic if experiment else ():
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
    lines.append(f"{len(comparison.deltas)} row(s) compared on their "
                 f"declared deterministic counters; "
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


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------

@dataclass
class ComponentImpact:
    """One component contrast evaluated on one committed row."""

    component: Component
    params: str
    on_value: float
    off_value: float

    @property
    def impact(self) -> float:
        """Speedup factor the component buys (>= 1 means it helps)."""
        if self.component.kind == "rate":
            return self.on_value / self.off_value if self.off_value \
                else 0.0
        return self.off_value / self.on_value if self.on_value else 0.0


def rank_components(rows: Sequence[Dict[str, Any]]
                    ) -> Tuple[List[ComponentImpact], List[Component]]:
    """Evaluate every declared component contrast over committed rows.

    Returns the found impacts (sorted by impact, descending) and the
    components whose contrast counters are absent — a signal that the
    baseline predates the instrumented bench and needs a refresh.
    """
    by_bench: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        by_bench.setdefault(row.get("bench", ""), []).append(row)
    impacts: List[ComponentImpact] = []
    missing: List[Component] = []
    for component in COMPONENTS:
        found = False
        for row in by_bench.get(component.bench, ()):
            counters = row.get("counters") or {}
            on = counters.get(component.on)
            off = counters.get(component.off)
            if isinstance(on, (int, float)) \
                    and isinstance(off, (int, float)) and on and off:
                impacts.append(ComponentImpact(
                    component, row_key(row)[1], float(on),
                    float(off)))
                found = True
        if not found:
            missing.append(component)
    impacts.sort(key=lambda i: i.impact, reverse=True)
    return impacts, missing


def render_rank_table(impacts: Sequence[ComponentImpact],
                      missing: Sequence[Component]) -> str:
    """The ranked component-impact report."""
    lines = ["component impact (committed BENCH_join.json baseline; "
             "factor = speedup the component buys)",
             f"{'component':<14} {'impact':>8}  {'on':>12} "
             f"{'off':>12}  source",
             "-" * 76]
    for item in impacts:
        c = item.component
        unit = "req/s" if c.kind == "rate" else "ms"
        lines.append(
            f"{c.key:<14} {item.impact:>7.2f}x  "
            f"{item.on_value:>9.1f} {unit:<3} "
            f"{item.off_value:>9.1f} {unit:<3} "
            f"{c.bench} {item.params}")
        lines.append(f"    {c.note}")
    for c in missing:
        lines.append(f"{c.key:<14} {'n/a':>8}  baseline row of "
                     f"{c.bench!r} lacks {c.on}/{c.off} — refresh the "
                     f"baseline (repro bench run --update-baseline)")
    return "\n".join(lines)


def rank_to_json(impacts: Sequence[ComponentImpact],
                 missing: Sequence[Component]) -> Dict[str, Any]:
    return {
        "components": [{
            "component": i.component.key, "bench": i.component.bench,
            "impact": round(i.impact, 3), "on": i.on_value,
            "off": i.off_value, "kind": i.component.kind,
            "params": json.loads(i.params) if i.params else {},
        } for i in impacts],
        "missing": [c.key for c in missing],
    }


def current_environment_line() -> str:
    return f"environment: {describe(environment_fingerprint())}"
