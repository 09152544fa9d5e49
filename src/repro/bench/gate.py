"""Run, compare, gate, and rank the experiment matrix.

The four verbs behind ``repro bench``:

* :func:`run_experiments` — execute selected ``benchmarks/bench_*.py``
  modules through pytest-benchmark in subprocesses, collecting their
  rows into a scratch file (:func:`merge_into_baseline` upserts them
  into the committed baseline).
* :func:`compare_rows` — diff a fresh row file against the committed
  ``BENCH_join.json`` baseline, producing one :class:`Delta` per
  matched row.
* gate exit code — nonzero when a declared deterministic counter
  differs from (or is absent on either side of) the baseline, a
  selected row went missing, or a module run failed.
* :func:`rank_components` — the component-impact report: every
  :data:`~repro.bench.registry.COMPONENTS` contrast found in the
  committed rows, ranked by measured impact factor.

The gate judges *counts*, never milliseconds: a deterministic counter
is identical on every run of the same code over the same seeds, on
either kernel backend, so the comparison is plain equality.
Wall time is measured by ``perf/`` (see ``perf/README.md``).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .envinfo import describe, environment_fingerprint
from .registry import (BY_BENCH, COMPONENTS, Component, Experiment,
                       benchmarks_dir)

#: Default REPRO_SCALE for gate runs: exhibits regenerate quickly and
#: the timed counters do not depend on it (timing trees are fixed).
DEFAULT_RUN_SCALE = 0.02

_OK_STATUSES = ("ok", "new")


# ----------------------------------------------------------------------
# Row plumbing
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _emit_module():
    """Load ``benchmarks/emit.py`` (not a package; load by path)."""
    path = os.path.join(benchmarks_dir(), "emit.py")
    spec = importlib.util.spec_from_file_location("repro_bench_emit",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_rows(path: str) -> List[Dict[str, Any]]:
    """Validated rows of one ``BENCH_join.json``-shaped file."""
    return _emit_module().load_rows(path)


def _row_key(row: Dict[str, Any]) -> Tuple[str, str]:
    """``(bench, canonical params JSON)`` — the emitter's upsert key."""
    return _emit_module().row_key(row.get("bench", ""),
                                  row.get("params", {}))


def default_baseline_path() -> str:
    """The committed baseline: ``BENCH_join.json`` at the repo root."""
    return os.path.join(os.path.dirname(benchmarks_dir()),
                        "BENCH_join.json")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

@dataclass
class RunOutcome:
    """One experiment module's execution."""

    experiment: Experiment
    returncode: int
    seconds: float
    rows: int
    output_tail: str = ""

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and self.rows > 0


def run_experiments(experiments: Sequence[Experiment], out_path: str,
                    scale: float = DEFAULT_RUN_SCALE,
                    timeout: float = 600.0,
                    bench_dir: Optional[str] = None,
                    log: Callable[[str], None] = lambda s: None,
                    cache: bool = True) -> List[RunOutcome]:
    """Execute experiment modules under pytest-benchmark, emitting
    rows into *out_path*.

    Each module runs once, in its own subprocess (the bench modules
    expect a fresh interpreter: numpy detection, worker spawn) with
    ``REPRO_BENCH_OUT`` pointed at *out_path* and ``REPRO_SCALE``
    pinned.  A module that exceeds *timeout* seconds or exits nonzero
    is reported, not raised — the gate turns it into a failure.

    ``cache=False`` runs the modules with ``REPRO_NO_CACHE=1``: the
    ``.bench_cache/`` memo is keyed by configuration, not by code, so
    the gate must recompute every exhibit counter from the code under
    test instead of reading what an earlier commit computed.
    """
    directory = bench_dir or benchmarks_dir()
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["REPRO_BENCH_OUT"] = os.path.abspath(out_path)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if not cache:
        env["REPRO_NO_CACHE"] = "1"
    outcomes: List[RunOutcome] = []
    for experiment in experiments:
        module_path = os.path.join(directory, experiment.module)
        command = [sys.executable, "-m", "pytest", module_path,
                   "-q", "--benchmark-only", "-p",
                   "no:cacheprovider"]
        start = time.perf_counter()
        returncode, output = 0, ""
        for extra in experiment.variants:
            run_env = dict(env)
            run_env["REPRO_SCALE"] = str(
                experiment.scale if experiment.scale is not None
                else scale)
            run_env.update(extra)
            try:
                proc = subprocess.run(command, env=run_env,
                                      text=True,
                                      capture_output=True,
                                      timeout=timeout,
                                      cwd=os.path.dirname(directory))
                output += proc.stdout + proc.stderr
                returncode = returncode or proc.returncode
            except subprocess.TimeoutExpired as exc:
                returncode = returncode or -1
                output += (f"{exc}\n" + (exc.stdout or "")
                           + (exc.stderr or ""))
        seconds = time.perf_counter() - start
        # Present-after-run count (not a delta): re-running a
        # bench upserts its existing keys, which is still success.
        rows = _count_rows(out_path, experiment.bench)
        outcome = RunOutcome(experiment, returncode, seconds, rows,
                             output_tail="\n".join(
                                 output.splitlines()[-25:]))
        outcomes.append(outcome)
        status = "ok" if outcome.ok else "FAILED"
        log(f"  {experiment.bench:<28} {seconds:7.1f}s  "
            f"{rows} row(s)  {status}")
        if not outcome.ok:
            log(outcome.output_tail)
    return outcomes


def _count_rows(path: str, bench: str) -> int:
    if not os.path.exists(path):
        return 0
    try:
        with open(path) as handle:
            rows = json.load(handle)
    except (json.JSONDecodeError, OSError):
        return 0
    return sum(1 for r in rows if isinstance(r, dict)
               and r.get("bench") == bench)


def merge_into_baseline(fresh_path: str, baseline_path: str) -> int:
    """Upsert every fresh row into the baseline file (the documented
    way to refresh the committed snapshot after a gated run); returns
    the number of rows upserted."""
    fresh = load_rows(fresh_path)
    baseline = (load_rows(baseline_path)
                if os.path.exists(baseline_path) else [])
    by_key = {_row_key(row): row for row in baseline}
    for row in fresh:
        by_key[_row_key(row)] = row
    _emit_module().write_rows(baseline_path, by_key.values())
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
    base_by_key = {_row_key(row): row for row in baseline
                   if row.get("bench") in scope}
    fresh_by_key = {_row_key(row): row for row in fresh
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
                    component, _row_key(row)[1], float(on),
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
