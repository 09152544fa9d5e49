"""The experiment matrix: every benchmark, declared.

``benchmarks/`` holds one pytest-benchmark module per paper exhibit or
ablation; each emits one or more rows into ``BENCH_join.json`` through
``benchmarks/emit.py``.  This registry is the declarative index over
that matrix: for every bench it records the module that produces it,
the tier it runs in (``smoke`` is the quick CI gate subset, ``full``
is everything), and which of its counters are *deterministic* —
identical on every run of the same code over the same seeds, and
therefore compared exactly by ``repro bench gate`` (a drifted
deterministic counter is a correctness regression, not noise).

:data:`COMPONENTS` is the second half of the matrix: which committed
rows carry an on/off contrast for each optimization the paper (and
this repo) layers onto the join — restriction, sweep layout, presort,
path buffer, pinning, planner, WAL sync.  ``repro bench rank`` turns
those contrasts into the ranked component-impact report
(informational: the contrasts are wall-clock readings of small
in-row runs and are never gated).

Registry completeness tests (``tests/bench/test_registry.py``) assert
every ``benchmarks/bench_*.py`` has an entry and that the committed
``BENCH_join.json`` and this registry agree both ways, so adding a
bench without declaring it — or retiring one half-way — fails CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Counter triple shared by most join benches (see JoinStatistics).
JOIN_COUNTERS = ("pairs", "comparisons", "disk_accesses")


@dataclass(frozen=True)
class Experiment:
    """One declared benchmark: a bench name and how to judge it."""

    #: Row key — the ``bench`` field the module emits.
    bench: str
    #: Module under ``benchmarks/`` that produces the row(s).
    module: str
    #: ``smoke`` (runs in the CI gate) or ``full``.
    tier: str = "full"
    #: Counters compared exactly between baseline and fresh rows.
    deterministic: Tuple[str, ...] = ()
    #: Pinned ``REPRO_SCALE`` for this module, when its exhibit
    #: assertions are tuned to one dataset scale (None = use the
    #: harness run scale; the timed counters never depend on it).
    scale: Optional[float] = None
    #: Extra-environment variants: the module runs once per dict with
    #: those variables added (e.g. ``REPRO_NO_NUMPY=1`` re-runs the
    #: sweep kernel on the stdlib backend so both committed rows
    #: refresh).  The default is one plain run.
    variants: Tuple[Dict[str, str], ...] = ({},)
    #: One-line description for reports.
    note: str = ""


@dataclass(frozen=True)
class Component:
    """One optimization with an on/off contrast in a committed row.

    ``on``/``off`` name counters of the row(s) emitted by *bench*.  For
    ``kind="time"`` they are milliseconds and the impact factor is
    ``off / on`` (how much slower the system runs without the
    component); for ``kind="rate"`` they are throughputs and the impact
    is ``on / off``.
    """

    key: str
    bench: str
    on: str
    off: str
    kind: str = "time"          # "time" (ms, lower better) | "rate"
    note: str = ""


_E = Experiment

#: Every benchmark, keyed by bench name.  ``smoke`` entries are the
#: fast, assertion-stable subset the CI gate runs end to end.
EXPERIMENTS: Tuple[Experiment, ...] = (
    _E("table1_tree_properties", "bench_table1_tree_properties.py",
       deterministic=("height",),
       note="R*-tree shape vs page size (Table 1)"),
    _E("table2_sj1", "bench_table2_sj1.py", tier="smoke",
       deterministic=JOIN_COUNTERS,
       note="SJ1 accesses and comparisons (Table 2)"),
    _E("table3_restriction", "bench_table3_restriction.py",
       tier="smoke", deterministic=JOIN_COUNTERS,
       note="search-space restriction on/off (Table 3)"),
    _E("table4_sorting", "bench_table4_sorting.py", tier="smoke",
       deterministic=JOIN_COUNTERS,
       note="plane sweep + eager presort (Table 4)"),
    _E("table5_io_policies", "bench_table5_io_policies.py",
       tier="smoke", deterministic=JOIN_COUNTERS,
       note="read-schedule policies (Table 5)"),
    _E("table6_sj4_vs_sj1", "bench_table6_sj4_vs_sj1.py",
       deterministic=JOIN_COUNTERS, scale=0.125,
       note="SJ4 vs SJ1 across page sizes (Table 6)"),
    _E("table7_heights", "bench_table7_heights.py",
       deterministic=JOIN_COUNTERS,
       note="unequal tree heights (Table 7)"),
    _E("table8_datasets", "bench_table8_datasets.py",
       deterministic=("r_objects", "s_objects"),
       note="synthetic TIGER dataset census (Table 8)"),
    _E("figure2_sj1_time", "bench_figure2_sj1_time.py",
       deterministic=("value",),
       note="SJ1 modelled time (Figure 2)"),
    _E("figure8_sj4_time", "bench_figure8_sj4_time.py", tier="smoke",
       deterministic=JOIN_COUNTERS,
       note="SJ5 timed run (Figure 8)"),
    _E("figure9_improvement", "bench_figure9_improvement.py",
       deterministic=JOIN_COUNTERS,
       note="SJ1-to-SJ4 improvement (Figure 9)"),
    _E("figure10_datasets", "bench_figure10_datasets.py",
       deterministic=JOIN_COUNTERS,
       note="SJ4 across datasets (Figure 10)"),
    _E("scaling", "bench_scaling.py",
       deterministic=JOIN_COUNTERS,
       note="join cost vs input cardinality"),
    _E("ablation_pinning", "bench_ablation_pinning.py", tier="smoke",
       deterministic=JOIN_COUNTERS,
       note="degree-based pinning: SJ4 vs SJ3 at a tiny buffer"),
    _E("ablation_pathbuffer", "bench_ablation_pathbuffer.py",
       tier="smoke", deterministic=JOIN_COUNTERS,
       note="per-tree path buffer on/off"),
    _E("ablation_rtree_variant", "bench_ablation_rtree_variant.py",
       deterministic=("height",),
       note="R*-tree vs Guttman build quality"),
    _E("ablation_bulk_loading", "bench_ablation_bulk_loading.py",
       deterministic=("height",),
       note="STR bulk loading vs tuple insertion"),
    _E("ablation_sweep_crossover", "bench_ablation_sweep_crossover.py",
       tier="smoke", deterministic=("pairs", "comparisons"),
       note="sweep-vs-nested-loop crossover"),
    _E("ablation_refinement", "bench_ablation_refinement.py",
       deterministic=("candidates", "false_hits", "pairs"),
       note="exact-geometry refinement step"),
    _E("ablation_estimator", "bench_ablation_estimator.py",
       deterministic=JOIN_COUNTERS,
       note="selectivity estimator accuracy"),
    _E("ablation_parallel_io", "bench_ablation_parallel_io.py",
       deterministic=JOIN_COUNTERS, scale=0.125,
       note="multi-disk read-schedule striping"),
    _E("ablation_window_queries", "bench_ablation_window_queries.py",
       deterministic=("value",), scale=0.125,
       note="window-query workload"),
    _E("ablation_distance_join", "bench_ablation_distance_join.py",
       deterministic=JOIN_COUNTERS,
       note="distance join workload"),
    _E("ablation_planner", "bench_ablation_planner.py", tier="smoke",
       note="cost-based planner regret vs fixed algorithms"),
    _E("sweep_kernel", "bench_sweep_kernel.py",
       deterministic=("pairs", "comparisons"),
       variants=({}, {"REPRO_NO_NUMPY": "1"}),
       note="columnar sweep kernel vs per-Entry object loop"),
    _E("wal_overhead", "bench_wal_overhead.py",
       deterministic=("always_syncs", "batch_syncs"),
       note="WAL sync-mode insert throughput"),
)

#: bench name -> Experiment.
BY_BENCH: Dict[str, Experiment] = {e.bench: e for e in EXPERIMENTS}

#: module file -> Experiment (for the completeness test).
BY_MODULE: Dict[str, Experiment] = {e.module: e for e in EXPERIMENTS}

#: The ranked component-impact contrasts (``repro bench rank``).
COMPONENTS: Tuple[Component, ...] = (
    Component("restriction", "table3_restriction",
              on="restrict_ms", off="norestrict_ms",
              note="§4.2 search-space restriction (SJ2 vs SJ1)"),
    Component("sweep_layout", "sweep_kernel",
              on="columnar_ms", off="object_ms",
              note="columnar sweep kernel vs per-Entry objects"),
    Component("presort", "table4_sorting",
              on="presort_ms", off="nopresort_ms",
              note="§3 eager spatial presort before the sweep"),
    Component("path_buffer", "ablation_pathbuffer",
              on="with_ms", off="without_ms",
              note="per-tree path buffer (SJ1, no LRU buffer)"),
    Component("pinning", "ablation_pinning",
              on="sj4_ms", off="sj3_ms",
              note="degree-based page pinning (SJ4 vs SJ3, 8 KB)"),
    Component("planner", "ablation_planner",
              on="auto_ms", off="worst_ms",
              note="cost-based auto choice vs worst fixed algorithm"),
    Component("wal_sync", "wal_overhead",
              on="batch_rps", off="always_rps", kind="rate",
              note="WAL group commit vs fsync-per-ack"),
)


def experiments_for(tier: Optional[str] = None,
                    only: Optional[Tuple[str, ...]] = None
                    ) -> Tuple[Experiment, ...]:
    """Select experiments by tier and/or explicit bench names.

    ``tier=None`` (or ``"full"``) selects everything; unknown names in
    *only* raise so a typo cannot silently gate nothing.
    """
    selected = EXPERIMENTS
    if tier not in (None, "full"):
        if tier != "smoke":
            raise ValueError(f"unknown tier {tier!r} "
                             f"(expected 'smoke' or 'full')")
        selected = tuple(e for e in selected if e.tier == tier)
    if only:
        unknown = sorted(set(only) - {e.bench for e in EXPERIMENTS})
        if unknown:
            raise ValueError(
                f"unknown experiment(s): {', '.join(unknown)} "
                f"(see repro.bench.registry.EXPERIMENTS)")
        chosen = set(only)
        selected = tuple(e for e in EXPERIMENTS if e.bench in chosen)
    return selected


def benchmarks_dir(start: Optional[str] = None) -> str:
    """Locate the ``benchmarks/`` directory: the current directory's,
    else the one next to this installed package's repo root."""
    candidates = []
    if start:
        candidates.append(os.path.join(start, "benchmarks"))
    candidates.append(os.path.join(os.getcwd(), "benchmarks"))
    here = os.path.dirname(os.path.abspath(__file__))   # src/repro/bench
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidates.append(os.path.join(root, "benchmarks"))
    for candidate in candidates:
        if os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError(
        "cannot locate the benchmarks/ directory (run from the "
        "repository root or pass --benchmarks-dir)")
