"""The experiment matrix: every exhibit, declared once.

One :class:`Experiment` per paper exhibit, ablation or contrast bench:
the function that renders its report (``repro bench <name>``, and what
``benchmarks/bench_exhibits.py`` asserts the paper's claims on), the
gate row — a :class:`~repro.bench.matrix.JoinRow` declaration or a
small callable from :mod:`repro.bench.matrix` that computes its
``BENCH_join.json`` row(s) in-process — the tier it runs in, and which
of the row's counters ``repro bench gate`` compares exactly.

:data:`COMPONENTS` is the second half of the matrix: which committed
rows carry an on/off contrast for each optimization the paper (and
this repo) layers onto the join.  ``repro bench rank`` turns those
contrasts into the ranked component-impact report (informational: the
contrasts are wall-clock readings of small in-row runs and are never
gated).

``tests/bench/test_registry.py`` keeps the registry, the claims module
and the committed ``BENCH_join.json`` agreeing both ways, so adding a
bench without declaring it — or retiring one half-way — fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import ablations as ab
from . import experiments as ex
from . import matrix
from .matrix import JoinRow, RowData, tree_height
from .tables import ExperimentReport

#: Counter triple shared by most join benches (see JoinStatistics).
JOIN_COUNTERS = ("pairs", "comparisons", "disk_accesses")


@dataclass(frozen=True)
class Experiment:
    """One declared exhibit: its report, its gate row, how to judge
    it."""

    #: Row key — the ``bench`` field of the row(s).
    bench: str
    #: Renders the exhibit (None for a contrast bench with no table).
    report: Optional[Callable[..., ExperimentReport]]
    #: Computes the row(s): ``() -> [(params, counters), ...]``.
    row: Callable[[], List[RowData]]
    #: ``smoke`` (the quick CI gate subset) or ``full`` (everything).
    tier: str = "full"
    #: Counters identical on every run of the same code over the same
    #: seeds, compared exactly between baseline and fresh rows (drift
    #: there is a correctness regression, not noise).
    deterministic: Tuple[str, ...] = ()


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
_SJ4_128 = {"algorithm": "sj4", "buffer_kb": 128}

#: Every benchmark, keyed by bench name.  ``smoke`` entries are the
#: fast, assertion-stable subset the CI gate runs end to end.
EXPERIMENTS: Tuple[Experiment, ...] = (
    _E("table1_tree_properties", ex.table1,
       partial(tree_height, {"page_size": 2048, "records": 2000},
               first=2000),
       deterministic=("height",)),
    _E("table2_sj1", ex.table2,
       JoinRow({"algorithm": "sj1", "buffer_kb": 128},
               keys=("page_size",)),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("table3_restriction", ex.table3,
       JoinRow({"algorithm": "sj2", "buffer_kb": 128},
               contrast=("restrict_ms", "norestrict_ms",
                         {"algorithm": "sj1"})),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("table4_sorting", ex.table4,
       JoinRow({"algorithm": "sj3", "buffer_kb": 128},
               contrast=("nopresort_ms", "presort_ms",
                         {"presort": True})),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("table5_io_policies", ex.table5, JoinRow(_SJ4_128),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("table6_sj4_vs_sj1", ex.table6,
       JoinRow(_SJ4_128, page_size=8192, keys=("page_size",)),
       deterministic=JOIN_COUNTERS),
    _E("table7_heights", ex.table7, matrix.unequal_heights,
       deterministic=JOIN_COUNTERS),
    _E("table8_datasets", ex.table8, matrix.dataset_census,
       deterministic=("r_objects", "s_objects")),
    _E("figure2_sj1_time", ex.figure2, matrix.sj1_modelled_time,
       deterministic=("value",)),
    # SJ5: the z-order alternative whose extra CPU Figure 8's
    # discussion calls out.
    _E("figure8_sj4_time", ex.figure8,
       JoinRow({"algorithm": "sj5", "buffer_kb": 128}),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("figure9_improvement", ex.figure9, matrix.sj1_plus_sj4,
       deterministic=JOIN_COUNTERS),
    _E("figure10_datasets", ex.figure10,
       JoinRow(_SJ4_128, test="E", scale=0.05,
               keys=("test", "page_size")),
       deterministic=JOIN_COUNTERS),
    # The smallest scale of the exhibit's sweep.
    _E("scaling", ex.scaling,
       JoinRow(_SJ4_128, scale=0.03, keys=("page_size",)),
       deterministic=JOIN_COUNTERS),
    _E("ablation_pinning", ab.ablation_pinning,
       JoinRow({"algorithm": "sj4", "buffer_kb": 8},
               contrast=("sj4_ms", "sj3_ms", {"algorithm": "sj3"})),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("ablation_pathbuffer", ab.ablation_pathbuffer,
       JoinRow({"algorithm": "sj1", "buffer_kb": 0,
                "use_path_buffer": False},
               contrast=("without_ms", "with_ms",
                         {"use_path_buffer": True})),
       tier="smoke", deterministic=JOIN_COUNTERS),
    _E("ablation_rtree_variant", ab.ablation_rtree_variant,
       partial(tree_height, {"variant": "guttman-quadratic",
                             "page_size": 2048}, first=1500),
       deterministic=("height",)),
    _E("ablation_bulk_loading", ab.ablation_bulk_loading,
       partial(tree_height, {"variant": "str", "page_size": 4096}),
       deterministic=("height",)),
    _E("ablation_sweep_crossover", ab.ablation_sweep_crossover,
       matrix.sweep_crossover,
       tier="smoke", deterministic=("pairs", "comparisons")),
    _E("ablation_refinement", ab.ablation_refinement,
       matrix.refinement_row,
       deterministic=("candidates", "false_hits", "pairs")),
    _E("ablation_estimator", ab.ablation_estimator,
       matrix.estimator_vs_measured, deterministic=JOIN_COUNTERS),
    _E("ablation_parallel_io", ab.ablation_parallel_io,
       matrix.parallel_io_projection, deterministic=JOIN_COUNTERS),
    _E("ablation_window_queries", ab.ablation_window_queries,
       matrix.window_battery, deterministic=("value",)),
    _E("ablation_distance_join", ab.ablation_distance_join,
       matrix.distance_join_row, deterministic=JOIN_COUNTERS),
    _E("ablation_planner", ab.ablation_planner, matrix.planner_regret,
       tier="smoke"),
    _E("sweep_kernel", None, matrix.sweep_kernel,
       deterministic=("pairs", "comparisons")),
    _E("wal_overhead", None, matrix.wal_overhead,
       deterministic=("always_syncs", "batch_syncs")),
)

#: bench name -> Experiment.
BY_BENCH: Dict[str, Experiment] = {e.bench: e for e in EXPERIMENTS}

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
