"""The experiment matrix: every exhibit, declared once.

One :class:`Experiment` per paper exhibit, ablation or contrast bench:
the function that renders its report (``repro bench <name>``, and what
``benchmarks/bench_exhibits.py`` asserts the paper's claims on), the
gate row — a small callable from :mod:`repro.bench.matrix` that
computes its ``BENCH_join.json`` row(s) in-process, one cell of the
exhibit — and the tier it runs in.  Every counter a row returns is
compared exactly by ``repro bench gate``; there is no list of gated
names to keep in step.

``tests/bench/test_registry.py`` and ``tests/bench/test_matrix.py``
keep the registry, the claims module and the committed
``BENCH_join.json`` agreeing both ways, so adding a bench without
declaring it — or retiring one half-way — fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import ablations as ab
from . import experiments as ex
from . import matrix
from .matrix import RowData, join_row, tree_height
from .tables import ExperimentReport


@dataclass(frozen=True)
class Experiment:
    """One declared exhibit: its report and its gate row."""

    #: Row key — the ``bench`` field of the row(s).
    bench: str
    #: Renders the exhibit (None for a contrast bench with no table).
    report: Optional[Callable[..., ExperimentReport]]
    #: Computes the row(s): ``() -> [(params, counters), ...]``, every
    #: counter identical on every run of the same code.
    row: Callable[[], List[RowData]]
    #: ``smoke`` (the quick CI gate subset) or ``full`` (everything).
    tier: str = "full"


_E = Experiment
_SJ4_128 = {"algorithm": "sj4", "buffer_kb": 128}

#: Every benchmark, keyed by bench name.  ``smoke`` entries are the
#: fast, assertion-stable subset the CI gate runs end to end.
EXPERIMENTS: Tuple[Experiment, ...] = (
    _E("table1_tree_properties", ex.table1,
       partial(tree_height, {"page_size": 2048, "records": 2000},
               first=2000)),
    _E("table2_sj1", ex.table2,
       partial(join_row, {"algorithm": "sj1", "buffer_kb": 128},
               keys=("page_size",)),
       tier="smoke"),
    _E("table3_restriction", ex.table3,
       partial(join_row, {"algorithm": "sj2", "buffer_kb": 128}),
       tier="smoke"),
    _E("table4_sorting", ex.table4,
       partial(join_row, {"algorithm": "sj3", "buffer_kb": 128}),
       tier="smoke"),
    _E("table5_io_policies", ex.table5, partial(join_row, _SJ4_128),
       tier="smoke"),
    _E("table6_sj4_vs_sj1", ex.table6,
       partial(join_row, _SJ4_128, page_size=8192,
               keys=("page_size",))),
    _E("table7_heights", ex.table7, matrix.unequal_heights),
    _E("table8_datasets", ex.table8, matrix.dataset_census),
    _E("figure2_sj1_time", ex.figure2, matrix.sj1_modelled_time),
    # SJ5: the z-order alternative whose extra CPU Figure 8's
    # discussion calls out.
    _E("figure8_sj4_time", ex.figure8,
       partial(join_row, {"algorithm": "sj5", "buffer_kb": 128}),
       tier="smoke"),
    _E("figure9_improvement", ex.figure9, matrix.sj1_plus_sj4),
    _E("figure10_datasets", ex.figure10,
       partial(join_row, _SJ4_128, test="E", scale=0.05,
               keys=("test", "page_size"))),
    # The smallest scale of the exhibit's sweep.
    _E("scaling", ex.scaling,
       partial(join_row, _SJ4_128, scale=0.03, keys=("page_size",))),
    _E("ablation_pinning", ab.ablation_pinning,
       partial(join_row, {"algorithm": "sj4", "buffer_kb": 8}),
       tier="smoke"),
    _E("ablation_pathbuffer", ab.ablation_pathbuffer,
       partial(join_row, {"algorithm": "sj1", "buffer_kb": 0,
                          "use_path_buffer": False}),
       tier="smoke"),
    _E("ablation_rtree_variant", ab.ablation_rtree_variant,
       partial(tree_height, {"variant": "guttman-quadratic",
                             "page_size": 2048}, first=1500)),
    _E("ablation_bulk_loading", ab.ablation_bulk_loading,
       partial(tree_height, {"variant": "str", "page_size": 4096})),
    _E("ablation_sweep_crossover", ab.ablation_sweep_crossover,
       matrix.sweep_crossover, tier="smoke"),
    _E("ablation_refinement", ab.ablation_refinement,
       matrix.refinement_row),
    _E("ablation_estimator", ab.ablation_estimator,
       matrix.estimator_vs_measured),
    _E("ablation_parallel_io", ab.ablation_parallel_io,
       matrix.parallel_io_projection),
    _E("ablation_window_queries", ab.ablation_window_queries,
       matrix.window_battery),
    _E("ablation_distance_join", ab.ablation_distance_join,
       matrix.distance_join_row),
    # 25 joins over tests A–E (~16 s): too slow for the smoke tier.
    _E("ablation_planner", ab.ablation_planner, matrix.planner_regret),
    _E("sweep_kernel", None, matrix.sweep_kernel),
    _E("wal_overhead", None, matrix.wal_overhead),
)

#: bench name -> Experiment.
BY_BENCH: Dict[str, Experiment] = {e.bench: e for e in EXPERIMENTS}

#: ``repro bench <name>`` -> the report it prints: a report function's
#: name, with dashes.
REPORTS: Dict[str, Callable[..., ExperimentReport]] = {
    e.report.__name__.replace("_", "-"): e.report
    for e in EXPERIMENTS if e.report is not None}


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
