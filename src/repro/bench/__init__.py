"""Benchmark harness: experiment runners for every paper exhibit.

``repro bench table2`` (or ``python -m repro.bench table2``) prints one
exhibit; ``repro bench all`` prints everything.  ``repro bench run |
gate`` compute the gate rows :mod:`repro.bench.registry` declares, and
``benchmarks/bench_exhibits.py`` asserts the paper's claims on the
same report functions.
"""

from .experiments import (BUFFER_SIZES_KB, PAGE_SIZES, TESTS,
                          figure2, figure8, figure9, figure10, table1,
                          table2, table3, table4, table5, table6, table7,
                          table8)
from .gate import (Comparison, Delta, compare_rows, merge_into_baseline,
                   render_delta_table, run_experiments)
from .registry import EXPERIMENTS, REPORTS, Experiment, experiments_for
from .runner import (JoinOutcome, build_tree, optimum_accesses,
                     presort_cost, run_join, test_properties, test_tree,
                     test_trees)
from .tables import ExperimentReport, format_table

__all__ = [
    "BUFFER_SIZES_KB",
    "Comparison",
    "Delta",
    "EXPERIMENTS",
    "Experiment",
    "compare_rows",
    "experiments_for",
    "merge_into_baseline",
    "render_delta_table",
    "run_experiments",
    "ExperimentReport",
    "JoinOutcome",
    "PAGE_SIZES",
    "REPORTS",
    "TESTS",
    "build_tree",
    "figure10",
    "figure2",
    "figure8",
    "figure9",
    "format_table",
    "optimum_accesses",
    "presort_cost",
    "run_join",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "test_properties",
    "test_tree",
    "test_trees",
]
