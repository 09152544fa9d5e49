"""Baseline joins without index traversal.

* :func:`nested_loop_join` — the quadratic baseline of Section 2.1
  ("every object of the one relation has to be checked against all
  objects of the other relation ... the performance ... is not
  acceptable").  Used as the correctness oracle in tests and as the
  lower anchor in benchmarks.
* :func:`plane_sweep_join` — a sort-based join over the raw rectangle
  sets (the "similar to a sort-merge join" approach the paper mentions
  for relations without an index).
* :func:`index_nested_loop_join` — one window query per outer object
  against the inner tree (extension baseline).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from .pairs import ref_pairs, sorted_intersection_test_columns
from .stats import JoinResult, JoinStatistics
from .window import WindowQueryEngine

RectRecord = Tuple[Rect, int]


def nested_loop_join(left: Sequence[RectRecord],
                     right: Sequence[RectRecord]) -> JoinResult:
    """All intersecting id pairs by brute force."""
    stats = JoinStatistics(algorithm="nested-loop")
    counter = stats.comparisons
    pairs: List[Tuple[int, int]] = []
    comparisons = 0
    for rect_r, id_r in left:
        rxl = rect_r.xl
        ryl = rect_r.yl
        rxu = rect_r.xu
        ryu = rect_r.yu
        for rect_s, id_s in right:
            if rect_s.xl > rxu:
                comparisons += 1
            elif rxl > rect_s.xu:
                comparisons += 2
            elif rect_s.yl > ryu:
                comparisons += 3
            else:
                comparisons += 4
                if rect_s.yu >= ryl:
                    pairs.append((id_r, id_s))
    counter.join += comparisons
    stats.pairs_output = len(pairs)
    return JoinResult(pairs, stats)


def plane_sweep_join(left: Sequence[RectRecord],
                     right: Sequence[RectRecord]) -> JoinResult:
    """Sort both sets by xl, then run the SortedIntersectionTest."""
    stats = JoinStatistics(algorithm="plane-sweep")
    counter = stats.comparisons

    cols_l, count_l = NodeColumns.from_rect_refs(left).xlo_sorted()
    cols_r, count_r = NodeColumns.from_rect_refs(right).xlo_sorted()
    counter.sort += count_l + count_r
    idx_l, idx_r = sorted_intersection_test_columns(cols_l, cols_r,
                                                    counter)
    pairs = ref_pairs(cols_l, cols_r, idx_l, idx_r)
    stats.pairs_output = len(pairs)
    return JoinResult(pairs, stats)


def index_nested_loop_join(outer: Sequence[RectRecord],
                           inner_tree: RTreeBase,
                           buffer_kb: float = 0.0) -> JoinResult:
    """One window query per outer record against the inner tree."""
    stats = JoinStatistics(algorithm="index-nested-loop",
                           page_size=inner_tree.params.page_size,
                           buffer_kb=buffer_kb)
    engine = WindowQueryEngine(inner_tree, buffer_kb=buffer_kb)
    pairs: List[Tuple[int, int]] = []
    for rect, ref in outer:
        result = engine.query(rect)
        pairs.extend((ref, match) for match in result.refs)
    stats.comparisons = engine.counter
    stats.io = engine.manager.stats
    stats.pairs_output = len(pairs)
    return JoinResult(pairs, stats)
