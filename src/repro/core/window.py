"""Buffered, counted window queries on a single tree.

The paper motivates spatial joins through window-restricted workloads
("For all cities not further away than 100 km from Munich, find all
forests which are in a city", Section 1).  This module provides the
single-scan window query with the same buffer/counter accounting as the
join engine, both for standalone use and for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..geometry.counting import ComparisonCounter
from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from ..storage.manager import BufferManager
from ..storage.stats import IOStatistics
from .heights import _batched_window_query


@dataclass
class WindowQueryResult:
    """Matches plus the counters of one (or several) window queries."""

    refs: List[int] = field(default_factory=list)
    comparisons: ComparisonCounter = field(default_factory=ComparisonCounter)
    io: IOStatistics = field(default_factory=IOStatistics)

    def __len__(self) -> int:
        return len(self.refs)


class WindowQueryEngine:
    """Runs counted window queries against one tree.

    Successive queries share the engine's LRU buffer, so query batteries
    measure warm-buffer behaviour exactly like a join would.
    """

    def __init__(self, tree: RTreeBase, buffer_kb: float = 0.0) -> None:
        self.tree = tree
        self.manager = BufferManager.for_buffer_size(
            buffer_kb, tree.params.page_size)
        self._side = self.manager.register(tree.store)
        self.counter = ComparisonCounter()

    def read(self, side: int, page_id: int, depth: int):
        """Counted page fetch — with :attr:`counter`, everything the
        batched descent needs of a join context."""
        return self.manager.read(side, page_id, depth)

    def query(self, window: Rect) -> WindowQueryResult:
        """Run one window query, returning matches and fresh counters.

        A single window is a batch of one: the descent is
        :func:`repro.core.heights._batched_window_query`, which charges
        exactly what a per-entry ``intersect_count`` loop would."""
        io_before = self.manager.stats.snapshot()
        cmp_before = self.counter.snapshot()
        refs: List[int] = []
        _batched_window_query(
            self, self._side, self.tree.root_id, 0,
            NodeColumns.from_rect_refs([(window, 0)]),
            lambda ref, _window: refs.append(ref))
        result = WindowQueryResult(refs=refs)
        result.comparisons.join = self.counter.join - cmp_before.join
        result.io = self.manager.stats.since(io_before)
        return result
