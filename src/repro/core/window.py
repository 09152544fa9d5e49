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
from ..storage.manager import BufferManager
from ..storage.stats import IOStatistics
from .pairs import restrict_columns


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

    def query(self, window: Rect) -> WindowQueryResult:
        """Run one window query, returning matches and fresh counters."""
        io_before = self.manager.stats.snapshot()
        cmp_before = self.counter.snapshot()
        refs: List[int] = []
        self._descend(self.tree.root_id, 0, window, refs)
        result = WindowQueryResult(refs=refs)
        result.comparisons.join = self.counter.join - cmp_before.join
        result.io.disk_reads = \
            self.manager.stats.disk_reads - io_before.disk_reads
        result.io.lru_hits = self.manager.stats.lru_hits - io_before.lru_hits
        result.io.path_hits = \
            self.manager.stats.path_hits - io_before.path_hits
        return result

    def _descend(self, page_id: int, depth: int, window: Rect,
                 refs: List[int]) -> None:
        node = self.manager.read(self._side, page_id, depth)
        # The restriction kernel charges the same short-circuit pattern
        # as a per-entry ``intersect_count`` loop, so counters match the
        # scalar implementation exactly.
        kept = restrict_columns(node.columns, window, self.counter)
        if node.is_leaf:
            refs.extend(kept.child_refs())
            return
        for ref in kept.child_refs():
            self._descend(ref, depth + 1, window, refs)
