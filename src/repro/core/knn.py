"""k-nearest-neighbour search on an R-tree (extension).

Not part of the paper, but the natural companion query for a spatial
DBS: the best-first branch-and-bound traversal of Hjaltason & Samet
(1995/1999).  Nodes and data entries are expanded from a priority queue
ordered by MINDIST, so exactly the necessary pages are read; page
accounting reuses the same buffer machinery as the joins.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..geometry.rect import Rect
from ..rtree.base import RTreeBase
from ..storage.manager import BufferManager
from ..storage.stats import IOStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.delta import FrozenDelta


def mindist(x: float, y: float, rect: Rect) -> float:
    """Smallest Euclidean distance from point (x, y) to *rect*
    (zero when the point lies inside)."""
    dx = 0.0
    if x < rect.xl:
        dx = rect.xl - x
    elif x > rect.xu:
        dx = x - rect.xu
    dy = 0.0
    if y < rect.yl:
        dy = rect.yl - y
    elif y > rect.yu:
        dy = y - rect.yu
    return math.hypot(dx, dy)


@dataclass
class NearestNeighborResult:
    """Matches (nearest first) plus the traversal counters."""

    neighbors: List[Tuple[int, float]] = field(default_factory=list)
    io: IOStatistics = field(default_factory=IOStatistics)
    #: Heap entries expanded (a CPU proxy for this query type).
    expansions: int = 0

    @property
    def refs(self) -> List[int]:
        return [ref for ref, _ in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


class NearestNeighborEngine:
    """Runs buffered kNN queries against one tree."""

    def __init__(self, tree: RTreeBase, buffer_kb: float = 0.0) -> None:
        self.tree = tree
        # Best-first traversal jumps between levels, so the DFS-shaped
        # path buffer does not apply; only the LRU buffer serves hits.
        self.manager = BufferManager.for_buffer_size(
            buffer_kb, tree.params.page_size, use_path_buffer=False)
        self._side = self.manager.register(tree.store)

    def query(self, x: float, y: float, k: int = 1,
              delta: Optional["FrozenDelta"] = None
              ) -> NearestNeighborResult:
        """The *k* data entries whose MBRs are nearest to (x, y).

        With *delta* (an MVCC write buffer over this tree, see
        :mod:`repro.db.delta`) the search runs against the merged
        view: delta-added entries are seeded into the priority queue
        up front, and base leaf entries hidden by the delta (deleted
        or re-inserted oids) are skipped — the result is exact, never
        a post-filtered approximation.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        result = NearestNeighborResult()
        io_before = self.manager.stats.snapshot()
        hidden = delta.hidden if delta is not None else frozenset()

        counter = itertools.count()   # node tiebreaker
        # Heap items: (distance, is_object, tiebreak, payload, depth).
        # At equal distance, nodes (False) expand before objects emit
        # and objects tie-break on their oid — so the answer set and
        # its order are deterministic regardless of tree layout or
        # which side (base tree / delta) a candidate came from.
        heap: List[Tuple[float, bool, int, object, int]] = []
        if len(self.tree.root):
            heap.append((0.0, False, next(counter), self.tree.root_id, 0))
        if delta is not None:
            for oid, rect, _ in delta.iter_added():
                heapq.heappush(
                    heap, (mindist(x, y, rect), True, oid, oid, 0))
        while heap and len(result.neighbors) < k:
            dist, is_object, _, payload, depth = heapq.heappop(heap)
            result.expansions += 1
            if is_object:
                result.neighbors.append((payload, dist))
                continue
            node = self.manager.read(self._side, payload, depth)
            for rect, ref in node.columns.iter_rect_refs():
                if node.is_leaf and ref in hidden:
                    continue
                d = mindist(x, y, rect)
                heapq.heappush(
                    heap,
                    (d, node.is_leaf,
                     ref if node.is_leaf else next(counter), ref,
                     depth + 1))

        result.io = self.manager.stats.since(io_before)
        return result


def nearest_neighbors(tree: RTreeBase, x: float, y: float,
                      k: int = 1) -> List[Tuple[int, float]]:
    """Convenience wrapper: the k nearest (ref, distance) pairs."""
    engine = NearestNeighborEngine(tree)
    return engine.query(x, y, k).neighbors
