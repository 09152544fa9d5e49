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
from ..rtree.columns import NodeColumns, np
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
        heappush, heappop, hypot = heapq.heappush, heapq.heappop, math.hypot

        counter = itertools.count()   # node tiebreaker
        # Heap items: (distance, is_object, tiebreak, payload, depth).
        # At equal distance, nodes (False) expand before objects emit
        # and objects tie-break on their oid — so the answer set and
        # its order are deterministic regardless of tree layout or
        # which side (base tree / delta) a candidate came from.
        heap: List[Tuple[float, bool, int, object, int]] = []
        # The k smallest object distances pushed so far (negated: a
        # max-heap) and the largest of them once there are k.  An item
        # strictly farther than that bound sorts after k objects
        # already pushed, so the loop ends before it could be popped:
        # it is never pushed, and neither the answer nor `expansions`
        # nor the pages read can tell.
        kth: List[float] = []
        bound = math.inf

        def admit(d: float) -> float:
            if len(kth) < k:
                heappush(kth, -d)
            else:
                heapq.heapreplace(kth, -d)
            return -kth[0] if len(kth) == k else math.inf

        if len(self.tree.root):
            heap.append((0.0, False, next(counter), self.tree.root_id, 0))
        if delta is not None:
            for oid, rect, _ in delta.iter_added():
                d = mindist(x, y, rect)
                if d <= bound:
                    heappush(heap, (d, True, oid, oid, 0))
                    bound = admit(d)
        while heap and len(result.neighbors) < k:
            dist, is_object, _, payload, depth = heappop(heap)
            result.expansions += 1
            if is_object:
                result.neighbors.append((payload, dist))
                continue
            node = self.manager.read(self._side, payload, depth)
            refs, dx, dy, rows = _offsets(node.columns, x, y, bound)
            depth += 1
            if not node.is_leaf:
                for i in rows:
                    d = hypot(dx[i], dy[i])
                    if d <= bound:
                        heappush(heap, (d, False, next(counter), refs[i],
                                        depth))
                continue
            for i in rows:
                d = hypot(dx[i], dy[i])
                if d <= bound and refs[i] not in hidden:
                    heappush(heap, (d, True, refs[i], refs[i], depth))
                    bound = admit(d)

        result.io = self.manager.stats.since(io_before)
        return result


def _offsets(cols: NodeColumns, x: float, y: float, bound: float):
    """Per-row axis offsets of (x, y) from a node's rectangles, as
    :func:`mindist` computes them (so ``hypot(dx[i], dy[i])`` is its
    value bit for bit): ``(refs, dx, dy, rows)``.

    *rows* lists the row indices, in order, that may lie within
    *bound*.  The numpy backend drops rows with an offset beyond it —
    exact, since ``hypot`` never returns less than either argument —
    and the stdlib backend keeps every row.
    """
    if cols.is_numpy:
        xlo, ylo, xhi, yhi = cols.xlo, cols.ylo, cols.xhi, cols.yhi
        dx = np.where(x < xlo, xlo - x, np.where(x > xhi, x - xhi, 0.0))
        dy = np.where(y < ylo, ylo - y, np.where(y > yhi, y - yhi, 0.0))
        if bound == math.inf:
            rows = range(len(dx))
        else:
            rows = np.flatnonzero((dx <= bound) & (dy <= bound)).tolist()
        return cols.refs.tolist(), dx.tolist(), dy.tolist(), rows
    dx = [xl - x if x < xl else (x - xu if x > xu else 0.0)
          for xl, xu in zip(cols.xlo, cols.xhi)]
    dy = [yl - y if y < yl else (y - yu if y > yu else 0.0)
          for yl, yu in zip(cols.ylo, cols.yhi)]
    return cols.refs, dx, dy, range(len(dx))


def nearest_neighbors(tree: RTreeBase, x: float, y: float,
                      k: int = 1) -> List[Tuple[int, float]]:
    """Convenience wrapper: the k nearest (ref, distance) pairs."""
    engine = NearestNeighborEngine(tree)
    return engine.query(x, y, k).neighbors
