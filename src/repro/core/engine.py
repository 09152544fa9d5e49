"""The synchronized-traversal join engine shared by SJ1–SJ5.

All five algorithms of Section 4 are depth-first traversals of the two
R*-trees that differ only in

* how the intersecting entry pairs of a node pair are computed
  (:meth:`JoinAlgorithm._find_pairs` — nested loop, restricted nested
  loop, or plane sweep, each a kernel over the nodes' struct-of-arrays
  :class:`~repro.rtree.columns.NodeColumns`), and
* in which order the qualifying child pairs are read and recursed into
  (:meth:`JoinAlgorithm._order_pairs` and pinning).

The engine also owns the different-height boundary (Section 4.4): when
one side reaches its data pages while the other still has directory
levels, the configured window-query policy (a)/(b)/(c) takes over.

Concurrency contract: a traversal assumes both trees are **static for
the duration of the join** (the paper's setting).  Callers with live
write traffic must hand the engine immutable trees — the MVCC path
does exactly that: served relations absorb writes into a side
buffer and expose frozen :class:`~repro.db.snapshot.Snapshot`
views, whose base trees this engine joins unchanged while
:mod:`repro.core.deltajoin` overlays the unmerged writes on the
result.  ``sort_mode="on_read"`` remains required for concurrent
readers of one shared tree (the sorted views then live in the per-join
context instead of being written back into shared nodes).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from ..rtree.columns import NodeColumns
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .pairs import iter_index_pairs, ref_pairs
from .stats import JoinResult

OutputPair = Tuple[int, int]

#: A find-pairs result: the (possibly restricted/sorted) column views of
#: both nodes plus the qualifying row-index pairs into them.
ColumnsPairs = Tuple[NodeColumns, NodeColumns, object, object]

#: A qualifying pair as (row in the R columns, row in the S columns).
IndexPair = Tuple[int, int]


def common_rect(cols_r: NodeColumns, a: int,
                cols_s: NodeColumns, b: int) -> Rect:
    """Intersection rectangle of a qualifying row pair."""
    rect_a = cols_r.rect(a)
    common = rect_a.intersection(cols_s.rect(b))
    if common is None:
        # Degenerate touch lost to float arithmetic; the pair qualifies,
        # so keep the boundary rectangle.
        return rect_a
    return common


class _CallbackSink:
    """List-shaped adapter that forwards appended pairs to a callback."""

    __slots__ = ("_callback", "_count")

    def __init__(self, callback: Callable[[int, int], None]) -> None:
        self._callback = callback
        self._count = 0

    def append(self, pair: OutputPair) -> None:
        self._count += 1
        self._callback(pair[0], pair[1])

    def extend(self, pairs) -> None:
        for pair in pairs:
            self.append(pair)

    def __len__(self) -> int:
        return self._count


class JoinAlgorithm:
    """Base class implementing the shared traversal."""

    #: Algorithm tag recorded in the statistics ("SJ1" ... "SJ5").
    name = "base"
    #: Whether directory recursion passes the node-MBR intersection down
    #: (the search-space restriction of Section 4.2).
    restricts_search_space = False
    #: Whether page pinning groups the read schedule (Section 4.3).
    uses_pinning = False

    def __init__(self, height_policy: str = "b",
                 predicate: SpatialPredicate =
                 SpatialPredicate.INTERSECTS) -> None:
        if height_policy not in ("a", "b", "c"):
            raise ValueError(f"unknown height policy: {height_policy!r}")
        self.height_policy = height_policy
        #: Join condition on the data rectangles (Section 2.1 allows
        #: operators beyond intersection, e.g. containment).  Directory
        #: pruning always uses intersection, which is sound because
        #: every supported predicate implies MBR intersection.
        self.predicate = predicate

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, ctx: JoinContext) -> JoinResult:
        """Execute the join and return pairs plus statistics."""
        out: List[OutputPair] = []
        self._execute(ctx, out)
        return JoinResult(out, ctx.stats,
                          obs=ctx.obs if ctx.obs.enabled else None)

    def run_streaming(self, ctx: JoinContext,
                      callback: Callable[[int, int], None]):
        """Execute the join, delivering each result pair to *callback*
        as it is produced instead of materializing the list.

        Useful for pipelines (e.g. refinement on the fly) and for
        result sets too large to hold; returns the statistics.
        """
        self._execute(ctx, _CallbackSink(callback))
        return ctx.stats

    def _prepare(self, ctx: JoinContext) -> None:
        """Set up per-run state that depends on the trees (hook).

        Called once before the traversal starts — both by
        :meth:`_execute` and by the parallel executor, whose workers
        enter the traversal at interior node pairs via
        :meth:`_join_nodes` without going through :meth:`_execute`.
        """

    def _execute(self, ctx: JoinContext, out) -> None:
        ctx.stats.algorithm = self.name
        tracer = ctx.obs.tracer
        with tracer.span("join", algorithm=self.name):
            self._prepare(ctx)
            with tracer.span("tree_open"):
                root_r = ctx.read_root(R_SIDE)
                root_s = ctx.read_root(S_SIDE)
            self._join_roots(ctx, root_r, root_s, out)
            ctx.stats.pairs_output = len(out)

    def _join_roots(self, ctx: JoinContext, root_r: Node, root_s: Node,
                    out) -> None:
        """Start the descent at a pair of top nodes: skipped when either
        is empty or the restriction rectangle is.  The roots are the two
        trees' — or, for the MVCC overlay, a delta's insert buffer
        standing in as a data page (:mod:`repro.core.deltajoin`)."""
        if len(root_r) and len(root_s):
            rect: Optional[Rect] = None
            if self.restricts_search_space:
                rect = root_r.mbr().intersection(root_s.mbr())
            if not self.restricts_search_space or rect is not None:
                with ctx.obs.tracer.span("traversal"):
                    self._join_nodes(ctx, root_r, 0, root_s, 0, rect, out)

    # ------------------------------------------------------------------
    # Recursion
    # ------------------------------------------------------------------

    def _join_nodes(self, ctx: JoinContext, nr: Node, dr: int,
                    ns: Node, ds: int, rect: Optional[Rect],
                    out: List[OutputPair]) -> None:
        """Join the subtrees rooted at node pair (nr, ns)."""
        ctx.stats.node_pairs += 1
        if nr.is_leaf != ns.is_leaf:
            self._window_mode(ctx, nr, dr, ns, ds, rect, out)
            return
        cols_r, cols_s, idx_r, idx_s = self._observed_find_pairs(
            ctx, nr, ns, rect, dr, leaf=nr.is_leaf)
        if nr.is_leaf:
            if self.predicate is SpatialPredicate.INTERSECTS:
                out.extend(ref_pairs(cols_r, cols_s, idx_r, idx_s))
            else:
                predicate = self.predicate
                counter = ctx.counter
                refs_r = cols_r.refs
                refs_s = cols_s.refs
                for a, b in iter_index_pairs(idx_r, idx_s):
                    if predicate.evaluate_counted(cols_r.rect(a),
                                                  cols_s.rect(b), counter):
                        out.append((int(refs_r[a]), int(refs_s[b])))
            return
        pairs = iter_index_pairs(idx_r, idx_s)
        if not pairs:
            return
        pairs = self._order_pairs(ctx, cols_r, cols_s, pairs)
        process = self._make_pair_processor(ctx, cols_r, cols_s, dr, ds,
                                            out)
        if self.uses_pinning:
            refs_r = cols_r.refs
            refs_s = cols_s.refs
            refs = [(int(refs_r[a]), int(refs_s[b])) for a, b in pairs]
            self._pinned_schedule(ctx, pairs, refs, process)
        else:
            for pair in pairs:
                process(pair)

    def _make_pair_processor(
            self, ctx: JoinContext, cols_r: NodeColumns,
            cols_s: NodeColumns, dr: int, ds: int,
            out: List[OutputPair]) -> Callable[[IndexPair], None]:
        """Build the per-pair step: read both children, recurse."""
        refs_r = cols_r.refs
        refs_s = cols_s.refs

        def process(pair: IndexPair) -> None:
            a, b = pair
            child_rect: Optional[Rect] = None
            if self.restricts_search_space:
                child_rect = common_rect(cols_r, a, cols_s, b)
            child_r = ctx.read(R_SIDE, int(refs_r[a]), dr + 1)
            child_s = ctx.read(S_SIDE, int(refs_s[b]), ds + 1)
            self._join_nodes(ctx, child_r, dr + 1, child_s, ds + 1,
                             child_rect, out)

        return process

    # ------------------------------------------------------------------
    # Pinning (Section 4.3)
    # ------------------------------------------------------------------

    def _pinned_schedule(self, ctx: JoinContext, pairs: List[IndexPair],
                         refs: List[Tuple[int, int]],
                         process: Callable[[IndexPair], None]) -> None:
        """Process *pairs* in order, but after each pair pin the child
        page with the maximal degree (number of still-unprocessed pairs
        it takes part in) and finish all its pairs first.  *refs* is the
        parallel list of (child ref of R, child ref of S) pairs."""
        n = len(pairs)
        done = [False] * n
        by_r: Dict[int, List[int]] = defaultdict(list)
        by_s: Dict[int, List[int]] = defaultdict(list)
        for idx, (ref_r, ref_s) in enumerate(refs):
            by_r[ref_r].append(idx)
            by_s[ref_s].append(idx)

        for i in range(n):
            if done[i]:
                continue
            ref_r, ref_s = refs[i]
            process(pairs[i])
            done[i] = True
            # Degrees are derived from the already-computed pair list, so
            # no additional comparisons are charged (the intersections
            # are known from the plane sweep).
            deg_r = sum(1 for k in by_r[ref_r] if not done[k])
            deg_s = sum(1 for k in by_s[ref_s] if not done[k])
            if deg_r == 0 and deg_s == 0:
                continue
            if deg_r >= deg_s:
                side, ref, group = R_SIDE, ref_r, by_r[ref_r]
            else:
                side, ref, group = S_SIDE, ref_s, by_s[ref_s]
            ctx.pin(side, ref)
            for k in group:
                if not done[k]:
                    process(pairs[k])
                    done[k] = True
            ctx.unpin(side, ref)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        """Intersecting entry pairs of a node pair (algorithm specific):
        the (restricted, sorted) column views of both nodes and the
        qualifying row-index pairs into them."""
        raise NotImplementedError

    def _observed_find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                             rect: Optional[Rect], depth: int,
                             leaf: bool) -> ColumnsPairs:
        """:meth:`_find_pairs` plus observability (the disabled path is
        one attribute check).  Records the pair-finding time as the
        ``find_pairs`` aggregate, the per-level node-pair count, and
        the qualifying-pair distribution: ``join.fanout`` for directory
        pairs (child pairs recursed into), ``sweep.run_length`` for
        data-node pairs (output pairs one sweep emits)."""
        obs = ctx.obs
        if not obs.enabled:
            return self._find_pairs(ctx, nr, ns, rect)
        start = perf_counter()
        result = self._find_pairs(ctx, nr, ns, rect)
        obs.tracer.add_duration("find_pairs", perf_counter() - start)
        metrics = obs.metrics
        metrics.inc("join.node_pairs.level.%d" % depth)
        if leaf:
            metrics.observe("sweep.run_length", len(result[2]))
        else:
            metrics.observe("join.fanout", len(result[2]))
        return result

    def _order_pairs(self, ctx: JoinContext, cols_r: NodeColumns,
                     cols_s: NodeColumns,
                     pairs: List[IndexPair]) -> List[IndexPair]:
        """Reorder the qualifying pairs into the read schedule.

        Default: keep the order `_find_pairs` produced (discovery order
        for SJ1/SJ2, sweep order for SJ3/SJ4).  SJ5 overrides this with
        the local z-order.
        """
        return pairs

    # ------------------------------------------------------------------
    # Different tree heights (Section 4.4)
    # ------------------------------------------------------------------

    def _window_mode(self, ctx: JoinContext, nr: Node, dr: int,
                     ns: Node, ds: int, rect: Optional[Rect],
                     out: List[OutputPair]) -> None:
        """One side is a data node, the other a directory node: perform
        window queries with the data rectangles against the directory
        subtrees, following the configured policy."""
        from .heights import run_window_mode
        run_window_mode(self, ctx, nr, dr, ns, ds, rect, out)
