"""The synchronized-traversal join engine shared by SJ1–SJ5.

All five algorithms of Section 4 are depth-first traversals of the two
R*-trees that differ only in

* how the intersecting entry pairs of a node pair are computed
  (:meth:`JoinAlgorithm._segment_pairs` — nested loop, restricted
  nested loop, or plane sweep, each a kernel over the nodes'
  struct-of-arrays :class:`~repro.rtree.columns.NodeColumns`), and
* in which order the qualifying child pairs are read and recursed into
  (:meth:`JoinAlgorithm._order_pairs` and pinning).

A join below one node pair runs in two phases (the "level-synchronous
descent", see ``docs/algorithms.md``):

1. **Compute.**  Both trees are walked one level at a time over the
   uncounted structural access ``tree.node(page_id)``.  The frontier of
   qualifying node pairs of a level goes through the algorithm's kernel
   in *one* segmented call (restriction, then plane sweep), which
   charges every comparison the per-pair kernels would have.
2. **Replay.**  The paper's depth-first read schedule — sweep or
   z-order, pinning — runs over the precomputed pair lists and issues
   exactly the counted ``ctx.read`` calls of a per-pair traversal, in
   the same order, so buffer hits, disk accesses, evictions, injected
   faults, ``on_read`` sort charges and the pair output order are those
   of the per-pair engine.

The engine also owns the different-height boundary (Section 4.4): when
one side reaches its data pages while the other still has directory
levels, the configured window-query policy (a)/(b)/(c) takes over; the
compute phase stops at such pairs and the replay hands them over.

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
from itertools import accumulate
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from ..rtree.columns import NodeColumns, np
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .pairs import (concat_columns, kept_offsets, nested_loop_pairs_columns,
                    restrict_segments)
from .stats import JoinResult

OutputPair = Tuple[int, int]

#: A find-pairs result: the (possibly restricted/sorted) column views of
#: both nodes plus the qualifying row-index pairs into them.
ColumnsPairs = Tuple[NodeColumns, NodeColumns, object, object]

#: A level's pair-finding result: the (restricted, sorted) row tables
#: of all its node pairs stacked, the qualifying row-index pairs into
#: them grouped by node pair, and the number of pairs per node pair.
LevelPairs = Tuple[NodeColumns, NodeColumns, Sequence[int], Sequence[int],
                   Sequence[int]]

#: Restriction rectangles of a level's node pairs: four parallel
#: sequences (xl, yl, xu, yu), one value per pair; None when the
#: algorithm does not restrict.
Rects = Optional[Tuple[Sequence[float], Sequence[float], Sequence[float],
                       Sequence[float]]]

#: Kinds of one descent level.
_DIRECTORY, _DATA, _WINDOW = "directory", "data", "window"

#: Node rows (both sides, before restriction) one kernel call takes at
#: most: a larger level goes through the kernel in chunks of whole node
#: pairs, which bounds the kernel's temporary arrays without changing
#: any result or charge.
LEVEL_CHUNK_ROWS = 1 << 16


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


def common_rects(table_r: NodeColumns, rows_r, table_s: NodeColumns,
                 rows_s) -> Rects:
    """:func:`common_rect` of every row pair, as four sequences."""
    if table_r.is_numpy and table_s.is_numpy:
        axl, ayl = table_r.xlo[rows_r], table_r.ylo[rows_r]
        axu, ayu = table_r.xhi[rows_r], table_r.yhi[rows_r]
        bxl, byl = table_s.xlo[rows_s], table_s.ylo[rows_s]
        bxu, byu = table_s.xhi[rows_s], table_s.yhi[rows_s]
        # Rect.intersection's choices, operand for operand.
        xl = np.where(axl > bxl, axl, bxl)
        yl = np.where(ayl > byl, ayl, byl)
        xu = np.where(axu < bxu, axu, bxu)
        yu = np.where(ayu < byu, ayu, byu)
        lost = (xl > xu) | (yl > yu)
        return (np.where(lost, axl, xl), np.where(lost, ayl, yl),
                np.where(lost, axu, xu), np.where(lost, ayu, yu))
    rects = [common_rect(table_r, a, table_s, b)
             for a, b in zip(rows_r, rows_s)]
    return ([r.xl for r in rects], [r.yl for r in rects],
            [r.xu for r in rects], [r.yu for r in rects])


def _rects_of(rect: Optional[Rect]) -> Rects:
    """A lone node pair's restriction rectangle as :data:`Rects`."""
    if rect is None:
        return None
    return (rect.xl,), (rect.yl,), (rect.xu,), (rect.yu,)


def _rect_at(rects: Rects, p: int) -> Optional[Rect]:
    if rects is None:
        return None
    return Rect(*(float(values[p]) for values in rects))


def _as_list(values) -> List:
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _chunks(level: "_Level") -> List[Tuple[int, int]]:
    """Cut a level's node pairs into runs of whole pairs holding at most
    :data:`LEVEL_CHUNK_ROWS` rows (at least one pair per run)."""
    chunks = []
    lo = 0
    rows = 0
    for p, (nr, ns) in enumerate(zip(level.nodes_r, level.nodes_s)):
        size = len(nr) + len(ns)
        if rows and rows + size > LEVEL_CHUNK_ROWS:
            chunks.append((lo, p))
            lo, rows = p, 0
        rows += size
    chunks.append((lo, len(level.nodes_r)))
    return chunks


def _concat_rects(parts: List[Rects]) -> Rects:
    """Join per-chunk rectangle sequences (None when there are none)."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    if hasattr(parts[0][0], "tolist"):
        return tuple(np.concatenate(values) for values in zip(*parts))
    return tuple([v for values in column for v in values]
                 for column in zip(*parts))


def _refs_at(table: NodeColumns, rows) -> List[int]:
    """The refs of *rows* of *table*, as Python ints."""
    if table.is_numpy:
        return table.refs[np.asarray(rows, dtype=np.intp)].tolist()
    return [table.refs[i] for i in rows]


class _Level:
    """One level of the compute phase: its node pairs and, per pair,
    where its qualifying pairs start — in the next level's pairs
    (directory level) or in the output pairs (data level)."""

    __slots__ = ("kind", "nodes_r", "nodes_s", "rects", "starts",
                 "found", "output")

    def __init__(self, nodes_r: List[Node], nodes_s: List[Node],
                 rects: Rects) -> None:
        self.nodes_r = nodes_r
        self.nodes_s = nodes_s
        self.rects = rects
        # R-trees are balanced, so all pairs of one level are alike.
        if nodes_r[0].is_leaf != nodes_s[0].is_leaf:
            self.kind = _WINDOW
        else:
            self.kind = _DATA if nodes_r[0].is_leaf else _DIRECTORY
        self.starts: List[int] = []
        #: Pairs the kernel found per node pair (before a data-level
        #: predicate filter): the observed fanout / sweep run length.
        self.found: List[int] = []
        self.output: List[OutputPair] = []


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
    #: Whether pair finding reads the nodes in plane-sweep order (the
    #: sorted views of Section 4.2).
    sweeps = False

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
    # Recursion: compute level by level, then replay the read schedule
    # ------------------------------------------------------------------

    def _join_nodes(self, ctx: JoinContext, nr: Node, dr: int,
                    ns: Node, ds: int, rect: Optional[Rect],
                    out: List[OutputPair]) -> None:
        """Join the subtrees rooted at node pair (nr, ns)."""
        levels = self._descend(ctx, nr, ns, rect)
        self._replay(ctx, levels, 0, 0, nr, dr, ns, ds, out)

    def _descend(self, ctx: JoinContext, nr: Node, ns: Node,
                 rect: Optional[Rect]) -> List[_Level]:
        """Compute phase: every level's qualifying node pairs, one
        :meth:`_level_pairs` call per level (per chunk of a level when
        it exceeds :data:`LEVEL_CHUNK_ROWS`).  Nodes come from the
        uncounted structural access; the walk stops at data pairs and
        at pairs of different height (left to window mode)."""
        tree_r, tree_s = ctx.trees
        obs = ctx.obs
        level = _Level([nr], [ns], _rects_of(rect))
        levels = [level]
        while level.kind != _WINDOW:
            started = perf_counter() if obs.enabled else 0.0
            refs_r: List[int] = []
            refs_s: List[int] = []
            rects: List[Rects] = []
            counts: List[int] = []
            for lo, hi in _chunks(level):
                ctx.check_deadline()
                table_r, table_s, rows_r, rows_s, found = self._level_pairs(
                    ctx, [self._columns(ctx, R_SIDE, node, counted=False)
                          for node in level.nodes_r[lo:hi]],
                    [self._columns(ctx, S_SIDE, node, counted=False)
                     for node in level.nodes_s[lo:hi]],
                    None if level.rects is None else
                    tuple(values[lo:hi] for values in level.rects))
                found = _as_list(found)
                level.found.extend(found)
                if level.kind == _DATA:
                    counts.extend(self._data_output(
                        ctx, found, table_r, rows_r, table_s, rows_s,
                        level.output))
                    continue
                refs_r.extend(_refs_at(table_r, rows_r))
                refs_s.extend(_refs_at(table_s, rows_s))
                if self.restricts_search_space:
                    rects.append(common_rects(table_r, rows_r,
                                              table_s, rows_s))
            if obs.enabled:
                obs.tracer.add_duration("find_pairs",
                                        perf_counter() - started,
                                        count=len(level.nodes_r))
            if level.kind == _DATA:
                level.starts = list(accumulate(counts, initial=0))
                break
            level.starts = list(accumulate(level.found, initial=0))
            if not refs_r:
                break
            level = _Level([tree_r.node(ref) for ref in refs_r],
                           [tree_s.node(ref) for ref in refs_s],
                           _concat_rects(rects))
            levels.append(level)
        return levels

    def _data_output(self, ctx: JoinContext, found: List[int],
                     table_r: NodeColumns, rows_r, table_s: NodeColumns,
                     rows_s, output: List[OutputPair]) -> List[int]:
        """Append a data level's qualifying rows to *output* as ref
        pairs, applying the join predicate when it is not intersection;
        returns the number of output pairs per node pair."""
        if self.predicate is not SpatialPredicate.INTERSECTS:
            predicate = self.predicate
            counter = ctx.counter
            pairs = list(zip(_as_list(rows_r), _as_list(rows_s)))
            kept = []
            counts = []
            pos = 0
            for count in found:
                before = len(kept)
                for a, b in pairs[pos:pos + count]:
                    if predicate.evaluate_counted(table_r.rect(a),
                                                  table_s.rect(b), counter):
                        kept.append((a, b))
                counts.append(len(kept) - before)
                pos += count
            rows_r = [a for a, _ in kept]
            rows_s = [b for _, b in kept]
            found = counts
        output.extend(zip(_refs_at(table_r, rows_r),
                          _refs_at(table_s, rows_s)))
        return found

    def _replay(self, ctx: JoinContext, levels: List[_Level], k: int,
                p: int, nr: Node, dr: int, ns: Node, ds: int,
                out: List[OutputPair]) -> None:
        """Replay phase for pair *p* of level *k*: the depth-first read
        schedule of the per-pair engine, over the computed pairs."""
        ctx.stats.node_pairs += 1
        level = levels[k]
        if level.kind == _WINDOW:
            self._window_mode(ctx, nr, dr, ns, ds, _rect_at(level.rects, p),
                              out)
            return
        if self.sweeps:
            # The on_read sort charge falls where the per-pair engine
            # sorted: when the pair is visited, after both reads.
            ctx.sorted_columns(R_SIDE, nr)
            ctx.sorted_columns(S_SIDE, ns)
        obs = ctx.obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.inc("join.node_pairs.level.%d" % dr)
            metrics.observe("sweep.run_length" if level.kind == _DATA
                            else "join.fanout", level.found[p])
        lo, hi = level.starts[p], level.starts[p + 1]
        if level.kind == _DATA:
            out.extend(level.output[lo:hi])
            return
        if lo == hi:
            return
        child = levels[k + 1]
        pairs = self._order_pairs(ctx, child.rects, list(range(lo, hi)))
        nodes_r, nodes_s = child.nodes_r, child.nodes_s

        def process(c: int) -> None:
            child_r = ctx.read(R_SIDE, nodes_r[c].page_id, dr + 1)
            child_s = ctx.read(S_SIDE, nodes_s[c].page_id, ds + 1)
            self._replay(ctx, levels, k + 1, c, child_r, dr + 1,
                         child_s, ds + 1, out)

        if self.uses_pinning:
            refs = [(nodes_r[c].page_id, nodes_s[c].page_id) for c in pairs]
            self._pinned_schedule(ctx, pairs, refs, process)
        else:
            for c in pairs:
                process(c)

    # ------------------------------------------------------------------
    # Pinning (Section 4.3)
    # ------------------------------------------------------------------

    def _pinned_schedule(self, ctx: JoinContext, pairs: List[int],
                         refs: List[Tuple[int, int]],
                         process: Callable[[int], None]) -> None:
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

    def _columns(self, ctx: JoinContext, side: int, node: Node,
                 counted: bool = True) -> NodeColumns:
        """The columns pair finding reads: sweep-sorted for sweeping
        algorithms — charged now, or (``counted=False``, the compute
        phase) when the replay visits the pair."""
        if not self.sweeps:
            return node.columns
        if counted:
            return ctx.sorted_columns(side, node)
        return ctx.sorted_view(side, node)

    def _level_pairs(self, ctx: JoinContext, cols_r: List[NodeColumns],
                     cols_s: List[NodeColumns], rects: Rects) -> LevelPairs:
        """Qualifying entry pairs of a whole frontier of node pairs
        (node pair *p* is ``cols_r[p]`` x ``cols_s[p]``, restricted to
        rectangle *p* when *rects* is given): one segmented restriction
        per side, then :meth:`_segment_pairs`.  Charges what one
        restriction and one kernel call per node pair would."""
        table_r, offsets_r = concat_columns(cols_r)
        table_s, offsets_s = concat_columns(cols_s)
        if rects is not None:
            keep = restrict_segments(table_r, offsets_r, rects, ctx.counter)
            table_r, offsets_r = (table_r.take(keep),
                                  kept_offsets(keep, offsets_r))
            keep = restrict_segments(table_s, offsets_s, rects, ctx.counter)
            table_s, offsets_s = (table_s.take(keep),
                                  kept_offsets(keep, offsets_s))
        rows_r, rows_s, counts = self._segment_pairs(
            ctx, table_r, offsets_r, table_s, offsets_s)
        return table_r, table_s, rows_r, rows_s, counts

    def _segment_pairs(self, ctx: JoinContext, table_r: NodeColumns,
                       offsets_r, table_s: NodeColumns, offsets_s):
        """Qualifying row pairs of every segment (node pair) of two
        stacked tables: ``(rows_r, rows_s, counts)``, grouped by segment
        in segment order.  Default: :meth:`_pair_kernel` per segment;
        the sweeping algorithms override it with one segmented sweep."""
        segments = len(offsets_r) - 1
        if segments == 1:
            rows_r, rows_s = self._pair_kernel(ctx, table_r, table_s)
            return rows_r, rows_s, [len(rows_r)]
        rows_r: List[int] = []
        rows_s: List[int] = []
        counts: List[int] = []
        for p in range(segments):
            lo_r, hi_r = int(offsets_r[p]), int(offsets_r[p + 1])
            lo_s, hi_s = int(offsets_s[p]), int(offsets_s[p + 1])
            idx_r, idx_s = self._pair_kernel(
                ctx, table_r.slice(lo_r, hi_r), table_s.slice(lo_s, hi_s))
            rows_r.extend([lo_r + a for a in _as_list(idx_r)])
            rows_s.extend([lo_s + b for b in _as_list(idx_s)])
            counts.append(len(idx_r))
        return rows_r, rows_s, counts

    def _pair_kernel(self, ctx: JoinContext, cols_r: NodeColumns,
                     cols_s: NodeColumns):
        """Qualifying row pairs of one (restricted) node pair.  Default:
        the nested loop of SJ1/SJ2, which stays per node pair even
        within a level — broadcast over a whole frontier, the
        unrestricted loop is millions of cells."""
        return nested_loop_pairs_columns(cols_r, cols_s, ctx.counter)

    def _find_pairs(self, ctx: JoinContext, nr: Node, ns: Node,
                    rect: Optional[Rect]) -> ColumnsPairs:
        """Intersecting entry pairs of one node pair — a frontier of
        one (window mode and the parallel coordinator, which read the
        pair before asking): the (restricted, sorted) column views of
        both nodes and the qualifying row-index pairs into them."""
        table_r, table_s, rows_r, rows_s, _ = self._level_pairs(
            ctx, [self._columns(ctx, R_SIDE, nr)],
            [self._columns(ctx, S_SIDE, ns)], _rects_of(rect))
        return table_r, table_s, rows_r, rows_s

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

    def _order_pairs(self, ctx: JoinContext, rects: Rects,
                     pairs: List[int]) -> List[int]:
        """Reorder the qualifying child pairs (indices into the next
        level, whose restriction rectangles are *rects*) into the read
        schedule.

        Default: keep the order the kernel produced (discovery order
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
