"""Within-distance join (extension).

"Find all pairs of objects closer than d" is the other classic spatial
join condition.  The R-tree techniques of the paper carry over with one
change: the pruning predicate becomes *MINDIST(mbr_r, mbr_s) <= d*,
which is sound at every directory level because MINDIST between MBRs
lower-bounds the distance between any contained rectangles.

The traversal mirrors SpatialJoin4: qualifying pairs of a node pair are
found with a plane sweep over x-intervals widened by d, processed in
sweep order with degree-based pinning.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from ..geometry.rect import Rect, geometry_mbr
from ..rtree.base import RTreeBase
from ..rtree.columns import NodeColumns
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .stats import JoinResult

OutputPair = Tuple[int, int]
IndexPair = Tuple[int, int]


def rect_mindist(a: Rect, b: Rect) -> float:
    """Smallest Euclidean distance between two rectangles
    (zero when they intersect)."""
    dx = 0.0
    if a.xu < b.xl:
        dx = b.xl - a.xu
    elif b.xu < a.xl:
        dx = a.xl - b.xu
    dy = 0.0
    if a.yu < b.yl:
        dy = b.yl - a.yu
    elif b.yu < a.yl:
        dy = a.yl - b.yu
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


def distance_join(tree_r: RTreeBase, tree_s: RTreeBase,
                  distance: float,
                  buffer_kb: float = 128.0) -> JoinResult:
    """All id pairs whose MBRs lie within *distance* of each other.

    ``distance=0`` degenerates to the MBR-spatial-join (touching MBRs
    qualify, like the intersection test's closed semantics).
    """
    if distance < 0.0:
        raise ValueError("distance cannot be negative")
    ctx = JoinContext(tree_r, tree_s, buffer_kb=buffer_kb)
    ctx.stats.algorithm = f"distance<={distance:g}"
    out: List[OutputPair] = []
    root_r = ctx.read_root(R_SIDE)
    root_s = ctx.read_root(S_SIDE)
    if len(root_r) and len(root_s):
        _join_nodes(ctx, distance, root_r, 0, root_s, 0, out)
    ctx.stats.pairs_output = len(out)
    return JoinResult(out, ctx.stats)


def distance_join_snapshots(snap_l, snap_r, distance: float,
                            buffer_kb: float = 128.0) -> JoinResult:
    """MVCC variant of :func:`distance_join` over two relation
    snapshots (see :mod:`repro.db.snapshot`).

    The base trees join as usual; pairs hidden by either delta are
    dropped, and the cross terms (added × base, added × added) are
    confirmed with the same 2-comparison ``rect_mindist`` charge the
    batched distance queries use.  Added entries probe the other base
    tree through a window widened by *distance* — sound because
    ``MINDIST(a, b) <= d`` implies the MBRs intersect after widening
    either one by ``d``.
    """
    from ..geometry.counting import ComparisonCounter
    result = distance_join(snap_l.tree, snap_r.tree, distance,
                           buffer_kb=buffer_kb)
    delta_l, delta_r = snap_l.delta, snap_r.delta
    if not delta_l and not delta_r:
        return result
    hidden_l, hidden_r = delta_l.hidden, delta_r.hidden
    pairs = [pair for pair in result.pairs
             if pair[0] not in hidden_l and pair[1] not in hidden_r]
    dropped = len(result.pairs) - len(pairs)
    counter = ComparisonCounter()
    extra: List[OutputPair] = []

    def _probe(delta, snap_other, hidden_other, flip: bool) -> None:
        base_objects = snap_other.base_objects
        tree = snap_other.tree
        for oid, rect, _ in delta.iter_added():
            widened = Rect(rect.xl - distance, rect.yl - distance,
                           rect.xu + distance, rect.yu + distance)
            for ref in tree.window_query(widened):
                if ref in hidden_other:
                    continue
                other_rect = geometry_mbr(base_objects[ref])
                counter.join += 2
                if rect_mindist(rect, other_rect) <= distance:
                    extra.append((oid, ref) if not flip else (ref, oid))

    if delta_l.added:
        _probe(delta_l, snap_r, hidden_r, flip=False)
    if delta_r.added:
        _probe(delta_r, snap_l, hidden_l, flip=True)
    if delta_l.added and delta_r.added:
        for oid_l, rect_l, _ in delta_l.iter_added():
            for oid_r, rect_r, _ in delta_r.iter_added():
                counter.join += 2
                if rect_mindist(rect_l, rect_r) <= distance:
                    extra.append((oid_l, oid_r))

    result.pairs = pairs + extra
    result.stats.comparisons += counter
    result.stats.pairs_output = len(result.pairs)
    result.stats.delta_pairs += len(extra)
    result.stats.hidden_filtered += dropped
    return result


def _join_nodes(ctx: JoinContext, distance: float, nr: Node, dr: int,
                ns: Node, ds: int, out: List[OutputPair]) -> None:
    ctx.stats.node_pairs += 1
    cols_r, cols_s, pairs = _near_pairs(ctx, distance, nr, ns)
    if not pairs:
        return
    if nr.is_leaf and ns.is_leaf:
        out.extend((cols_r.ref(i), cols_s.ref(j)) for i, j in pairs)
        return
    if nr.is_leaf or ns.is_leaf:
        _window_mode(ctx, distance, nr, dr, ns, ds,
                     cols_r, cols_s, pairs, out)
        return
    refs = [(cols_r.ref(i), cols_s.ref(j)) for i, j in pairs]
    _process_with_pinning(ctx, refs, lambda pair: _descend(
        ctx, distance, pair, dr, ds, out))


def _descend(ctx: JoinContext, distance: float, pair: OutputPair,
             dr: int, ds: int, out: List[OutputPair]) -> None:
    ref_r, ref_s = pair
    child_r = ctx.read(R_SIDE, ref_r, dr + 1)
    child_s = ctx.read(S_SIDE, ref_s, ds + 1)
    _join_nodes(ctx, distance, child_r, dr + 1, child_s, ds + 1, out)


def _near_pairs(ctx: JoinContext, distance: float, nr: Node,
                ns: Node) -> Tuple[NodeColumns, NodeColumns,
                                   List[IndexPair]]:
    """Row-index pairs with MINDIST <= distance, by a widened plane
    sweep over the sorted columns.

    Comparisons: each x-window check costs 1; a surviving candidate
    pays 2 more for the exact MINDIST confirmation (the same flat
    accounting style as the intersection sweep).
    """
    cols_r = ctx.sorted_columns(R_SIDE, nr)
    cols_s = ctx.sorted_columns(S_SIDE, ns)
    rxl = list(cols_r.xlo)
    rxu = list(cols_r.xhi)
    sxl = list(cols_s.xlo)
    sxu = list(cols_s.xhi)
    counter = ctx.counter
    pairs: List[IndexPair] = []
    comparisons = 0
    i = 0
    j = 0
    n = len(cols_r)
    m = len(cols_s)
    while i < n and j < m:
        comparisons += 1
        if rxl[i] <= sxl[j]:
            t = cols_r.rect(i)
            limit = rxu[i] + distance
            k = j
            while k < m:
                comparisons += 1
                if sxl[k] > limit:
                    break
                comparisons += 2
                if rect_mindist(t, cols_s.rect(k)) <= distance:
                    pairs.append((i, k))
                k += 1
            i += 1
        else:
            t = cols_s.rect(j)
            limit = sxu[j] + distance
            k = i
            while k < n:
                comparisons += 1
                if rxl[k] > limit:
                    break
                comparisons += 2
                if rect_mindist(cols_r.rect(k), t) <= distance:
                    pairs.append((k, j))
                k += 1
            j += 1
    counter.join += comparisons
    return cols_r, cols_s, pairs


def _process_with_pinning(ctx: JoinContext, refs: List[OutputPair],
                          process: Callable) -> None:
    """Degree-based pinning, identical to SJ4's schedule."""
    from collections import defaultdict
    n = len(refs)
    done = [False] * n
    by_r = defaultdict(list)
    by_s = defaultdict(list)
    for idx, (ref_r, ref_s) in enumerate(refs):
        by_r[ref_r].append(idx)
        by_s[ref_s].append(idx)
    for i in range(n):
        if done[i]:
            continue
        ref_r, ref_s = refs[i]
        process(refs[i])
        done[i] = True
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
                process(refs[k])
                done[k] = True
        ctx.unpin(side, ref)


def _window_mode(ctx: JoinContext, distance: float, nr: Node, dr: int,
                 ns: Node, ds: int, cols_r: NodeColumns,
                 cols_s: NodeColumns, pairs: List[IndexPair],
                 out: List[OutputPair]) -> None:
    """Different heights: distance-window queries into the deep side,
    batched per subtree (policy (b))."""
    if nr.is_leaf:
        deep_side, deep_depth = S_SIDE, ds
        oriented = [(cols_s.ref(j), cols_r.rect(i), cols_r.ref(i))
                    for i, j in pairs]
        emit = lambda deep_ref, flat_ref: out.append((flat_ref, deep_ref))
    else:
        deep_side, deep_depth = R_SIDE, dr
        oriented = [(cols_r.ref(i), cols_s.rect(j), cols_s.ref(j))
                    for i, j in pairs]
        emit = lambda deep_ref, flat_ref: out.append((deep_ref, flat_ref))

    order: List[int] = []
    batches: dict[int, List[Tuple[Rect, int]]] = {}
    for deep_ref, data_rect, data_ref in oriented:
        if deep_ref not in batches:
            batches[deep_ref] = []
            order.append(deep_ref)
        batches[deep_ref].append((data_rect, data_ref))
    for ref in order:
        _batched_distance_query(ctx, distance, deep_side, ref,
                                deep_depth + 1, batches[ref], emit)


def _batched_distance_query(ctx: JoinContext, distance: float,
                            side: int, page_id: int, depth: int,
                            queries: List[Tuple[Rect, int]],
                            emit: Callable[[int, int], None]) -> None:
    node = ctx.read(side, page_id, depth)
    counter = ctx.counter
    if node.is_leaf:
        for rect, ref in node.columns.iter_rect_refs():
            for query_rect, query_ref in queries:
                counter.join += 2
                if rect_mindist(rect, query_rect) <= distance:
                    emit(ref, query_ref)
        return
    for rect, ref in node.columns.iter_rect_refs():
        sub = []
        for query in queries:
            counter.join += 2
            if rect_mindist(rect, query[0]) <= distance:
                sub.append(query)
        if sub:
            _batched_distance_query(ctx, distance, side, ref,
                                    depth + 1, sub, emit)
