"""Joining trees of different height (Section 4.4).

When the synchronized descent reaches the data pages of the shallower
tree while the other side still has directory levels, the join becomes a
batch of window queries: the data rectangles of the shallow side are the
query windows, the directory subtrees of the deep side are queried.

Three policies are implemented:

* **(a)** — one window query per qualifying (directory entry, data
  entry) pair; subtree pages may be read once per query.
* **(b)** — for each directory entry, all qualifying data rectangles are
  answered in one batched traversal of its subtree, so each subtree page
  is read at most once per batch.
* **(c)** — pairs are processed in plane-sweep order with pinning, like
  SJ4, each pair as one window query.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from ..rtree.columns import NodeColumns
from ..rtree.node import Node
from .context import JoinContext, R_SIDE, S_SIDE
from .pairs import iter_index_pairs, nested_loop_pairs_columns

OutputPair = Tuple[int, int]

#: One scheduled window query: (subtree page of the deep side, row of
#: the data rectangle in the flat side's columns).
Probe = Tuple[int, int]


def run_window_mode(algorithm, ctx: JoinContext, nr: Node, dr: int,
                    ns: Node, ds: int, rect: Optional[Rect],
                    out: List[OutputPair],
                    accept: Optional[Callable] = None,
                    prune: Callable = nested_loop_pairs_columns) -> None:
    """Dispatch the directory/data boundary to the configured policy.

    ``algorithm`` supplies ``_find_pairs`` (so the pair search keeps the
    algorithm's own CPU technique) and ``height_policy``.  A join whose
    condition is not an intersection-family predicate passes its own
    counted data-level check as *accept* and its directory test as
    *prune* (see :func:`_batched_window_query`).
    """
    if nr.is_leaf == ns.is_leaf:
        raise ValueError("window mode needs exactly one data node")
    cols_r, cols_s, idx_r, idx_s = algorithm._find_pairs(ctx, nr, ns, rect)
    # Orient: `deep` is the directory side, `flat` the data side.
    if nr.is_leaf:
        deep_side, deep_depth = S_SIDE, ds
        deep_cols, flat_cols = cols_s, cols_r
        pairs = iter_index_pairs(idx_s, idx_r)
    else:
        deep_side, deep_depth = R_SIDE, dr
        deep_cols, flat_cols = cols_r, cols_s
        pairs = iter_index_pairs(idx_r, idx_s)
    if not pairs:
        return
    pages = deep_cols.child_refs()
    probes = [(pages[a], b) for a, b in pairs]

    emit = _make_emitter(deep_side, out)
    if accept is None:
        accept = _make_leaf_check(algorithm.predicate, deep_side)

    def query(page_id: int, rows: List[int]) -> None:
        """One traversal of a deep-side subtree answering the data
        rectangles *rows* of the flat side."""
        _batched_window_query(ctx, deep_side, page_id, deep_depth + 1,
                              flat_cols.take(rows), emit, accept, prune)

    _POLICIES[algorithm.height_policy](ctx, deep_side, probes, query)


def _make_emitter(deep_side: int,
                  out: List[OutputPair]) -> Callable[[int, int], None]:
    """Emit result pairs as (R ref, S ref) regardless of orientation."""
    if deep_side == R_SIDE:
        def emit(deep_ref: int, flat_ref: int) -> None:
            out.append((deep_ref, flat_ref))
    else:
        def emit(deep_ref: int, flat_ref: int) -> None:
            out.append((flat_ref, deep_ref))
    return emit


def _make_leaf_check(predicate: SpatialPredicate,
                     deep_side: int) -> Optional[Callable]:
    """Counted data-level join condition with the (R, S) orientation
    restored: the predicate's left operand is always the R-side rect.
    ``None`` stands for plain intersection, which the columnar kernels
    answer without a per-row callback."""
    if predicate is SpatialPredicate.INTERSECTS:
        return None
    if deep_side == R_SIDE:
        def accept(deep_rect, flat_rect, counter):
            return predicate.evaluate_counted(deep_rect, flat_rect,
                                              counter)
    else:
        def accept(deep_rect, flat_rect, counter):
            return predicate.evaluate_counted(flat_rect, deep_rect,
                                              counter)
    return accept


# ----------------------------------------------------------------------
# The window descent
# ----------------------------------------------------------------------

def _batched_window_query(ctx, side: int, page_id: int, depth: int,
                          queries: NodeColumns,
                          emit: Callable[[int, int], None],
                          accept: Optional[Callable] = None,
                          prune: Callable = nested_loop_pairs_columns
                          ) -> None:
    """Answer several window queries in one traversal; every subtree page
    is read at most once for the whole batch (policy (b)).

    This is the only window descent in ``core``: a single window is a
    batch of one (policies (a) and (c), and
    :class:`~repro.core.window.WindowQueryEngine`, whose ``read`` and
    ``counter`` are all of *ctx* that is used here).  *prune* is the
    counted (node rows, queries) test that selects the subtrees to
    enter and, for plain intersection, the data entries to report;
    *accept* replaces it on data pages for every other join condition.
    """
    node = ctx.read(side, page_id, depth)
    cols = node.columns
    counter = ctx.counter
    if node.is_leaf and accept is not None:
        windows = list(queries.iter_rect_refs())
        for rect, ref in cols.iter_rect_refs():
            for window, partner_ref in windows:
                if accept(rect, window, counter):
                    emit(ref, partner_ref)
        return
    # The node's rows play R, so every (entry, query) test charges what
    # ``intersect_count(entry.rect, query.rect)`` would; the kernel
    # reports hits query-major, regrouped here per node entry.
    rows, hits = prune(cols, queries, counter)
    by_row: Dict[int, List[int]] = defaultdict(list)
    for row, hit in iter_index_pairs(rows, hits):
        by_row[row].append(hit)
    refs = cols.child_refs()
    if node.is_leaf:
        partner_refs = queries.child_refs()
        for row in sorted(by_row):
            for hit in by_row[row]:
                emit(refs[row], partner_refs[hit])
    else:
        for row in sorted(by_row):
            _batched_window_query(ctx, side, refs[row], depth + 1,
                                  queries.take(by_row[row]), emit, accept,
                                  prune)


# ----------------------------------------------------------------------
# The three read schedules over it
# ----------------------------------------------------------------------

def _policy_a(ctx: JoinContext, side: int, probes: List[Probe],
              query: Callable[[int, List[int]], None]) -> None:
    for page_id, row in probes:
        query(page_id, [row])


def _policy_b(ctx: JoinContext, side: int, probes: List[Probe],
              query: Callable[[int, List[int]], None]) -> None:
    # Group the query rectangles by directory entry, keeping the order in
    # which directory entries first appear in the schedule (dicts keep
    # insertion order).
    batches: Dict[int, List[int]] = defaultdict(list)
    for page_id, row in probes:
        batches[page_id].append(row)
    for page_id, rows in batches.items():
        query(page_id, rows)


def _policy_c(ctx: JoinContext, side: int, probes: List[Probe],
              query: Callable[[int, List[int]], None]) -> None:
    n = len(probes)
    done = [False] * n
    by_page: Dict[int, List[int]] = defaultdict(list)
    for idx, (page_id, _) in enumerate(probes):
        by_page[page_id].append(idx)

    for i in range(n):
        if done[i]:
            continue
        page_id, row = probes[i]
        query(page_id, [row])
        done[i] = True
        group = [k for k in by_page[page_id] if not done[k]]
        if not group:
            continue
        ctx.pin(side, page_id)
        for k in group:
            query(page_id, [probes[k][1]])
            done[k] = True
        ctx.unpin(side, page_id)


_POLICIES = {"a": _policy_a, "b": _policy_b, "c": _policy_c}
