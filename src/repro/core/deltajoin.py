"""Delta-overlay spatial join: base-tree results + MVCC write buffers.

A relation that absorbs its writes exposes an immutable
:class:`~repro.db.snapshot.Snapshot` — base R*-tree plus a frozen
:class:`~repro.db.delta.FrozenDelta`.  Joining two snapshots decomposes
into four disjoint pair categories:

* **base × base** — the ordinary planned join over the two base trees
  (SJ1–SJ5, unchanged), post-filtered against both deltas' hidden sets
  (a base pair is stale when either oid was deleted or re-inserted);
* **delta_L × base_R** and **base_L × delta_R** — each added rectangle
  probes the other side's tree through a counted
  :class:`~repro.core.window.WindowQueryEngine` (the window-mode
  strategy the paper uses for height-mismatched subtrees), hits
  filtered against that side's hidden set;
* **delta_L × delta_R** — the columnar plane sweep
  (:func:`~repro.core.pairs.sorted_intersection_test_columns`) over
  the two xlo-sorted insert buffers.

The categories are disjoint by construction, so no deduplication is
needed; all comparison and I/O counters flow into the merged
:class:`~repro.core.stats.JoinStatistics` as usual, with the overlay's
contribution broken out in ``delta_pairs`` / ``hidden_filtered``.

This module deliberately avoids importing the planner or the db layer
(snapshots arrive duck-typed), so it sits below both in the import
graph: callers run the base join themselves and hand the result to
:func:`overlay_join`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..geometry.counting import ComparisonCounter
from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import geometry_mbr
from .pairs import iter_index_pairs, sorted_intersection_test_columns
from .stats import JoinResult, JoinStatistics
from .window import WindowQueryEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.snapshot import Snapshot

__all__ = ["overlay_join", "delta_probe_pairs", "delta_delta_pairs",
           "filter_hidden_pairs"]


def filter_hidden_pairs(pairs: List[Tuple[int, int]], hidden_l,
                        hidden_r) -> List[Tuple[int, int]]:
    """Drop base pairs whose left/right oid the deltas hide."""
    if not hidden_l and not hidden_r:
        return pairs
    return [pair for pair in pairs
            if pair[0] not in hidden_l and pair[1] not in hidden_r]


def delta_probe_pairs(delta, other: "Snapshot",
                      predicate: SpatialPredicate, buffer_kb: float,
                      stats: JoinStatistics, out: List[Tuple[int, int]],
                      flip: bool) -> None:
    """Join one side's added entries against the other side's tree.

    Each added rectangle runs one counted window query; candidates in
    the other side's hidden set are dropped, and non-intersection
    predicates are confirmed with the counted evaluator.  ``flip``
    orients the emitted pairs (False: delta is the left side).
    """
    engine = WindowQueryEngine(other.tree, buffer_kb=buffer_kb)
    counter = engine.counter
    hidden = other.delta.hidden
    base_objects = other.base_objects
    intersects = predicate is SpatialPredicate.INTERSECTS
    for oid, rect, _ in delta.iter_added():
        result = engine.query(rect)
        for ref in result.refs:
            if ref in hidden:
                continue
            if not intersects:
                other_rect = geometry_mbr(base_objects[ref])
                a, b = (rect, other_rect) if not flip \
                    else (other_rect, rect)
                if not predicate.evaluate_counted(a, b, counter):
                    continue
            out.append((oid, ref) if not flip else (ref, oid))
    stats.comparisons += counter
    stats.io += engine.manager.stats


def delta_delta_pairs(delta_l, delta_r, predicate: SpatialPredicate,
                      stats: JoinStatistics,
                      out: List[Tuple[int, int]]) -> None:
    """Sweep the two xlo-sorted columnar insert buffers against each
    other (added × added pairs)."""
    counter = ComparisonCounter()
    idx_l, idx_r = sorted_intersection_test_columns(
        delta_l.columns, delta_r.columns, counter)
    cols_l, cols_r = delta_l.columns, delta_r.columns
    intersects = predicate is SpatialPredicate.INTERSECTS
    for i, j in iter_index_pairs(idx_l, idx_r):
        if not intersects and not predicate.evaluate_counted(
                cols_l.rect(i), cols_r.rect(j), counter):
            continue
        out.append((cols_l.ref(i), cols_r.ref(j)))
    stats.comparisons += counter


def overlay_join(snap_l: "Snapshot", snap_r: "Snapshot",
                 base: JoinResult,
                 predicate: SpatialPredicate = SpatialPredicate.INTERSECTS,
                 buffer_kb: float = 128.0) -> JoinResult:
    """Compose the full MVCC join result from a base-tree join.

    *base* must be the planned join of ``snap_l.tree`` × ``snap_r.tree``
    under the same *predicate*.  Returns a new :class:`JoinResult`
    whose pair set equals the join over the merged (visible) object
    sets; *base* itself is not mutated.
    """
    delta_l, delta_r = snap_l.delta, snap_r.delta
    if not delta_l and not delta_r:
        return base
    pairs = filter_hidden_pairs(base.pairs, delta_l.hidden,
                                delta_r.hidden)
    dropped = len(base.pairs) - len(pairs)
    overlay = JoinStatistics(algorithm=base.stats.algorithm,
                             page_size=base.stats.page_size,
                             buffer_kb=base.stats.buffer_kb)
    extra: List[Tuple[int, int]] = []
    if delta_l.added:
        delta_probe_pairs(delta_l, snap_r, predicate, buffer_kb,
                          overlay, extra, flip=False)
    if delta_r.added:
        delta_probe_pairs(delta_r, snap_l, predicate, buffer_kb,
                          overlay, extra, flip=True)
    if delta_l.added and delta_r.added:
        delta_delta_pairs(delta_l, delta_r, predicate, overlay, extra)
    overlay.delta_pairs = len(extra)
    overlay.hidden_filtered = dropped
    stats = base.stats.merge(overlay)
    stats.pairs_output = len(pairs) + len(extra)
    return JoinResult(pairs + extra, stats, obs=base.obs,
                      plan=base.plan)
