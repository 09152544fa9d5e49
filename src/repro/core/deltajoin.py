"""Delta-overlay spatial join: base-tree results + MVCC write buffers.

A relation that absorbs its writes exposes an immutable
:class:`~repro.db.snapshot.Snapshot` — base R*-tree plus a frozen
:class:`~repro.db.delta.FrozenDelta`.  Joining two snapshots decomposes
into four disjoint pair categories:

* **base × base** — the ordinary planned join over the two base trees
  (SJ1–SJ5, unchanged), post-filtered against both deltas' hidden sets
  (a base pair is stale when either oid was deleted or re-inserted);
* **delta_L × base_R**, **base_L × delta_R** and **delta_L × delta_R** —
  three calls into the join engine.  A delta *is* a data page: its
  ``columns`` are an xlo-sorted :class:`~repro.rtree.columns.NodeColumns`,
  so wrapped in a virtual leaf it meets the other side's root as
  Section 4.4's "data node against directory node" (one batched
  traversal per subtree under policy (b)) and the other delta as a
  plain leaf pair.  Tree-side refs of the first two runs are filtered
  against *that* side's hidden set — an oid that was deleted and
  re-inserted is in ``added`` and still in the base tree with its old
  rectangle.

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

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..rtree.node import Node
from .context import R_SIDE, S_SIDE, build_context
from .engine import JoinAlgorithm
from .sj4 import SpatialJoin4
from .spec import JoinSpec
from .stats import JoinResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.snapshot import Snapshot

__all__ = ["overlay_join", "filter_hidden_pairs"]


def filter_hidden_pairs(pairs: List[Tuple[int, int]], hidden_l,
                        hidden_r) -> List[Tuple[int, int]]:
    """Drop base pairs whose left/right oid the deltas hide."""
    if not hidden_l and not hidden_r:
        return pairs
    return [pair for pair in pairs
            if pair[0] not in hidden_l and pair[1] not in hidden_r]


def _delta_leaf(delta) -> Node:
    """The delta's insert buffer as a virtual data page (never read
    through a buffer, so it costs no I/O; sorted by construction)."""
    leaf = Node(-1, 0, columns=delta.columns)
    leaf.sorted_by_xl = True
    return leaf


def overlay_join(snap_l: "Snapshot", snap_r: "Snapshot",
                 base: JoinResult, spec: JoinSpec,
                 algorithm: Optional[JoinAlgorithm] = None) -> JoinResult:
    """Compose the full MVCC join result from a base-tree join.

    *base* must be the join of ``snap_l.tree`` × ``snap_r.tree`` under
    the condition the overlay runs with: *spec*'s predicate on SJ4
    (delta leaves are sorted, so the sweep applies whatever algorithm
    the base join was planned with), or *algorithm* for a join that is
    not an intersection-family one (the within-distance join).  The
    context comes from *spec* the one way every join's does, so the
    overlay honours the same deadline, tracing, buffer and sort regime
    — a served overlay sorts the shared tree roots ``on_read``, never
    in place.  Returns a new :class:`JoinResult` whose pair set equals
    the join over the merged (visible) object sets, the delta
    contributions appended after the surviving base pairs; *base*
    itself is not mutated.
    """
    delta_l, delta_r = snap_l.delta, snap_r.delta
    if not delta_l and not delta_r:
        return base
    pairs = filter_hidden_pairs(base.pairs, delta_l.hidden,
                                delta_r.hidden)
    ctx = build_context(snap_l.tree, snap_r.tree, spec, obs=base.obs)
    algo = algorithm or SpatialJoin4(spec.height_policy,
                                     predicate=spec.predicate)
    algo._prepare(ctx)
    leaf_l, leaf_r = _delta_leaf(delta_l), _delta_leaf(delta_r)
    extra: List[Tuple[int, int]] = []
    if len(leaf_l):
        run: List[Tuple[int, int]] = []
        algo._join_roots(ctx, leaf_l, ctx.read_root(S_SIDE), run)
        extra += filter_hidden_pairs(run, (), delta_r.hidden)
    if len(leaf_r):
        run = []
        algo._join_roots(ctx, ctx.read_root(R_SIDE), leaf_r, run)
        extra += filter_hidden_pairs(run, delta_l.hidden, ())
    algo._join_roots(ctx, leaf_l, leaf_r, extra)
    ctx.stats.delta_pairs = len(extra)
    ctx.stats.hidden_filtered = len(base.pairs) - len(pairs)
    stats = base.stats.merge(ctx.stats)
    stats.pairs_output = len(pairs) + len(extra)
    return JoinResult(pairs + extra, stats,
                      obs=ctx.obs if ctx.obs.enabled else None,
                      plan=base.plan)
