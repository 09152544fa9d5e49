"""The level-synchronous descent against a per-pair reference.

The engine computes every tree level's node pairs in one segmented
kernel call and then replays the paper's depth-first read schedule over
them.  The reference below is the plain recursive join the paper
describes — one node pair at a time, pairs found by the paper-literal
``Entry`` kernels of :mod:`repro.core.pairs` — run through the same
buffer manager.  Both must agree on everything a join reports: the
*ordered* pair list, every comparison bucket, every buffer counter and
the node-pair count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.context as context_module
import repro.core.engine as engine_module
from repro.core import JoinSpec, SpatialJoin5, spatial_join
from repro.core.context import R_SIDE, S_SIDE, build_context
from repro.core.engine import JoinAlgorithm, common_rect
from repro.core.heights import run_window_mode
from repro.core.pairs import (nested_loop_pairs, restrict_entries,
                              sorted_intersection_test)
from repro.errors import QueryTimeout
from repro.geometry import Rect
from repro.geometry.predicates import SpatialPredicate
from repro.plan.registry import make_algorithm
from repro.rtree import NodeColumns, RStarTree, RTreeParams, str_pack
from repro.storage.manager import BufferManager


# ----------------------------------------------------------------------
# The per-pair reference
# ----------------------------------------------------------------------

class PerPairReference:
    """SJ1-SJ5 as one recursive call per node pair, on the object
    kernels.  Borrows from the engine only what this change leaves
    alone: the algorithm's flags, SJ5's z-grid, the pinning schedule
    and the window-query policies of Section 4.4."""

    def __init__(self, algorithm: str, height_policy: str,
                 predicate: SpatialPredicate) -> None:
        self.algo = make_algorithm(algorithm, height_policy=height_policy,
                                   predicate=predicate)
        self.height_policy = height_policy
        self.predicate = predicate

    def run(self, ctx):
        algo = self.algo
        algo._prepare(ctx)
        ctx.stats.algorithm = algo.name
        root_r = ctx.read_root(R_SIDE)
        root_s = ctx.read_root(S_SIDE)
        out = []
        if len(root_r) and len(root_s):
            rect = None
            if algo.restricts_search_space:
                rect = root_r.mbr().intersection(root_s.mbr())
            if not algo.restricts_search_space or rect is not None:
                self._join(ctx, root_r, 0, root_s, 0, rect, out)
        ctx.stats.pairs_output = len(out)
        return out

    def _entries(self, ctx, side, node):
        if self.algo.sweeps:
            return ctx.sorted_columns(side, node).to_entries()
        return list(node.entries)

    def _find_pairs(self, ctx, nr, ns, rect):
        """The engine's per-pair contract (used by window mode too):
        column views of both nodes and row-index pairs into them."""
        counter = ctx.counter
        entries_r = self._entries(ctx, R_SIDE, nr)
        entries_s = self._entries(ctx, S_SIDE, ns)
        if rect is not None:
            entries_r = restrict_entries(entries_r, rect, counter)
            entries_s = restrict_entries(entries_s, rect, counter)
        if self.algo.sweeps:
            pairs = sorted_intersection_test(entries_r, entries_s, counter)
        else:
            pairs = nested_loop_pairs(entries_r, entries_s, counter)
        row_r = {id(e): i for i, e in enumerate(entries_r)}
        row_s = {id(e): i for i, e in enumerate(entries_s)}
        return (NodeColumns.from_entries(entries_r),
                NodeColumns.from_entries(entries_s),
                [row_r[id(a)] for a, _ in pairs],
                [row_s[id(b)] for _, b in pairs])

    def _z_order(self, ctx, cols_r, cols_s, pairs):
        grid = self.algo._grid
        if grid is None or len(pairs) < 2:
            return pairs
        keyed = [(grid.zvalue_of_rect(common_rect(cols_r, a, cols_s, b)),
                  (a, b)) for a, b in pairs]
        count = 0

        class Key:
            def __init__(self, item):
                self.value = item[0]

            def __lt__(self, other):
                nonlocal count
                count += 1
                return self.value < other.value

        keyed.sort(key=Key)
        ctx.counter.sort += count
        return [pair for _, pair in keyed]

    def _join(self, ctx, nr, dr, ns, ds, rect, out):
        ctx.stats.node_pairs += 1
        if nr.is_leaf != ns.is_leaf:
            run_window_mode(self, ctx, nr, dr, ns, ds, rect, out)
            return
        cols_r, cols_s, idx_r, idx_s = self._find_pairs(ctx, nr, ns, rect)
        pairs = list(zip(idx_r, idx_s))
        if nr.is_leaf:
            for a, b in pairs:
                if self.predicate is SpatialPredicate.INTERSECTS or \
                        self.predicate.evaluate_counted(
                            cols_r.rect(a), cols_s.rect(b), ctx.counter):
                    out.append((cols_r.ref(a), cols_s.ref(b)))
            return
        if isinstance(self.algo, SpatialJoin5):
            pairs = self._z_order(ctx, cols_r, cols_s, pairs)

        def process(pair):
            a, b = pair
            child_rect = None
            if self.algo.restricts_search_space:
                child_rect = common_rect(cols_r, a, cols_s, b)
            child_r = ctx.read(R_SIDE, cols_r.ref(a), dr + 1)
            child_s = ctx.read(S_SIDE, cols_s.ref(b), ds + 1)
            self._join(ctx, child_r, dr + 1, child_s, ds + 1, child_rect,
                       out)

        if self.algo.uses_pinning:
            refs = [(cols_r.ref(a), cols_s.ref(b)) for a, b in pairs]
            JoinAlgorithm._pinned_schedule(self.algo, ctx, pairs, refs,
                                           process)
        else:
            for pair in pairs:
                process(pair)


def counters(stats):
    io = stats.io
    return {"join": stats.comparisons.join, "sort": stats.comparisons.sort,
            "presort": stats.presort_comparisons,
            "disk_reads": io.disk_reads, "lru_hits": io.lru_hits,
            "path_hits": io.path_hits, "evictions": io.evictions,
            "node_pairs": stats.node_pairs}


# ----------------------------------------------------------------------
# Parity property
# ----------------------------------------------------------------------

_coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False)
_extent = st.sampled_from([0.0, 0.5, 3.0, 12.0, 40.0])


@st.composite
def _rect(draw):
    x, y = draw(_coord), draw(_coord)
    return Rect(x, y, x + draw(_extent), y + draw(_extent))


_rects = st.lists(_rect(), min_size=0, max_size=120)


def _build(rects, page_size, packed):
    records = [(rect, i) for i, rect in enumerate(rects)]
    params = RTreeParams.from_page_size(page_size)
    if packed and records:
        return str_pack(records, params)
    tree = RStarTree(params)
    for rect, ref in records:
        tree.insert(rect, ref)
    return tree


@settings(max_examples=120, deadline=None)
@given(left=_rects, right=_rects,
       page_size=st.sampled_from([80, 100, 120, 140, 160]),   # M = 4..8
       packed=st.tuples(st.booleans(), st.booleans()),
       algorithm=st.sampled_from(["sj1", "sj2", "sj3", "sj4", "sj5"]),
       height_policy=st.sampled_from(["a", "b", "c"]),
       predicate=st.sampled_from(list(SpatialPredicate)),
       sort_mode=st.sampled_from(["maintained", "on_read"]),
       buffer_kb=st.sampled_from([0.0, 8.0, 128.0]),
       chunk_rows=st.sampled_from([engine_module.LEVEL_CHUNK_ROWS, 1, 20]))
def test_descent_matches_per_pair_reference(left, right, page_size, packed,
                                            algorithm, height_policy,
                                            predicate, sort_mode,
                                            buffer_kb, chunk_rows):
    spec = JoinSpec(algorithm=algorithm, buffer_kb=buffer_kb,
                    height_policy=height_policy, predicate=predicate,
                    sort_mode=sort_mode)
    # Maintained sorting sorts nodes in place: each side gets its own
    # (identically built) trees.  Small chunk budgets cut every level
    # into several kernel calls.
    default_rows = engine_module.LEVEL_CHUNK_ROWS
    engine_module.LEVEL_CHUNK_ROWS = chunk_rows
    try:
        engine = spatial_join(_build(left, page_size, packed[0]),
                              _build(right, page_size, packed[1]),
                              spec=spec)
    finally:
        engine_module.LEVEL_CHUNK_ROWS = default_rows
    ctx = build_context(_build(left, page_size, packed[0]),
                        _build(right, page_size, packed[1]), spec)
    reference = PerPairReference(algorithm, height_policy,
                                 spec.predicate).run(ctx)
    assert engine.pairs == reference
    assert counters(engine.stats) == counters(ctx.stats)


def test_descent_covers_unequal_heights_and_window_mode():
    """The property's space reaches the different-height boundary."""
    def trees():
        return (_build([Rect(i, i, i + 3.0, i + 3.0) for i in range(120)],
                       80, False),
                _build([Rect(i, 0, i + 2.0, 2.0) for i in range(6)], 80,
                       False))

    tree_r, tree_s = trees()
    assert tree_r.height > tree_s.height
    for policy in ("a", "b", "c"):
        spec = JoinSpec(algorithm="sj4", buffer_kb=8, height_policy=policy)
        engine = spatial_join(*trees(), spec=spec)
        ctx = build_context(*trees(), spec)
        reference = PerPairReference("sj4", policy,
                                     spec.predicate).run(ctx)
        assert engine.pairs == reference and len(reference) > 0
        assert counters(engine.stats) == counters(ctx.stats)


# ----------------------------------------------------------------------
# Deadline through the batch
# ----------------------------------------------------------------------

def _fixed_trees(seed=11, n=600, page_size=256):
    rng = random.Random(seed)

    def rects():
        out = []
        for i in range(n):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            out.append((Rect(x, y, x + rng.uniform(0, 30),
                             y + rng.uniform(0, 30)), i))
        return out

    params = RTreeParams.from_page_size(page_size)
    trees = []
    for records in (rects(), rects()):
        tree = RStarTree(params)
        for rect, ref in records:
            tree.insert(rect, ref)
        trees.append(tree)
    return trees


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock_and_reads(monkeypatch):
    """A hand-driven clock for the join context, and a count of the
    counted page fetches the buffer manager served."""
    clock = _Clock()
    monkeypatch.setattr(context_module, "perf_counter", clock)
    reads = []
    original = BufferManager.read

    def counted_read(self, side, page_id, depth):
        reads.append((side, page_id))
        return original(self, side, page_id, depth)

    monkeypatch.setattr(BufferManager, "read", counted_read)
    return clock, reads


def _expire_on_level(monkeypatch, clock, reads, level):
    """Let the clock run past any deadline while level *level* of the
    descent is computed; returns the log of (level, reads so far)."""
    calls = []
    original = JoinAlgorithm._level_pairs

    def level_pairs(self, ctx, cols_r, cols_s, rects):
        calls.append(len(reads))
        result = original(self, ctx, cols_r, cols_s, rects)
        if len(calls) - 1 == level:
            clock.now += 3600.0
        return result

    monkeypatch.setattr(JoinAlgorithm, "_level_pairs", level_pairs)
    return calls


def test_deadline_passing_in_leaf_batch_stops_before_next_read(
        monkeypatch, clock_and_reads):
    clock, reads = clock_and_reads
    tree_r, tree_s = _fixed_trees()
    assert tree_r.height == tree_s.height >= 3
    leaf_level = tree_r.height - 1
    calls = _expire_on_level(monkeypatch, clock, reads, leaf_level)
    with pytest.raises(QueryTimeout):
        spatial_join(tree_r, tree_s, spec=JoinSpec(
            algorithm="sj4", buffer_kb=8, timeout=60.0))
    assert len(calls) == leaf_level + 1
    # Only the two roots were fetched: the replay read nothing after
    # the leaf batch ran out of time.
    assert len(reads) == 2 == calls[-1]


def test_deadline_is_checked_before_each_level(monkeypatch,
                                               clock_and_reads):
    clock, reads = clock_and_reads
    tree_r, tree_s = _fixed_trees()
    calls = _expire_on_level(monkeypatch, clock, reads, 0)
    with pytest.raises(QueryTimeout):
        spatial_join(tree_r, tree_s, spec=JoinSpec(
            algorithm="sj4", buffer_kb=8, timeout=60.0))
    assert len(calls) == 1
    assert len(reads) == 2


def test_unexpired_deadline_changes_nothing(clock_and_reads):
    timed = spatial_join(*_fixed_trees(), spec=JoinSpec(
        algorithm="sj4", buffer_kb=8, timeout=60.0))
    plain = spatial_join(*_fixed_trees(), spec=JoinSpec(
        algorithm="sj4", buffer_kb=8))
    assert timed.pairs == plain.pairs
    assert counters(timed.stats) == counters(plain.stats)


# ----------------------------------------------------------------------
# Observability through the batch
# ----------------------------------------------------------------------

#: What a traced SJ4 join of :func:`_fixed_trees` (8 KB buffer)
#: reported when every node pair still ran its own kernel call:
#: per-level node-pair counters, and (count, sum, bucket counts) of
#: the two qualifying-pair histograms.
RECORDED_NODE_PAIRS = {"join.node_pairs.level.0": 1,
                       "join.node_pairs.level.1": 28,
                       "join.node_pairs.level.2": 208}
RECORDED_HISTOGRAMS = {
    "join.fanout": (29, 236.0, [5, 2, 3, 9, 7, 3] + [0] * 12),
    "sweep.run_length": (208, 322.0, [130, 25, 33, 19, 1] + [0] * 13),
}


def test_traced_join_reports_recorded_per_pair_observations():
    tree_r, tree_s = _fixed_trees()
    result = spatial_join(tree_r, tree_s, spec=JoinSpec(
        algorithm="sj4", buffer_kb=8, trace=True))
    metrics = result.obs.metrics
    node_pairs = {name: value for name, value in metrics.counters.items()
                  if name.startswith("join.node_pairs.level.")}
    assert node_pairs == RECORDED_NODE_PAIRS
    assert sum(node_pairs.values()) == result.stats.node_pairs
    histograms = {name: (metrics.histograms[name].count,
                         metrics.histograms[name].total,
                         list(metrics.histograms[name].counts))
                  for name in RECORDED_HISTOGRAMS}
    assert histograms == RECORDED_HISTOGRAMS
    # The pair-finding timer counts one node pair per kernel answer.
    assert result.obs.tracer.aggregates["find_pairs"][1] == \
        result.stats.node_pairs
