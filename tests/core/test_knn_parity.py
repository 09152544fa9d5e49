"""The node-at-a-time kNN engine against a per-entry reference.

``NearestNeighborEngine.query`` computes a node's distances over its
four columns and pushes only entries within the running k-th object
distance.  The reference below is the plain best-first loop: one
:func:`mindist` and one heap push per entry, through the same buffer
manager.  Both must agree on everything a query reports — every
``(ref, distance)`` bit for bit and in order, ``expansions``, and the
disk/LRU counters — on loaded (columnar-only) and in-place R* trees,
with and without a delta, on both column backends.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.knn import NearestNeighborEngine, mindist
from repro.db.delta import FrozenDelta
from repro.geometry import Rect
from repro.rtree import (HAVE_NUMPY, RStarTree, RTreeParams, force_stdlib,
                         load_tree, save_tree, str_pack)
from repro.storage.manager import BufferManager

PAGE_SIZE = 256          # a handful of entries per node: deep trees


class PerEntryReference:
    """Best-first kNN as it was written before the columnar engine:
    every entry of an expanded node is pushed with its own
    :func:`mindist`."""

    def __init__(self, tree, buffer_kb: float = 0.0) -> None:
        self.tree = tree
        self.manager = BufferManager.for_buffer_size(
            buffer_kb, tree.params.page_size, use_path_buffer=False)
        self.side = self.manager.register(tree.store)

    def query(self, x, y, k, delta=None):
        before = self.manager.stats.snapshot()
        hidden = delta.hidden if delta is not None else frozenset()
        counter = itertools.count()
        heap = []
        if len(self.tree.root):
            heap.append((0.0, False, next(counter), self.tree.root_id, 0))
        if delta is not None:
            for oid, rect, _ in delta.iter_added():
                heapq.heappush(heap,
                               (mindist(x, y, rect), True, oid, oid, 0))
        neighbors, expansions = [], 0
        while heap and len(neighbors) < k:
            dist, is_object, _, payload, depth = heapq.heappop(heap)
            expansions += 1
            if is_object:
                neighbors.append((payload, dist))
                continue
            node = self.manager.read(self.side, payload, depth)
            for rect, ref in node.columns.iter_rect_refs():
                if node.is_leaf and ref in hidden:
                    continue
                heapq.heappush(
                    heap, (mindist(x, y, rect), node.is_leaf,
                           ref if node.is_leaf else next(counter), ref,
                           depth + 1))
        return neighbors, expansions, self.manager.stats.since(before)


# ----------------------------------------------------------------------
# Hostile inputs: a coarse grid (ties everywhere), signed zeros,
# zero-area rectangles and duplicates
# ----------------------------------------------------------------------

coords = st.one_of(st.integers(-12, 12).map(float),
                   st.just(-0.0),
                   st.floats(-12.0, 12.0, allow_nan=False,
                             allow_infinity=False))
extents = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 7.25])


@st.composite
def rects(draw):
    x, y = draw(coords), draw(coords)
    return Rect(x, y, x + draw(extents), y + draw(extents))


@st.composite
def rect_lists(draw, min_size, max_size):
    pool = draw(st.lists(rects(), min_size=1, max_size=12))
    picks = st.one_of(st.sampled_from(pool), rects())
    return draw(st.lists(picks, min_size=min_size, max_size=max_size))


@st.composite
def deltas(draw, n):
    """Added rows (new oids and re-inserted base oids) and deleted base
    oids over a base of oids ``0..n-1``."""
    if not draw(st.booleans()):
        return None
    base = st.integers(0, n - 1)
    added = {n + i: rect for i, rect in enumerate(
        draw(rect_lists(0, 8)))}
    for oid in draw(st.lists(base, max_size=4)):
        added[oid] = draw(rects())            # re-inserted: moved
    deleted = draw(st.lists(base, max_size=6))
    return FrozenDelta(added, deleted)


queries = st.lists(st.tuples(coords, coords, st.integers(1, 12)),
                   min_size=1, max_size=6)


def build(kind, records):
    """A tree of *kind* over *records*: ``loaded`` is STR-packed, saved
    and loaded back (every node columnar-only), ``rstar`` is built by
    one-by-one R* insertion (every node holds an entry list)."""
    params = RTreeParams.from_page_size(PAGE_SIZE)
    if kind == "rstar":
        tree = RStarTree(params)
        for rect, ref in records:
            tree.insert(rect, ref)
        return tree
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "tree.rt")
        save_tree(str_pack(records, params), path)
        return load_tree(path)


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def assert_same(engine, reference, x, y, k, delta):
    """One query through the engine and the reference: every
    ``(ref, distance)`` bit for bit and in order, the expansions and
    the page counters."""
    got = engine.query(x, y, k, delta=delta)
    want, expansions, io = reference.query(x, y, k, delta=delta)
    assert [(ref, d.hex()) for ref, d in got.neighbors] == \
        [(ref, d.hex()) for ref, d in want]
    assert got.expansions == expansions
    assert (got.io.disk_reads, got.io.lru_hits) == \
        (io.disk_reads, io.lru_hits)


@pytest.mark.parametrize("kind", ["loaded", "rstar"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=rect_lists(1, 60), buffer_kb=st.sampled_from([0.0, 2.0]),
       data=st.data())
def test_engine_matches_per_entry_reference(backend, kind, records,
                                            buffer_kb, data):
    tree = build(kind, [(rect, ref) for ref, rect in enumerate(records)])
    n = len(tree)
    delta = data.draw(deltas(n))
    # One engine and one reference for the whole sequence, so the LRU
    # buffer carries across queries.
    engine = NearestNeighborEngine(tree, buffer_kb=buffer_kb)
    reference = PerEntryReference(tree, buffer_kb=buffer_kb)
    for x, y, k in data.draw(queries):
        k = data.draw(st.sampled_from([k, n, n + 5]))    # k > n too
        assert_same(engine, reference, x, y, k, delta)


@pytest.mark.parametrize("kind", ["loaded", "rstar"])
def test_engine_matches_reference_on_a_larger_tree(backend, kind):
    """A few hundred rows: several directory levels, and the bound
    prunes whole nodes."""
    rng = random.Random(71)
    records = []
    for ref in range(600):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        records.append((Rect(x, y, x + rng.choice((0.0, 3.0, 20.0)),
                             y + rng.choice((0.0, 3.0, 20.0))), ref))
    records += [(rect, 600 + ref) for rect, ref in records[:40]]  # dups
    tree = build(kind, records)
    delta = FrozenDelta({5: Rect(10, 10, 12, 12),
                         10_000: Rect(500, 500, 500, 500)}, [7, 8, 9])
    engine = NearestNeighborEngine(tree, buffer_kb=4.0)
    reference = PerEntryReference(tree, buffer_kb=4.0)
    for _ in range(40):
        x, y = rng.uniform(-50, 1050), rng.uniform(-50, 1050)
        for k in (1, 10, 50):
            for d in (None, delta):
                assert_same(engine, reference, x, y, k, d)
