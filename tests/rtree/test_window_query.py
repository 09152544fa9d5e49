"""``RTreeBase.window_query`` over both node representations.

A columnar-only node (a loaded tree) is tested in one mask over its
columns, a node holding an ``Entry`` list entry by entry.  Either way
the refs and their order are those of the per-entry descent below, and
a read never builds the representation a node lacks.
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.knn import NearestNeighborEngine
from repro.geometry import Rect
from repro.rtree import (HAVE_NUMPY, RStarTree, RTreeParams, force_stdlib,
                         load_tree, save_tree, str_pack)

PAGE_SIZE = 256


def entry_reference(tree, window):
    """The per-entry descent: the same stack order, every node read
    through its ``Entry`` list."""
    result = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        hits = [e.ref for e in node.entries if e.rect.intersects(window)]
        if node.is_leaf:
            result.extend(hits)
        else:
            stack.extend(tree.node(ref) for ref in hits)
    return result


def build(kind, records):
    params = RTreeParams.from_page_size(PAGE_SIZE)
    if kind == "rstar":
        tree = RStarTree(params)
        for rect, ref in records:
            tree.insert(rect, ref)
        return tree
    packed = str_pack(records, params)
    if kind == "packed":
        return packed
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "tree.rt")
        save_tree(packed, path)
        return load_tree(path)


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


coords = st.one_of(st.integers(-10, 10).map(float), st.just(-0.0),
                   st.floats(-10.0, 10.0, allow_nan=False,
                             allow_infinity=False))
extents = st.sampled_from([0.0, -0.0, 0.5, 2.0, 6.0])


@st.composite
def rects(draw):
    x, y = draw(coords), draw(coords)
    return Rect(x, y, x + draw(extents), y + draw(extents))


@pytest.mark.parametrize("kind", ["loaded", "packed", "rstar"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(rects(), min_size=1, max_size=80),
       windows=st.lists(rects(), min_size=1, max_size=6))
def test_window_matches_entry_reference(backend, kind, records, windows):
    """Same refs, same order, on every tree kind and backend.  The
    reference runs on a second copy, so building its entry lists
    cannot change what the tree under test holds."""
    records = [(rect, ref) for ref, rect in enumerate(records)]
    tree, twin = build(kind, records), build(kind, records)
    for window in windows:
        assert tree.window_query(window) == entry_reference(twin, window)


def _random_records(n, seed):
    rng = random.Random(seed)
    records = []
    for ref in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        records.append((Rect(x, y, x + rng.uniform(0, 15),
                             y + rng.uniform(0, 15)), ref))
    return records


def _windows(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        x, y = rng.uniform(-20, 1000), rng.uniform(-20, 1000)
        side = rng.choice((0.0, 5.0, 60.0, 400.0))
        yield Rect(x, y, x + side, y + side)


def test_loaded_tree_stays_columnar_only(backend):
    """Windows and kNN on a loaded tree build no ``Entry`` list."""
    tree = build("loaded", _random_records(1500, seed=5))
    engine = NearestNeighborEngine(tree)
    for window in _windows(6):
        tree.window_query(window)
        engine.query(window.xl, window.yl, k=10)
    assert not any(node.has_materialized_entries()
                   for node in tree.iter_nodes())


def test_entry_tree_window_caches_no_columns(backend):
    """A window over entry-holding nodes reads the entry lists and
    leaves no columnar view behind on any node."""
    tree = build("rstar", _random_records(1500, seed=7))
    nodes = list(tree.iter_nodes())
    assert all(node.has_materialized_entries() for node in nodes)
    assert all(node._columns is None for node in nodes)
    hits = 0
    for window in _windows(8):
        hits += len(tree.window_query(window))
    assert hits
    assert all(node._columns is None for node in nodes)
