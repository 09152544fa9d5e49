"""Unit tests for the buffered window-query engine."""

import pytest

from repro.core import WindowQueryEngine
from repro.geometry import Rect
from tests.conftest import build_rstar, make_rects


def test_matches_tree_query():
    records = make_rects(800, seed=81)
    tree = build_rstar(records, page_size=256)
    engine = WindowQueryEngine(tree, buffer_kb=8)
    window = Rect(100, 100, 400, 400)
    result = engine.query(window)
    assert sorted(result.refs) == sorted(tree.window_query(window))
    assert result.comparisons.join > 0
    assert result.io.disk_reads > 0


def test_warm_buffer_reduces_io():
    records = make_rects(800, seed=82)
    tree = build_rstar(records, page_size=256)
    engine = WindowQueryEngine(tree, buffer_kb=64)
    window = Rect(200, 200, 300, 300)
    cold = engine.query(window)
    warm = engine.query(window)
    assert warm.io.disk_reads < cold.io.disk_reads


def test_zero_buffer_still_counts_path_hits():
    records = make_rects(800, seed=83)
    tree = build_rstar(records, page_size=256)
    engine = WindowQueryEngine(tree, buffer_kb=0)
    result = engine.query(Rect(0, 0, 1000, 1000))
    # A full scan revisits the root once per path, served by the path
    # buffer, never twice from disk.
    assert result.io.disk_reads <= sum(1 for _ in tree.iter_nodes())


def test_empty_result():
    records = make_rects(100, seed=84)
    tree = build_rstar(records)
    engine = WindowQueryEngine(tree)
    result = engine.query(Rect(5000, 5000, 5001, 5001))
    assert result.refs == []
    assert len(result) == 0


def test_per_query_counters_are_deltas():
    records = make_rects(500, seed=85)
    tree = build_rstar(records, page_size=256)
    engine = WindowQueryEngine(tree, buffer_kb=8)
    first = engine.query(Rect(0, 0, 500, 500))
    second = engine.query(Rect(500, 500, 1000, 1000))
    # Each result reports only its own work, not cumulative counts.
    total_logical = (first.io.disk_reads + first.io.lru_hits
                     + first.io.path_hits + second.io.disk_reads
                     + second.io.lru_hits + second.io.path_hits)
    stats = engine.manager.stats
    assert total_logical == (stats.disk_reads + stats.lru_hits
                             + stats.path_hits)


def depth_first_refs(tree, node, window):
    """The per-entry descent, written out: rows in node order."""
    for entry in node.entries:
        if entry.rect.intersects(window):
            if node.is_leaf:
                yield entry.ref
            else:
                yield from depth_first_refs(tree, tree.node(entry.ref),
                                            window)


@pytest.mark.parametrize("n, seed, windows, expected", [
    (800, 81, [Rect(100, 100, 400, 400)],
     [(93, (18, 0, 0), 570)]),
    (500, 85, [Rect(0, 0, 500, 500), Rect(500, 500, 1000, 1000)],
     [(130, (22, 0, 0), 662), (122, (23, 2, 1), 780)]),
])
def test_counters_and_order_of_the_single_descent(n, seed, windows,
                                                  expected):
    """A single window is a batch of one on the join engine's batched
    descent; the literals were recorded on the private per-entry
    descent it replaced (same on both column backends)."""
    tree = build_rstar(make_rects(n, seed=seed), page_size=256)
    engine = WindowQueryEngine(tree, buffer_kb=8)
    for window, (count, io, comparisons) in zip(windows, expected):
        result = engine.query(window)
        assert result.refs == list(depth_first_refs(tree, tree.root,
                                                    window))
        assert len(result.refs) == count
        assert (result.io.disk_reads, result.io.lru_hits,
                result.io.path_hits) == io
        assert result.comparisons.join == comparisons
