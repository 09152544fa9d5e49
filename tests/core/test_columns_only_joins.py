"""A tree loaded from disk stays columns-only through joins.

Section 4.2's sort (lazy ``maintained``, the eager presort and
``on_read``) reads a node's ``xlo`` column and reorders the columns it
holds, so no join, window or kNN query over a loaded tree builds an
``Entry`` list.  The pairs and every counter equal those of the same
join over the in-memory, entry-holding trees the files were saved from.
"""

from __future__ import annotations

import random

import pytest

from repro.core import JoinContext, JoinSpec, nearest_neighbors, spatial_join
from repro.geometry import Rect
from repro.rtree import (HAVE_NUMPY, RStarTree, RTreeParams, force_stdlib,
                         load_tree, save_tree)

PAGE_SIZE = 512
BUFFER_KB = 4

ALGORITHMS = ("sj1", "sj2", "sj3", "sj4", "sj5", "auto")
REGIMES = {
    "maintained": dict(),
    "presort": dict(presort=True),
    "on_read": dict(sort_mode="on_read"),
}


def _records(n, seed):
    rng = random.Random(seed)
    records = []
    for ref in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        records.append((Rect(x, y, x + rng.uniform(0, 40),
                             y + rng.uniform(0, 40)), ref))
    return records


def _originals():
    """Two R*-trees built by insertion: in memory, holding entries."""
    trees = []
    for seed in (41, 42):
        tree = RStarTree(RTreeParams.from_page_size(PAGE_SIZE))
        for rect, ref in _records(400, seed):
            tree.insert(rect, ref)
        trees.append(tree)
    return trees


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    where = tmp_path_factory.mktemp("trees")
    paths = []
    for side, tree in zip("rs", _originals()):
        path = str(where / f"{side}.rtree")
        save_tree(tree, path)
        paths.append(path)
    return paths


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    if request.param == "numpy" and not HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    previous = force_stdlib(request.param == "stdlib")
    yield request.param
    force_stdlib(previous)


def _holding_entries(trees):
    return sum(node.has_materialized_entries()
               for tree in trees for node in tree.iter_nodes())


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_loaded_trees_stay_columns_only(backend, saved, algorithm, regime):
    loaded = [load_tree(path) for path in saved]
    assert _holding_entries(loaded) == 0
    spec = JoinSpec(algorithm=algorithm, buffer_kb=BUFFER_KB,
                    **REGIMES[regime])

    got = spatial_join(*loaded, spec=spec)
    want = spatial_join(*_originals(), spec=spec)

    assert got.pairs and got.pairs == want.pairs
    assert got.stats.to_dict() == want.stats.to_dict()
    for tree in loaded:
        assert tree.window_query(Rect(200, 200, 600, 600))
        assert len(nearest_neighbors(tree, 500.0, 500.0, k=5)) == 5
    assert _holding_entries(loaded) == 0


@pytest.mark.parametrize("regime", ["maintained", "presort"])
def test_maintained_sort_reorders_the_columns(backend, saved, regime):
    """A ``maintained`` join leaves the nodes it sorted flagged and in
    ascending xlo order, in columns only."""
    loaded = [load_tree(path) for path in saved]
    stats = spatial_join(*loaded, spec=JoinSpec(
        algorithm="sj4", buffer_kb=BUFFER_KB, **REGIMES[regime])).stats
    assert stats.presort_comparisons > 0
    nodes = [node for tree in loaded for node in tree.iter_nodes()]
    sorted_nodes = [node for node in nodes if node.sorted_by_xl]
    assert sorted_nodes
    if regime == "presort":
        assert len(sorted_nodes) == len(nodes)
    for node in sorted_nodes:
        xlo = list(node.columns.xlo)
        assert xlo == sorted(xlo)
    assert _holding_entries(loaded) == 0


def test_on_read_sorted_copies_leave_nodes_columns_only(backend, saved):
    """Every ``on_read`` copy, including those the engine does not
    precompute, is the node's columns taken in xlo order."""
    loaded = [load_tree(path) for path in saved]
    ctx = JoinContext(*loaded, sort_mode="on_read")
    for side, tree in enumerate(loaded):
        for node in tree.iter_nodes():
            xlo = list(ctx.sorted_columns(side, node).xlo)
            assert xlo == sorted(xlo) and not node.sorted_by_xl
    assert ctx.stats.comparisons.sort > 0
    assert _holding_entries(loaded) == 0
